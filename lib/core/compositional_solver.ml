module Program = Ipa_ir.Program

type report = { n_sccs : int; dirty_sccs : int list; fallback : string option }

let digests p (cond : Summary.condensation) =
  Array.init (Array.length cond.sccs) (Summary.digest p cond)

let cold_fallback p cfg reason =
  let n_sccs = Array.length (Summary.condense p).sccs in
  (Solver.run p cfg, { n_sccs; dirty_sccs = []; fallback = Some reason })

let solve_incremental ~base_program ~base_solution p cfg =
  if cfg.Solver.budget > 0 then
    (* A budget aborts mid-fixpoint at a derivation count the warm phase
       cannot reproduce (its seeds spend nothing): warm and cold would
       diverge. Incremental solving is for unbudgeted runs. *)
    cold_fallback p cfg "budgeted"
  else if base_solution.Solution.outcome <> Solution.Complete then
    cold_fallback p cfg "partial baseline"
  else if not (Summary.extends ~old_p:base_program ~new_p:p) then
    (* Seeding is sound only under a monotone, id-stable extension: the
       base fixpoint must be a subset of the edited program's. *)
    cold_fallback p cfg "non-monotone delta"
  else begin
    let cond = Summary.condense p in
    let n_sccs = Array.length cond.sccs in
    let new_digests = digests p cond in
    let old_set = Hashtbl.create 64 in
    Array.iter
      (fun d -> Hashtbl.replace old_set d ())
      (digests base_program (Summary.condense base_program));
    let dirty0 = ref [] in
    for sid = n_sccs - 1 downto 0 do
      if not (Hashtbl.mem old_set new_digests.(sid)) then dirty0 := sid :: !dirty0
    done;
    let dirty = Summary.dirty_closure cond !dirty0 in
    let dirty_sccs = ref [] in
    for sid = n_sccs - 1 downto 0 do
      if dirty.(sid) then dirty_sccs := sid :: !dirty_sccs
    done;
    (* Defer the bodies whose instructions may differ from what the base
       was solved under: members of digest-changed components, plus every
       method the base program did not have (a new method can share a
       digest with an old duplicate, which would otherwise mask it).
       Transitive callers stay clean — their bodies are unchanged; only
       facts flowing through them change, and the solve re-derives those. *)
    let defer = Array.make (Program.n_meths p) false in
    List.iter
      (fun sid -> Array.iter (fun m -> defer.(m) <- true) cond.sccs.(sid).members)
      !dirty0;
    for m = Program.n_meths base_program to Program.n_meths p - 1 do
      defer.(m) <- true
    done;
    let sol = Solver.run_incremental ~seed:{ Solver.base = base_solution; defer } p cfg in
    (sol, { n_sccs; dirty_sccs = !dirty_sccs; fallback = None })
  end

module Program = Ipa_ir.Program

type report = {
  n_sccs : int;
  dirty_sccs : int list;
  fallback : string option;
  resumed : bool;
  installed_facts : int;
  installed_edges : int;
}

let cold_fallback p cfg reason =
  let n_sccs = Array.length (Summary.condense p).sccs in
  ( Solver.run p cfg,
    {
      n_sccs;
      dirty_sccs = [];
      fallback = Some reason;
      resumed = false;
      installed_facts = 0;
      installed_edges = 0;
    } )

let solve_incremental ~base_program ~base_solution p cfg =
  if cfg.Solver.budget > 0 then
    (* A budget aborts mid-fixpoint at a derivation count the warm phase
       cannot reproduce (installed facts spend nothing): warm and cold
       would diverge. Incremental solving is for unbudgeted runs. *)
    cold_fallback p cfg "budgeted"
  else if base_solution.Solution.outcome <> Solution.Complete then
    cold_fallback p cfg "partial baseline"
  else if not (Solver.solved_under base_solution cfg) then
    (* Another configuration's fixpoint is no fixpoint of this one, and
       installing it would find that out only where the edit does not
       reach. *)
    cold_fallback p cfg "baseline of another configuration"
  else
    match Summary.delta ~old_p:base_program ~new_p:p with
    | None ->
      (* Installing is sound only under a monotone, id-stable extension:
         the base fixpoint must be a subset of the edited program's. *)
      cold_fallback p cfg "non-monotone delta"
    | Some changed ->
      let cond = Summary.condense p in
      let n_sccs = Array.length cond.sccs in
      (* Dirty components hold a new or changed method. Their members'
         bodies are deferred: their instructions may differ from what the
         base was solved under, or they share a component with one that
         does. Transitive callers stay clean — their bodies are unchanged;
         only facts flowing through them change, and the solve re-derives
         those. *)
      let sids = List.init n_sccs Fun.id in
      let dirty0 =
        List.filter (fun sid -> Array.exists (fun m -> changed.(m)) cond.sccs.(sid).members) sids
      in
      let dirty = Summary.dirty_closure cond dirty0 in
      let dirty_sccs = List.filter (fun sid -> dirty.(sid)) sids in
      let warm ~resumed (installed : Solver.installed) =
        {
          n_sccs;
          dirty_sccs;
          fallback = None;
          resumed;
          installed_facts = installed.facts;
          installed_edges = installed.edges;
        }
      in
      (* The state behind a warm base resumes when its handle is current;
         anything else installs the base into fresh state. *)
      match Solver.resume ~base_program ~changed base_solution p cfg with
      | Some sol -> (sol, warm ~resumed:true { facts = 0; edges = 0 })
      | None -> (
        let defer = Array.make (Program.n_meths p) false in
        List.iter
          (fun sid -> Array.iter (fun m -> defer.(m) <- true) cond.sccs.(sid).members)
          dirty0;
        match Solver.run_incremental ~seed:{ Solver.base = base_solution; defer } p cfg with
        | Error reason -> cold_fallback p cfg reason
        | Ok (sol, installed) -> (sol, warm ~resumed:false installed))

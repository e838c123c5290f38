type report = {
  n_sccs : int;
  dirty_sccs : int list;
  fallback : string option;
  resumed : bool;
  installed_facts : int;
  installed_edges : int;
}

let cold_fallback p cfg reason =
  let n_sccs, _ = Summary.dirty_components p (Array.make (Ipa_ir.Program.n_meths p) false) in
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
       resuming its state would never find that out. *)
    cold_fallback p cfg "baseline of another configuration"
  else
    match Summary.delta ~old_p:base_program ~new_p:p with
    | None ->
      (* Moving the base fixpoint to the edited program is sound only
         under a monotone, id-stable extension: the base fixpoint must be
         a subset of the edited program's. *)
      cold_fallback p cfg "non-monotone delta"
    | Some changed -> (
      match Solver.warm ~base_program ~changed base_solution p cfg with
      | Error reason -> cold_fallback p cfg reason
      | Ok (sol, installed) ->
        (* The components serve the report: the ones reaching a new or
           changed method are the ones whose facts may change. *)
        let n_sccs, dirty_sccs = Summary.dirty_components p changed in
        let facts, edges =
          match installed with None -> (0, 0) | Some { Solver.facts; edges } -> (facts, edges)
        in
        ( sol,
          {
            n_sccs;
            dirty_sccs;
            fallback = None;
            resumed = Option.is_none installed;
            installed_facts = facts;
            installed_edges = edges;
          } ))

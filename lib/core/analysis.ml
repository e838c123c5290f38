module Timer = Ipa_support.Timer

type result = {
  label : string;
  solution : Solution.t;
  seconds : float;
  timed_out : bool;
}

let run_config p ~label config =
  let solution, seconds = Timer.time (fun () -> Solver.run p config) in
  { label; solution; seconds; timed_out = solution.Solution.outcome = Budget_exceeded }

let run_plain ?(budget = 0) p flavor =
  let strategy = Flavors.strategy p flavor in
  run_config p ~label:(Flavors.to_string flavor) (Solver.plain p ~budget strategy)

(* The configuration of every second pass: context-insensitive constructors
   by default, the requested flavor's constructors on refined elements. *)
let second_pass_config ?(budget = 0) p flavor refine =
  {
    Solver.default_strategy = Flavors.strategy p Flavors.Insensitive;
    refined_strategy = Flavors.strategy p flavor;
    refine;
    budget;
    field_sensitive = true;
  }

type introspective = {
  base : result;
  metrics : Introspection.t;
  heuristic : Heuristics.t;
  refine : Refine.t;
  selection : Heuristics.stats;
  second : result;
}

let run_introspective ?(budget = 0) ?base ?solve p flavor heuristic =
  let base, metrics =
    match base with
    | Some bm -> bm
    | None ->
      let base = run_plain ~budget p Flavors.Insensitive in
      (base, Introspection.compute base.solution)
  in
  let refine = Heuristics.select base.solution metrics heuristic in
  let selection = Heuristics.selection_stats base.solution refine in
  let config = second_pass_config ~budget p flavor refine in
  let label = Printf.sprintf "%s-%s" (Flavors.to_string flavor) (Heuristics.name heuristic) in
  let second =
    match solve with Some solve -> solve ~label config | None -> run_config p ~label config
  in
  { base; metrics; heuristic; refine; selection; second }

type client_driven = {
  cd_base : result;
  cd_refine : Refine.t;
  cd_second : result;
}

let run_client_driven ?(budget = 0) ?base p flavor query =
  let base =
    match base with Some base -> base | None -> run_plain ~budget p Flavors.Insensitive
  in
  let cd_refine = Client_driven.select base.solution query in
  let config = second_pass_config ~budget p flavor cd_refine in
  let label = Printf.sprintf "%s-query" (Flavors.to_string flavor) in
  let cd_second = run_config p ~label config in
  { cd_base = base; cd_refine; cd_second }

let run_incremental p ~base_program ~base_solution flavor =
  let strategy = Flavors.strategy p flavor in
  let config = Solver.plain p strategy in
  let (solution, report), seconds =
    Timer.time (fun () ->
        Compositional_solver.solve_incremental ~base_program ~base_solution p config)
  in
  let label = Printf.sprintf "%s-incremental" (Flavors.to_string flavor) in
  ( { label; solution; seconds; timed_out = solution.Solution.outcome = Budget_exceeded },
    report )

let run_mixed ?(budget = 0) p ~default ~refined ~refine =
  let config =
    {
      Solver.default_strategy = Flavors.strategy p default;
      refined_strategy = Flavors.strategy p refined;
      refine;
      budget;
      field_sensitive = true;
    }
  in
  let label = Printf.sprintf "%s+%s" (Flavors.to_string default) (Flavors.to_string refined) in
  run_config p ~label config

module Analysis = Ipa_core.Analysis
module Flavors = Ipa_core.Flavors
module Heuristics = Ipa_core.Heuristics
module Precision = Ipa_core.Precision
module Dacapo = Ipa_synthetic.Dacapo
module Table = Ipa_support.Ascii_table

let obj2 = Flavors.Object_sens { depth = 2; heap = 1 }

let cell_of_result (r : Analysis.result) =
  if r.timed_out then Config.timeout_label else Printf.sprintf "%.2f" r.seconds

let precision_cells (r : Analysis.result) =
  if r.timed_out then [ "-"; "-"; "-" ]
  else
    let p = Precision.compute r.solution in
    [
      string_of_int p.poly_vcalls;
      string_of_int p.reachable_methods;
      string_of_int p.may_fail_casts;
    ]

let build_bench (cfg : Config.t) name = Dacapo.build ~scale:cfg.scale (Option.get (Dacapo.find name))

(* Each parallel task rebuilds its benchmark program rather than sharing one
   across domains; Dacapo.build is deterministic and cheap next to a solve. *)

(* ---------- knob sweep ---------- *)

let knob (cfg : Config.t) =
  let benches = [ "hsqldb"; "jython" ] in
  let scale_c factor c = max 1 (int_of_float (float_of_int c *. factor)) in
  let settings =
    [ ("insens", `Plain Flavors.Insensitive) ]
    @ List.map
        (fun factor ->
          ( Printf.sprintf "IntroA x%g" factor,
            `Intro (Heuristics.A { k = scale_c factor 100; l = scale_c factor 100; m = scale_c factor 200 }) ))
        [ 0.1; 0.5; 1.0; 5.0; 50.0; 10000.0 ]
    @ List.map
        (fun factor ->
          ( Printf.sprintf "IntroB x%g" factor,
            `Intro (Heuristics.B { p = scale_c factor 10000; q = scale_c factor 10000 }) ))
        [ 0.1; 1.0; 50.0 ]
    @ [ ("full 2objH", `Plain obj2) ]
  in
  let cells = List.concat_map (fun name -> List.map (fun s -> (name, s)) settings) benches in
  let rows =
    Par.map cfg
      (fun (name, (label, setting)) ->
        let p = build_bench cfg name in
        let r =
          match setting with
          | `Plain Flavors.Insensitive -> fst (Cache.base_pass cfg.cache ~budget:cfg.budget p)
          | `Plain flavor -> Analysis.run_plain ~budget:cfg.budget p flavor
          | `Intro h ->
            let base = Cache.base_pass cfg.cache ~budget:cfg.budget p in
            (Analysis.run_introspective ~budget:cfg.budget ~base p obj2 h).second
        in
        (name, [ label; cell_of_result r ] @ precision_cells r))
      cells
  in
  print_endline "== Ablation: heuristic-constant sweep (2objH introspective) ==";
  List.iter
    (fun name ->
      Printf.printf "-- %s --\n" name;
      Table.print
        ~header:[ "setting"; "time(s)"; "poly-vcalls"; "reach-meths"; "fail-casts" ]
        (List.filter_map (fun (n, row) -> if n = name then Some row else None) rows))
    benches;
  print_newline ()

(* ---------- flavor grid ---------- *)

let grid (cfg : Config.t) =
  let flavors = Flavors.all_named in
  let rows =
    Par.map cfg
      (fun (spec : Dacapo.spec) ->
        let p = Dacapo.build ~scale:cfg.scale spec in
        spec.name
        :: List.map
             (fun (_, flavor) ->
               cell_of_result
                 (if flavor = Flavors.Insensitive then
                    fst (Cache.base_pass cfg.cache ~budget:cfg.budget p)
                  else Analysis.run_plain ~budget:cfg.budget p flavor))
             flavors)
      Dacapo.all
  in
  print_endline "== Ablation: flavor/benchmark scalability grid (time in s) ==";
  Table.print ~header:("benchmark" :: List.map fst flavors) rows;
  print_newline ()

(* ---------- heuristic components ---------- *)

let components (cfg : Config.t) =
  let huge = max_int / 4 in
  let variants =
    [
      ("A (full)", Heuristics.A { k = 100; l = 100; m = 200 });
      ("A in-flow only", Heuristics.A { k = huge; l = 100; m = huge });
      ("A var-field only", Heuristics.A { k = huge; l = huge; m = 200 });
      ("A objects only", Heuristics.A { k = 100; l = huge; m = huge });
    ]
  in
  let benches = [ "hsqldb"; "jython"; "xalan" ] in
  let cells = List.concat_map (fun name -> List.map (fun v -> (name, v)) variants) benches in
  let rows =
    Par.map cfg
      (fun (name, (label, h)) ->
        let p = build_bench cfg name in
        let base = Cache.base_pass cfg.cache ~budget:cfg.budget p in
        let ir = Analysis.run_introspective ~budget:cfg.budget ~base p obj2 h in
        let sel = ir.selection in
        ( name,
          [
            label;
            cell_of_result ir.second;
            Printf.sprintf "%.1f" (Heuristics.pct_sites sel);
            Printf.sprintf "%.1f" (Heuristics.pct_objects sel);
          ]
          @ precision_cells ir.second ))
      cells
  in
  print_endline "== Ablation: Heuristic A components (2objH, hard benchmarks) ==";
  List.iter
    (fun name ->
      Printf.printf "-- %s --\n" name;
      Table.print
        ~header:
          [ "variant"; "time(s)"; "sites%"; "objects%"; "poly-vcalls"; "reach-meths"; "fail-casts" ]
        (List.filter_map (fun (n, row) -> if n = name then Some row else None) rows))
    benches;
  print_newline ()

(* ---------- field sensitivity ---------- *)

let field_sensitivity (cfg : Config.t) =
  let run p flavor field_sensitive =
    let config =
      {
        (Ipa_core.Solver.plain p ~budget:cfg.budget (Ipa_core.Flavors.strategy p flavor)) with
        field_sensitive;
      }
    in
    (* Insensitive runs go through the cache: the field-sensitive one is
       exactly the shared first pass (same key as [Cache.base_pass]), and
       the field-based one is keyed separately by the flag. *)
    let (r : Analysis.result) =
      if flavor = Flavors.Insensitive then
        fst (Cache.solve cfg.cache p ~label:(Flavors.to_string flavor) config)
      else Analysis.run_config p ~label:(Flavors.to_string flavor) config
    in
    let time = if r.timed_out then Config.timeout_label else Printf.sprintf "%.2f" r.seconds in
    let prec =
      if r.timed_out then [ "-"; "-" ]
      else
        let pr = Precision.compute r.solution in
        [ string_of_int pr.poly_vcalls; string_of_int pr.may_fail_casts ]
    in
    [ time ] @ prec
  in
  let cells =
    List.concat_map
      (fun name ->
        List.map
          (fun lf -> (name, lf))
          [ ("insens", Flavors.Insensitive); ("2objH", obj2) ])
      [ "chart"; "eclipse"; "pmd" ]
  in
  let rows =
    Par.map cfg
      (fun (name, (label, flavor)) ->
        let p = build_bench cfg name in
        (name ^ " " ^ label) :: (run p flavor true @ run p flavor false))
      cells
  in
  print_endline "== Ablation: field-sensitive vs field-based handling ==";
  Table.print
    ~header:
      [
        "benchmark/analysis";
        "fs time";
        "fs poly";
        "fs casts";
        "fb time";
        "fb poly";
        "fb casts";
      ]
    rows;
  print_newline ()

(* ---------- client-driven baseline (the §5 comparison) ---------- *)

let client_driven (cfg : Config.t) =
  (* The selectors within one benchmark share the insens base solution and
     its query list, so the unit of parallelism is the benchmark. *)
  let per_bench =
    Par.map cfg
      (fun name ->
        let p = build_bench cfg name in
        let rows = ref [] in
        let row label time derivs refined_sites refined_objs unsafe =
          rows := [ label; time; derivs; refined_sites; refined_objs; unsafe ] :: !rows
        in
        let base, metrics = Cache.base_pass cfg.cache ~budget:cfg.budget p in
        let queries = Ipa_core.Client_driven.cast_queries base.solution in
        let unsafe_of (r : Analysis.result) =
          if r.timed_out then "-"
          else string_of_int (Precision.compute r.solution).may_fail_casts
        in
        row "insens" (cell_of_result base) (string_of_int base.solution.derivations) "0" "0"
          (unsafe_of base);
        (* one representative query: the first cast *)
        (match queries with
        | (src, _) :: _ ->
          let cd = Analysis.run_client_driven ~budget:cfg.budget ~base p obj2 [ src ] in
          let sites, objs = Ipa_core.Client_driven.selection_size base.solution cd.cd_refine in
          row "query-driven (1 cast)" (cell_of_result cd.cd_second)
            (string_of_int cd.cd_second.solution.derivations)
            (string_of_int sites) (string_of_int objs) (unsafe_of cd.cd_second)
        | [] -> ());
        (* every cast at once: the all-points regime of §5 *)
        let all_vars = List.map fst queries in
        let cd_all = Analysis.run_client_driven ~budget:cfg.budget ~base p obj2 all_vars in
        let sites, objs = Ipa_core.Client_driven.selection_size base.solution cd_all.cd_refine in
        row "query-driven (all casts)" (cell_of_result cd_all.cd_second)
          (string_of_int cd_all.cd_second.solution.derivations)
          (string_of_int sites) (string_of_int objs) (unsafe_of cd_all.cd_second);
        (* the all-points limit: every variable is a query — client-driven
           selection degenerates to the full analysis (and its timeouts) *)
        let everything = List.init (Ipa_ir.Program.n_vars p) Fun.id in
        let cd_pts = Analysis.run_client_driven ~budget:cfg.budget ~base p obj2 everything in
        let sites, objs = Ipa_core.Client_driven.selection_size base.solution cd_pts.cd_refine in
        row "query-driven (all points)" (cell_of_result cd_pts.cd_second)
          (string_of_int cd_pts.cd_second.solution.derivations)
          (string_of_int sites) (string_of_int objs) (unsafe_of cd_pts.cd_second);
        let intro =
          Analysis.run_introspective ~budget:cfg.budget ~base:(base, metrics) p obj2
            Heuristics.default_b
        in
        row "IntroB" (cell_of_result intro.second)
          (string_of_int intro.second.solution.derivations)
          "-" "-" (unsafe_of intro.second);
        let full = Analysis.run_plain ~budget:cfg.budget p obj2 in
        row "full 2objH" (cell_of_result full) (string_of_int full.solution.derivations) "-" "-"
          (unsafe_of full);
        (name, List.rev !rows))
      [ "hsqldb"; "jython" ]
  in
  print_endline
    "== Comparison: client-driven refinement vs introspection (2objH) ==";
  List.iter
    (fun (name, rows) ->
      Printf.printf "-- %s --\n" name;
      Table.print
        ~header:[ "selector"; "time(s)"; "derivations"; "sites refined"; "objs refined"; "unsafe casts" ]
        rows)
    per_bench;
  print_newline ()

(* ---------- hard-coded policies (the §5 status quo) ---------- *)

let hard_coded (cfg : Config.t) =
  let has_prefix prefixes name =
    List.exists
      (fun pre ->
        String.length name >= String.length pre && String.sub name 0 (String.length pre) = pre)
      prefixes
  in
  (* An expert-written skip list per benchmark, as a Doop/Wala user would
     configure: the classes and methods of the known expensive subsystem. *)
  let policies =
    [
      ("hub policy", [ "Hub"; "Item" ], [ "hget"; "hput"; "use"; "hstep" ]);
      ("interp policy", [ "Frame"; "Val"; "Op" ], [ "fpop"; "fpush"; "oprun"; "exec" ]);
    ]
  in
  let per_bench =
    Par.map cfg
      (fun name ->
        let p = build_bench cfg name in
        let base, metrics = Cache.base_pass cfg.cache ~budget:cfg.budget p in
        let rows = ref [] in
        let row label (r : Analysis.result) =
          rows := ([ label; cell_of_result r ] @ precision_cells r) :: !rows
        in
        List.iter
          (fun (label, class_prefixes, meth_prefixes) ->
            let refine =
              Heuristics.static_policy base.solution
                ~skip_class:(has_prefix class_prefixes)
                ~skip_meth:(has_prefix meth_prefixes)
            in
            let r =
              Analysis.run_mixed ~budget:cfg.budget p ~default:Flavors.Insensitive ~refined:obj2
                ~refine
            in
            row label r)
          policies;
        let intro =
          Analysis.run_introspective ~budget:cfg.budget ~base:(base, metrics) p obj2
            Heuristics.default_a
        in
        row "IntroA" intro.second;
        let full = Analysis.run_plain ~budget:cfg.budget p obj2 in
        row "full 2objH" full;
        (name, List.rev !rows))
      [ "hsqldb"; "jython" ]
  in
  print_endline
    "== Comparison: hard-coded static policies vs introspection (2objH) ==";
  List.iter
    (fun (name, rows) ->
      Printf.printf "-- %s --\n" name;
      Table.print
        ~header:[ "policy"; "time(s)"; "poly-vcalls"; "reach-meths"; "fail-casts" ]
        rows)
    per_bench;
  print_newline ()

let print_all cfg =
  knob cfg;
  grid cfg;
  components cfg;
  field_sensitivity cfg;
  client_driven cfg;
  hard_coded cfg

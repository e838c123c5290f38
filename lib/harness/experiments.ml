module Analysis = Ipa_core.Analysis
module Flavors = Ipa_core.Flavors
module Heuristics = Ipa_core.Heuristics
module Precision = Ipa_core.Precision
module Dacapo = Ipa_synthetic.Dacapo
module Table = Ipa_support.Ascii_table

type run = {
  bench : string;
  analysis : string;
  seconds : float;
  derivations : int;
  timed_out : bool;
  precision : Precision.t option;
  tainted_sinks : int option;
  counters : Ipa_core.Solution.counters;
}

(* Precision and tainted sinks are skipped on budget exhaustion, where they
   would be misleading. *)
let of_result bench (r : Analysis.result) =
  {
    bench;
    analysis = r.label;
    seconds = r.seconds;
    derivations = r.solution.derivations;
    timed_out = r.timed_out;
    precision = (if r.timed_out then None else Some (Precision.compute r.solution));
    (* Cheap on source-free programs: the client bails out before building
       the value-flow graph when nothing matches its spec. *)
    tainted_sinks =
      (if r.timed_out then None else Some (Ipa_clients.Taint.tainted_sink_count r.solution));
    counters = r.solution.counters;
  }

let run_to_row r =
  let time = if r.timed_out then Config.timeout_label else Printf.sprintf "%.2f" r.seconds in
  let p f = match r.precision with Some p -> string_of_int (f p) | None -> "-" in
  [
    r.analysis;
    time;
    string_of_int r.derivations;
    p (fun (p : Precision.t) -> p.poly_vcalls);
    p (fun (p : Precision.t) -> p.reachable_methods);
    p (fun (p : Precision.t) -> p.may_fail_casts);
    (match r.tainted_sinks with Some n -> string_of_int n | None -> "-");
  ]

let build (cfg : Config.t) spec = Dacapo.build ~scale:cfg.scale spec

let header =
  [ "analysis"; "time(s)"; "derivations"; "poly-vcalls"; "reach-meths"; "fail-casts"; "taint-snk" ]

(* ---------- Figure 1 ---------- *)

module Fig1 = struct
  let compute (cfg : Config.t) =
    List.concat
      (Par.map cfg
         (fun (spec : Dacapo.spec) ->
           let p = build cfg spec in
           let insens, _ = Cache.base_pass cfg.cache ~budget:cfg.budget p in
           [
             of_result spec.name insens;
             of_result spec.name
               (Analysis.run_plain ~budget:cfg.budget p (Flavors.Object_sens { depth = 2; heap = 1 }));
           ])
         Dacapo.all)

  let print_runs runs =
    print_endline "== Figure 1: insens vs 2objH running time, all benchmarks ==";
    let rows =
      List.map
        (fun r ->
          [
            r.bench;
            r.analysis;
            (if r.timed_out then Config.timeout_label else Printf.sprintf "%.2f" r.seconds);
            string_of_int r.derivations;
          ])
        runs
    in
    Table.print ~header:[ "benchmark"; "analysis"; "time(s)"; "derivations" ] rows;
    print_newline ()

  let print cfg = print_runs (compute cfg)
end

(* ---------- Figure 4 ---------- *)

module Fig4 = struct
  type row = {
    bench : string;
    a_sites_pct : float;
    b_sites_pct : float;
    a_objects_pct : float;
    b_objects_pct : float;
  }

  let compute (cfg : Config.t) =
    let rows =
      Par.map cfg
        (fun (spec : Dacapo.spec) ->
          let p = build cfg spec in
          let base, metrics = Cache.base_pass cfg.cache ~budget:cfg.budget p in
          let selection h =
            let refine = Heuristics.select base.solution metrics h in
            Heuristics.selection_stats base.solution refine
          in
          let sa = selection Heuristics.default_a in
          let sb = selection Heuristics.default_b in
          {
            bench = spec.name;
            a_sites_pct = Heuristics.pct_sites sa;
            b_sites_pct = Heuristics.pct_sites sb;
            a_objects_pct = Heuristics.pct_objects sa;
            b_objects_pct = Heuristics.pct_objects sb;
          })
        Dacapo.hard
    in
    let n = float_of_int (List.length rows) in
    let avg f = List.fold_left (fun acc r -> acc +. f r) 0.0 rows /. n in
    rows
    @ [
        {
          bench = "average";
          a_sites_pct = avg (fun r -> r.a_sites_pct);
          b_sites_pct = avg (fun r -> r.b_sites_pct);
          a_objects_pct = avg (fun r -> r.a_objects_pct);
          b_objects_pct = avg (fun r -> r.b_objects_pct);
        };
      ]

  let print_rows rows =
    print_endline "== Figure 4: call sites and objects selected NOT to be refined ==";
    Table.print
      ~header:[ "benchmark"; "sites A%"; "sites B%"; "objects A%"; "objects B%" ]
      (List.map
         (fun r ->
           [
             r.bench;
             Printf.sprintf "%.1f" r.a_sites_pct;
             Printf.sprintf "%.1f" r.b_sites_pct;
             Printf.sprintf "%.1f" r.a_objects_pct;
             Printf.sprintf "%.1f" r.b_objects_pct;
           ])
         rows);
    print_newline ()

  let print cfg = print_rows (compute cfg)
end

(* ---------- Figures 5-7 ---------- *)

module Figs567 = struct
  let bench_runs (cfg : Config.t) flavor (spec : Dacapo.spec) =
    let p = build cfg spec in
    (* One shared first pass per benchmark: the insensitive row and both
       introspective variants reuse it (and any other figure's task fetches
       the same snapshot from the cache instead of re-solving). *)
    let base, metrics = Cache.base_pass cfg.cache ~budget:cfg.budget p in
    let insens = of_result spec.name base in
    let intro h =
      let ir = Analysis.run_introspective ~budget:cfg.budget ~base:(base, metrics) p flavor h in
      of_result spec.name ir.second
    in
    let full = of_result spec.name (Analysis.run_plain ~budget:cfg.budget p flavor) in
    [ insens; intro Heuristics.default_a; intro Heuristics.default_b; full ]

  let compute (cfg : Config.t) flavor =
    List.concat (Par.map cfg (bench_runs cfg flavor) Dacapo.charted)

  let figure_number flavor =
    match (flavor : Flavors.spec) with
    | Object_sens _ -> "5"
    | Type_sens _ -> "6"
    | Call_site _ -> "7"
    | Insensitive | Hybrid _ -> "-"

  (* [compute] emits four runs per charted benchmark, in benchmark order. *)
  let print_runs flavor runs =
    Printf.printf "== Figure %s: introspective variants of %s — time and precision ==\n"
      (figure_number flavor) (Flavors.to_string flavor);
    let rec chunks = function
      | [] -> []
      | a :: b :: c :: d :: rest -> [ a; b; c; d ] :: chunks rest
      | short -> [ short ]
    in
    List.iter
      (fun group ->
        (match group with
        | r :: _ -> Printf.printf "-- %s --\n" r.bench
        | [] -> ());
        Table.print ~header (List.map run_to_row group))
      (chunks runs);
    print_newline ()

  let print cfg flavor = print_runs flavor (compute cfg flavor)
end

(* ---------- Taint study ---------- *)

module Taint_study = struct
  (* The taint analogue of the cast/devirt precision columns: a dedicated
     workload where the source-to-sink conflation is separable only by
     context, reported for insens vs the introspective variants vs full
     2objH. Not part of the Dacapo compositions (whose golden derivation
     counts are frozen). *)
  let bench_name = "taint_pipes"

  let clients (cfg : Config.t) = max 2 (int_of_float (12.0 *. cfg.scale))
  let sanitized (cfg : Config.t) = max 1 (clients cfg / 4)

  let build (cfg : Config.t) =
    let w = Ipa_synthetic.World.create () in
    Ipa_synthetic.Motifs.taint_pipes ~sanitized:(sanitized cfg) w ~n:(clients cfg);
    Ipa_synthetic.Motifs.ballast w ~n:(max 1 (int_of_float (40.0 *. cfg.scale)));
    Ipa_synthetic.World.finish w

  let compute (cfg : Config.t) =
    let flavor = Flavors.Object_sens { depth = 2; heap = 1 } in
    (* Four independent analyses of the same (deterministically rebuilt)
       workload; each task builds its own program so no structure is shared
       across domains. *)
    Par.map cfg
      (fun analysis ->
        let p = build cfg in
        match analysis with
        | `Insens ->
          let base, _ = Cache.base_pass cfg.cache ~budget:cfg.budget p in
          of_result bench_name base
        | `Intro h ->
          let base = Cache.base_pass cfg.cache ~budget:cfg.budget p in
          let ir = Analysis.run_introspective ~budget:cfg.budget ~base p flavor h in
          of_result bench_name ir.second
        | `Full -> of_result bench_name (Analysis.run_plain ~budget:cfg.budget p flavor))
      [ `Insens; `Intro Heuristics.default_a; `Intro Heuristics.default_b; `Full ]

  let print_runs cfg runs =
    Printf.printf
      "== Taint study: tainted sinks on the context-separable workload (%d clients) ==\n"
      (clients cfg);
    Table.print ~header (List.map run_to_row runs);
    print_newline ()
end

(* ---------- everything, once: the machine-readable report ---------- *)

type report = {
  fig1 : run list;
  fig4 : Fig4.row list;
  fig5 : run list;
  fig6 : run list;
  fig7 : run list;
  taint : run list;
}

let compute_report cfg =
  {
    fig1 = Fig1.compute cfg;
    fig4 = Fig4.compute cfg;
    fig5 = Figs567.compute cfg (Flavors.Object_sens { depth = 2; heap = 1 });
    fig6 = Figs567.compute cfg (Flavors.Type_sens { depth = 2; heap = 1 });
    fig7 = Figs567.compute cfg (Flavors.Call_site { depth = 2; heap = 1 });
    taint = Taint_study.compute cfg;
  }

let print_report cfg r =
  Fig1.print_runs r.fig1;
  Fig4.print_rows r.fig4;
  Figs567.print_runs (Flavors.Object_sens { depth = 2; heap = 1 }) r.fig5;
  Figs567.print_runs (Flavors.Type_sens { depth = 2; heap = 1 }) r.fig6;
  Figs567.print_runs (Flavors.Call_site { depth = 2; heap = 1 }) r.fig7;
  Taint_study.print_runs cfg r.taint

let print_all cfg = print_report cfg (compute_report cfg)

(* Benchmark harness: the paper's evaluation plus the gated smoke benches.

   Default run (no arguments): regenerate every table and figure of the
   paper's evaluation at full scale, then the ablations. Wall-clock
   benchmarking lives in benchmark/; this harness reproduces the paper's
   numbers and pins their deterministic counters. A single figure is
   printed by [introspect experiments --figure N].

   The figure suites fan out over a domain pool (--jobs N, default
   Domain.recommended_domain_count); results are ordered and identical to a
   sequential run.

   Four selections are gated. Each writes one Bench_record (see
   lib/harness/bench_record.mli) to its BENCH_*.json: the run's params,
   its deterministic [counters] and its schedule-dependent [measured]
   counts; no record holds a wall-clock figure (timing claims go through
   benchmark/). --check-against FILE reads a committed record when the
   arguments are parsed and, after the run, fails unless the fresh
   counters have the same names and values; measured values are ignored.
   [ablation] writes no record, so it refuses the flag.

   - [figs] (also part of [all]): every figure row of the report, written
     to BENCH_solver.json with the solver's propagation counters per row.
   - [cache]: clears the cache directory, computes the report cold, then
     warm through a second process-fresh cache over the same directory;
     asserts identical tables, disk hits and no warm re-solve
     (BENCH_cache.json).
   - [demand]: demand slices vs the full solve; every answer identical,
     every repeat a memo hit, the worst slice below the full solve
     (BENCH_demand.json).
   - [incr]: a cold solve, a warm re-solve of the unchanged program that
     must re-derive nothing, and a warm re-solve after a one-method
     monotone edit that must re-derive under 25% of the cold solve of the
     edited program (BENCH_incr.json).

   Usage:
     main.exe [figs|ablation|cache|demand|incr|all]
              [--scale S] [--budget N] [--jobs N]
              [--cache-dir DIR] [--check-against FILE]
*)

module Flavors = Ipa_core.Flavors
module Experiments = Ipa_harness.Experiments
module Record = Ipa_harness.Bench_record
module J = Ipa_support.Json

let usage () =
  prerr_endline
    "usage: main.exe [figs|ablation|cache|demand|incr|all] [--scale S] [--budget N] [--jobs N] [--cache-dir DIR] [--check-against FILE]";
  exit 2

(* The one failure path of every selection. *)
let fail what msg =
  prerr_endline (Printf.sprintf "%s FAILED: %s" what msg);
  exit 1

type selection = Figs | Ablation | Cache_smoke | Demand_bench | Incr_bench | All

let parse_args () =
  let selection = ref All in
  let cfg = ref Ipa_harness.Config.default in
  let cache_dir = ref "_ipa_cache" in
  let baseline = ref None in
  let rec go = function
    | [] -> ()
    | "figs" :: rest ->
      selection := Figs;
      go rest
    | "ablation" :: rest ->
      selection := Ablation;
      go rest
    | "cache" :: rest ->
      selection := Cache_smoke;
      go rest
    | "demand" :: rest ->
      selection := Demand_bench;
      go rest
    | "incr" :: rest ->
      selection := Incr_bench;
      go rest
    | "all" :: rest ->
      selection := All;
      go rest
    | "--cache-dir" :: v :: rest ->
      cache_dir := v;
      go rest
    | "--check-against" :: v :: rest ->
      (* Read now: the run overwrites the committed file in place. *)
      (match Record.read v with
      | Ok r -> baseline := Some r
      | Error e -> fail "bench check" (Record.error_to_string e));
      go rest
    | "--scale" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when Float.is_finite s && s > 0.0 -> cfg := { !cfg with scale = s }
      | _ -> usage ());
      go rest
    | "--budget" :: v :: rest ->
      (match int_of_string_opt v with
      | Some b when b >= 0 -> cfg := { !cfg with budget = b }
      | _ -> usage ());
      go rest
    | "--jobs" :: v :: rest ->
      (match int_of_string_opt v with
      | Some j when j >= 1 -> cfg := { !cfg with jobs = j }
      | _ -> usage ());
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  (* A baseline that no record is checked against would pass silently. *)
  if !selection = Ablation && !baseline <> None then usage ();
  (!selection, !cfg, !cache_dir, !baseline)

(* ---------- the one record writer and gate ---------- *)

let params (cfg : Ipa_harness.Config.t) extra =
  ("scale", J.Float cfg.scale) :: ("budget", J.Int cfg.budget) :: ("jobs", J.Int cfg.jobs) :: extra

let finish ~path ~baseline (record : Record.t) =
  Record.write path record;
  Printf.printf "wrote %s (%d counters)\n%!" path (List.length record.counters);
  Option.iter
    (fun baseline ->
      match Record.diff ~baseline record with
      | [] ->
        Printf.printf "bench check OK: %d %s counters equal the baseline\n%!"
          (List.length record.counters) record.selection
      | diffs ->
        List.iter (fun d -> prerr_endline ("  " ^ d)) diffs;
        fail "bench check"
          (Printf.sprintf "%d difference(s) from the baseline" (List.length diffs)))
    baseline

(* Prefix every name of an association list: one row's counters. *)
let under prefix kvs = List.map (fun (k, v) -> (prefix ^ "/" ^ k, v)) kvs

(* ---------- BENCH_solver.json: per-row figure counters ---------- *)

let run_counters (r : Experiments.run) =
  let c = r.counters in
  [
    ("derivations", r.derivations);
    ("timed_out", Bool.to_int r.timed_out);
    ("edges_added", c.edges_added);
    ("edges_deduped", c.edges_deduped);
    ("batches", c.batches);
    ("batch_objs", c.batch_objs);
    ("max_batch", c.max_batch);
    ("set_promotions", c.set_promotions);
    ("cycles_collapsed", c.cycles_collapsed);
    ("nodes_merged", c.nodes_merged);
    ("repropagations_avoided", c.repropagations_avoided);
  ]

let run_figs ~baseline cfg =
  let report = Experiments.compute_report cfg in
  Experiments.print_report cfg report;
  let rows =
    List.concat_map
      (fun (section, runs) ->
        List.map
          (fun (r : Experiments.run) -> (Printf.sprintf "%s/%s/%s" section r.bench r.analysis, r))
          runs)
      [
        ("fig1", report.fig1);
        ("fig5", report.fig5);
        ("fig6", report.fig6);
        ("fig7", report.fig7);
        ("taint", report.taint);
      ]
  in
  let runs = List.map snd rows in
  Printf.printf "summary: %d runs, %d derivations in %.2fs solver time\n%!" (List.length runs)
    (List.fold_left (fun acc (r : Experiments.run) -> acc + r.derivations) 0 runs)
    (List.fold_left (fun acc (r : Experiments.run) -> acc +. r.seconds) 0.0 runs);
  finish ~path:"BENCH_solver.json" ~baseline
    {
      selection = "figs";
      params = params cfg [ ("cores", J.Int (Domain.recommended_domain_count ())) ];
      counters = List.concat_map (fun (row, r) -> under row (run_counters r)) rows;
      measured = [];
    }

(* ---------- BENCH_cache.json: cold vs warm differential ---------- *)

(* Everything but the timing columns must be bit-identical across runs. *)
let strip_run (r : Experiments.run) = { r with seconds = 0.0 }

let reports_equal (a : Experiments.report) (b : Experiments.report) =
  let runs rs = List.map strip_run rs in
  runs a.fig1 = runs b.fig1
  && a.fig4 = b.fig4
  && runs a.fig5 = runs b.fig5
  && runs a.fig6 = runs b.fig6
  && runs a.fig7 = runs b.fig7
  && runs a.taint = runs b.taint

(* Lookups, writes and resident bytes do not depend on the schedule; the
   mem/disk hit split, misses and write conflicts do under --jobs > 1,
   because concurrent misses on one key may each solve (see cache.mli). *)
let cache_counters pass (s : Ipa_harness.Cache.stats) =
  ( under pass
      [
        ("lookups", s.mem_hits + s.disk_hits + s.misses);
        ("writes", s.writes);
        ("stale", s.stale);
        ("disk_errors", s.disk_errors);
        ("evictions", s.evictions);
        ("resident_bytes", s.resident_bytes);
      ],
    under pass
      [
        ("mem_hits", float_of_int s.mem_hits);
        ("disk_hits", float_of_int s.disk_hits);
        ("write_conflicts", float_of_int s.write_conflicts);
      ] )

let run_cache_smoke (cfg : Ipa_harness.Config.t) ~dir ~baseline =
  let removed = Ipa_harness.Cache.clear ~dir () in
  if removed > 0 then Printf.printf "cleared %d stale snapshot(s) from %s\n%!" removed dir;
  let timed_report cache =
    Ipa_support.Timer.time (fun () -> Experiments.compute_report { cfg with cache })
  in
  let cold_cache = Ipa_harness.Cache.create ~dir () in
  let cold_report, cold_seconds = timed_report cold_cache in
  let cold = Ipa_harness.Cache.stats cold_cache in
  Printf.printf "cold run  %.2fs  %s\n%!" cold_seconds (Ipa_harness.Cache.stats_line cold_cache);
  (* A fresh cache over the same directory: the in-memory layer is empty, so
     every shared first pass must come back as a disk hit. *)
  let warm_cache = Ipa_harness.Cache.create ~dir () in
  let warm_report, warm_seconds = timed_report warm_cache in
  let warm = Ipa_harness.Cache.stats warm_cache in
  Printf.printf "warm run  %.2fs  %s\n%!" warm_seconds (Ipa_harness.Cache.stats_line warm_cache);
  let fail = fail "cache smoke" in
  if not (reports_equal cold_report warm_report) then fail "warm tables differ from cold tables";
  if warm.disk_hits = 0 then fail "warm run never hit the disk cache";
  if warm.misses > 0 then
    fail (Printf.sprintf "warm run re-solved %d shared first pass(es)" warm.misses);
  print_endline "cache smoke OK: warm run reused every shared first pass, tables identical";
  let cold_counters, cold_measured = cache_counters "cold" cold in
  let warm_counters, warm_measured = cache_counters "warm" warm in
  finish ~path:"BENCH_cache.json" ~baseline
    {
      selection = "cache";
      params = params cfg [];
      (* The warm pass re-solves nothing whatever the schedule. *)
      counters = cold_counters @ warm_counters @ [ ("warm/misses", warm.misses) ];
      measured = (("cold/misses", float_of_int cold.misses) :: cold_measured) @ warm_measured;
    }

(* ---------- BENCH_demand.json: slice-vs-full demand solving ---------- *)

(* The demand corpus: the eligible forms whose slices are meant to be
   small — pts (the acceptance form), alias, callees and fieldpts.
   pointed-by is demand-eligible but its root set is every variable (the
   slice degenerates to the whole program), so it would only restate the
   full solve; it is covered by the agreement tests, not the cost story. *)
let demand_mix program =
  let module P = Ipa_ir.Program in
  let take cap n of_i = List.init (min n cap) of_i in
  let var v = P.var_full_name program v in
  let n_vars = P.n_vars program in
  let instance_fields =
    List.filter
      (fun f -> not (P.field_info program f).is_static_field)
      (List.init (P.n_fields program) Fun.id)
  in
  List.concat
    [
      take 32 n_vars (fun v -> Ipa_query.Query.Pts (var v));
      take 8
        (max 0 (n_vars - 1))
        (fun v -> Ipa_query.Query.Alias (var v, var (v + 1)));
      take 8 (P.n_invos program) (fun i ->
          Ipa_query.Query.Callees (P.invo_info program i).invo_name);
      (match instance_fields with
      | [] -> []
      | fields ->
        let fields = Array.of_list fields in
        take 8 (P.n_heaps program) (fun h ->
            Ipa_query.Query.Fieldpts
              ( P.heap_full_name program h,
                P.field_full_name program fields.(h mod Array.length fields) )));
    ]

let run_demand_bench (cfg : Ipa_harness.Config.t) ~baseline =
  let module Solution = Ipa_core.Solution in
  let fail = fail "demand bench" in
  let flavor = Flavors.Object_sens { depth = 2; heap = 1 } in
  let spec = List.hd Ipa_synthetic.Dacapo.all in
  let program = Ipa_synthetic.Dacapo.build ~scale:cfg.scale spec in
  (* Ground truth: the unbudgeted full solve. *)
  let full = Ipa_core.Analysis.run_plain ~budget:0 program flavor in
  let full_engine = Ipa_query.Engine.create full.solution in
  let full_derivations = full.solution.Solution.derivations in
  (* The motivating scenario: the same solve under a budget it blows. *)
  let truncated_budget = max 1 (full_derivations / 10) in
  let truncated = Ipa_core.Analysis.run_plain ~budget:truncated_budget program flavor in
  if truncated.solution.Solution.outcome <> Solution.Budget_exceeded then
    fail "truncated solve unexpectedly completed";
  let truncated_engine = Ipa_query.Engine.create truncated.solution in
  let queries = demand_mix program in
  let n_queries = List.length queries in
  Printf.printf "demand bench: %s at scale %g, %s: %d queries\n%!" spec.name cfg.scale
    full.label n_queries;
  let demand =
    Ipa_query.Demand.create ~program ~label:full.label
      (Ipa_core.Solver.plain program (Flavors.strategy program flavor))
  in
  let render q r = Ipa_query.Engine.render_text q r in
  (* Cold pass: every query slices and solves (memo hits only when two
     queries share a root set). Each answer is checked byte-identical to
     the full solve's; the truncated solve's divergence count is what
     demand mode repairs. The cost gate is per query — the most expensive
     single slice solve must stay materially below one full solve. *)
  let divergent = ref 0 in
  let max_slice_derivations = ref 0 in
  let (), cold_seconds =
    Ipa_support.Timer.time (fun () ->
        List.iter
          (fun q ->
            let before = (Ipa_query.Demand.stats demand).Ipa_query.Demand.slice_derivations in
            let served =
              match Ipa_query.Demand.eval demand q with
              | Some s -> s
              | None -> fail "corpus query not demand-eligible"
            in
            let after = (Ipa_query.Demand.stats demand).Ipa_query.Demand.slice_derivations in
            max_slice_derivations := max !max_slice_derivations (after - before);
            let expected = render q (Ipa_query.Engine.eval full_engine q) in
            let got = render q served.Ipa_query.Demand.result in
            if got <> expected then
              fail
                (Printf.sprintf "answer mismatch\n  full:   %s\n  demand: %s"
                   expected got);
            if render q (Ipa_query.Engine.eval truncated_engine q) <> expected then
              incr divergent)
          queries)
  in
  let cold = Ipa_query.Demand.stats demand in
  (* Warm pass: every repeat must hit the slice memo. *)
  let (), warm_seconds =
    Ipa_support.Timer.time (fun () ->
        List.iter (fun q -> ignore (Ipa_query.Demand.eval demand q)) queries)
  in
  let warm = Ipa_query.Demand.stats demand in
  let warm_hits = warm.Ipa_query.Demand.slice_hits - cold.Ipa_query.Demand.slice_hits in
  if warm_hits <> n_queries then
    fail
      (Printf.sprintf "expected %d warm slice hits, got %d" n_queries warm_hits);
  if !max_slice_derivations >= full_derivations then
    fail
      (Printf.sprintf
         "worst slice solve (%d derivations) not below the full solve (%d) — slicing saved nothing"
         !max_slice_derivations full_derivations);
  let ratio = float_of_int !max_slice_derivations /. float_of_int full_derivations in
  Printf.printf
    "full solve: %d derivations; truncated (budget %d): %d divergent answers of %d\n%!"
    full_derivations truncated_budget !divergent n_queries;
  Printf.printf
    "demand cold: %.4fs, %d queries, %d slice nodes total, worst slice %d derivations (%.3fx full)\n%!"
    cold_seconds cold.Ipa_query.Demand.demand_queries cold.Ipa_query.Demand.slice_nodes
    !max_slice_derivations ratio;
  Printf.printf "demand warm: %.4fs, %d memo hits\n%!" warm_seconds warm_hits;
  print_endline "demand bench OK: every demand answer byte-identical to the unbudgeted full solve";
  finish ~path:"BENCH_demand.json" ~baseline
    {
      selection = "demand";
      params = params cfg [ ("bench", J.Str spec.name); ("analysis", J.Str full.label) ];
      counters =
        [
          ("n_queries", n_queries);
          ("full_derivations", full_derivations);
          ("truncated_budget", truncated_budget);
          ("truncated_derivations", truncated.solution.Solution.derivations);
          ("divergent_truncated_answers", !divergent);
          ("demand_slice_nodes", cold.Ipa_query.Demand.slice_nodes);
          ("demand_derivations", cold.Ipa_query.Demand.slice_derivations);
          ("demand_max_slice_derivations", !max_slice_derivations);
          ("demand_warm_hits", warm_hits);
        ];
      measured = [];
    }

(* ---------- BENCH_incr.json: incremental re-analysis ---------- *)

(* Snapshot bytes with the propagation counters and the derivation count
   zeroed. A warm solution differs from a cold one only in this phase
   accounting: installing the baseline's facts does not count them,
   so those figures describe the incremental work, not the fixpoint.
   Identity is judged on everything else. *)
let canonical_warm program (s : Ipa_core.Solution.t) =
  let module Snapshot = Ipa_core.Snapshot in
  Snapshot.encode
    {
      Snapshot.key = "incr";
      program_digest = Snapshot.digest_program program;
      label = "incr";
      seconds = 0.0;
      solution = { s with counters = Ipa_core.Solution.zero_counters; derivations = 0 };
      metrics = None;
    }

let run_incr_bench (cfg : Ipa_harness.Config.t) ~baseline =
  let module Solution = Ipa_core.Solution in
  let module Analysis = Ipa_core.Analysis in
  let fail = fail "incr bench" in
  let module Comp = Ipa_core.Compositional_solver in
  let module Edits = Ipa_synthetic.Edits in
  let flavor = Flavors.Insensitive in
  let spec = List.hd Ipa_synthetic.Dacapo.all in
  let program = Ipa_synthetic.Dacapo.build ~scale:cfg.scale spec in
  (* 1. Cold solve of the base program. *)
  let cold = Analysis.run_plain program flavor in
  (* 2. Warm re-solve of the unchanged program: nothing is dirty, and the
     installed solve re-derives nothing. *)
  let same, same_report =
    Analysis.run_incremental program ~base_program:program ~base_solution:cold.solution flavor
  in
  if same_report.Comp.fallback <> None then
    fail "unchanged-program re-solve fell back to a cold solve";
  if same_report.Comp.dirty_sccs <> [] then
    fail "unchanged-program re-solve found dirty components";
  if not (String.equal (canonical_warm program same.solution) (canonical_warm program cold.solution))
  then fail "unchanged-program re-solve differs from the cold solve";
  Printf.printf "incr bench: %s at scale %g, %s: %d derivations, %d component(s)\n%!"
    spec.name cfg.scale cold.label cold.solution.Solution.derivations same_report.Comp.n_sccs;
  Printf.printf "incr warm (unchanged): %d derivations\n%!" same.solution.Solution.derivations;
  (* 3. One-method monotone edit: warm re-solve from the baseline vs a
     cold solve of the edited program. The gate is the acceptance bar —
     the warm solve must re-derive under a quarter of the cold solve. *)
  let edits = Edits.pick ~kinds:Edits.monotone_kinds ~seed:42 ~n:1 program in
  (match edits with
  | [ e ] -> Printf.printf "incr edit: %s\n%!" (Edits.describe program e)
  | _ -> fail "expected exactly one edit");
  let edited = Edits.apply_all program edits in
  let edited_cold = Analysis.run_plain edited flavor in
  let warm, warm_report =
    Analysis.run_incremental edited ~base_program:program ~base_solution:cold.solution flavor
  in
  (match warm_report.Comp.fallback with
  | None -> ()
  | Some reason -> fail ("edited re-solve fell back cold: " ^ reason));
  if not (String.equal (canonical_warm edited warm.solution) (canonical_warm edited edited_cold.solution))
  then fail "edited warm re-solve differs from the cold solve";
  let cold_derivations = edited_cold.solution.Solution.derivations in
  let warm_derivations = warm.solution.Solution.derivations in
  if warm_derivations * 4 >= cold_derivations then
    fail
      (Printf.sprintf
         "warm re-solve derived %d of %d — not under the 25%% gate"
         warm_derivations cold_derivations);
  let ratio = float_of_int warm_derivations /. float_of_int cold_derivations in
  Printf.printf "incr warm (1 edit): %d derivations vs %d cold (%.3fx), %d of %d sccs dirty\n%!"
    warm_derivations cold_derivations ratio
    (List.length warm_report.Comp.dirty_sccs)
    warm_report.Comp.n_sccs;
  print_endline
    "incr bench OK: warm re-solves byte-identical to cold, edit re-derivation under the 25% gate";
  finish ~path:"BENCH_incr.json" ~baseline
    {
      selection = "incr";
      params = params cfg [ ("bench", J.Str spec.name); ("analysis", J.Str cold.label) ];
      counters =
        [
          ("n_sccs", same_report.Comp.n_sccs);
          ("cold_derivations", cold.solution.Solution.derivations);
          ("warm_same_derivations", same.solution.Solution.derivations);
          ("edit_dirty_sccs", List.length warm_report.Comp.dirty_sccs);
          ("edit_cold_derivations", cold_derivations);
          ("edit_warm_derivations", warm_derivations);
          ("edit_installed_facts", warm_report.Comp.installed_facts);
          ("edit_installed_edges", warm_report.Comp.installed_edges);
        ];
      measured = [];
    }

let () =
  let selection, cfg, cache_dir, baseline = parse_args () in
  match selection with
  | Figs -> run_figs ~baseline cfg
  | All ->
    run_figs ~baseline cfg;
    Ipa_harness.Ablation.print_all cfg
  | Ablation -> Ipa_harness.Ablation.print_all cfg
  | Cache_smoke -> run_cache_smoke cfg ~dir:cache_dir ~baseline
  | Demand_bench -> run_demand_bench cfg ~baseline
  | Incr_bench -> run_incr_bench cfg ~baseline

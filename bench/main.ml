(* Benchmark harness.

   Default run (no arguments): regenerate every table and figure of the
   paper's evaluation at full scale, then run the Bechamel micro/meso
   benchmarks (one Test.make per figure/table at reduced scale, plus kernel
   benchmarks of the supporting data structures).

   The figure suites fan out over a domain pool (--jobs N, default
   Domain.recommended_domain_count); results are ordered and identical to a
   sequential run. A [figs] or [all] run also writes BENCH_solver.json — the
   full report plus the solver's propagation counters, machine-readable for
   CI trend tracking.

   The [cache] selection is the snapshot-cache smoke test: it clears the
   cache directory, computes the full report cold, recomputes it warm (a
   second process-fresh cache over the same directory), asserts the warm
   run hit the disk for every shared first pass and produced identical
   tables, and writes BENCH_cache.json with both wall-clocks.

   The [query] selection measures demand-query throughput over a decoded
   snapshot: one pass with cold lazy indexes, one warm, written to
   BENCH_query.json.

   The [serve] selection is the query-serving load harness: a socket
   server over a snapshot cache, driven by N concurrent clients (1, 2, 4,
   8 by default) each streaming a seeded zipf mix of queries interleaved
   with [load key] hot-swaps between two snapshots. Every answer is
   checked byte-identical to a sequential simulation over the same
   engines, the per-run counters (served/errors/loads — deterministic for
   the fixed scripts) land in BENCH_serve.json next to qps and client-side
   latency percentiles, and --check-against diffs the deterministic
   fields against the committed baseline.

   The [incr] selection is the incremental smoke test: a cold solve, a
   warm re-solve of the unchanged program that must re-derive nothing, and
   a warm re-solve after a one-method monotone edit — gated to re-derive
   less than 25% of what the cold solve of the edited program derives.
   The deterministic counters land in BENCH_incr.json; --check-against
   diffs them leniently (fields absent from the committed baseline are
   skipped with a note, so the baseline can trail the bench).

   The [lint] selection times every lint rule over two solved synthetic
   benchmarks and writes the per-rule wall-clocks and finding counts to
   BENCH_lint.json.

   Usage:
     main.exe [fig1|fig4|fig5|fig6|fig7|figs|ablation|cache|query|serve|demand|incr|lint|micro|all]
              [--scale S] [--budget N] [--jobs N]
              [--clients N1,N2,...] [--cache-dir DIR] [--check-against FILE]
*)

module Flavors = Ipa_core.Flavors
module Experiments = Ipa_harness.Experiments

let usage () =
  prerr_endline
    "usage: main.exe [fig1|fig4|fig5|fig6|fig7|figs|ablation|cache|query|serve|demand|incr|lint|micro|all] [--scale S] [--budget N] [--jobs N] [--clients N1,N2,...] [--cache-dir DIR] [--check-against FILE]";
  exit 2

type selection =
  | Fig1
  | Fig4
  | Fig of Flavors.spec
  | Figs
  | Ablation
  | Cache_smoke
  | Query_bench
  | Serve_bench
  | Demand_bench
  | Incr_bench
  | Lint_bench
  | Micro
  | All

let parse_args () =
  let selection = ref All in
  let cfg = ref Ipa_harness.Config.default in
  let cache_dir = ref "_ipa_cache" in
  let check_against = ref None in
  let clients_list = ref [ 1; 2; 4; 8 ] in
  let rec go = function
    | [] -> ()
    | "fig1" :: rest ->
      selection := Fig1;
      go rest
    | "fig4" :: rest ->
      selection := Fig4;
      go rest
    | "fig5" :: rest ->
      selection := Fig (Flavors.Object_sens { depth = 2; heap = 1 });
      go rest
    | "fig6" :: rest ->
      selection := Fig (Flavors.Type_sens { depth = 2; heap = 1 });
      go rest
    | "fig7" :: rest ->
      selection := Fig (Flavors.Call_site { depth = 2; heap = 1 });
      go rest
    | "figs" :: rest ->
      selection := Figs;
      go rest
    | "ablation" :: rest ->
      selection := Ablation;
      go rest
    | "cache" :: rest ->
      selection := Cache_smoke;
      go rest
    | "--cache-dir" :: v :: rest ->
      cache_dir := v;
      go rest
    | "--check-against" :: v :: rest ->
      check_against := Some v;
      go rest
    | "query" :: rest ->
      selection := Query_bench;
      go rest
    | "serve" :: rest ->
      selection := Serve_bench;
      go rest
    | "demand" :: rest ->
      selection := Demand_bench;
      go rest
    | "incr" :: rest ->
      selection := Incr_bench;
      go rest
    | "--clients" :: v :: rest ->
      let ns = List.map int_of_string_opt (String.split_on_char ',' v) in
      if ns <> [] && List.for_all (function Some n -> n >= 1 | None -> false) ns then
        clients_list := List.filter_map Fun.id ns
      else usage ();
      go rest
    | "lint" :: rest ->
      selection := Lint_bench;
      go rest
    | "micro" :: rest ->
      selection := Micro;
      go rest
    | "all" :: rest ->
      selection := All;
      go rest
    | "--scale" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when s > 0.0 -> cfg := { !cfg with scale = s }
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
  (!selection, !cfg, !cache_dir, !check_against, !clients_list)

(* ---------- BENCH_solver.json ---------- *)

let json_path = "BENCH_solver.json"

let run_json (r : Experiments.run) =
  let c = r.counters in
  Printf.sprintf
    {|    {"bench": "%s", "analysis": "%s", "seconds": %.6f, "derivations": %d, "timed_out": %b,
     "counters": {"edges_added": %d, "edges_deduped": %d, "batches": %d, "batch_objs": %d, "max_batch": %d, "set_promotions": %d, "cycles_collapsed": %d, "nodes_merged": %d, "repropagations_avoided": %d}}|}
    r.bench r.analysis r.seconds r.derivations r.timed_out c.edges_added c.edges_deduped c.batches
    c.batch_objs c.max_batch c.set_promotions c.cycles_collapsed c.nodes_merged
    c.repropagations_avoided

let write_json (cfg : Ipa_harness.Config.t) (report : Experiments.report) =
  let runs =
    report.fig1 @ report.fig5 @ report.fig6 @ report.fig7 @ report.taint
  in
  let totals =
    List.fold_left
      (fun acc (r : Experiments.run) ->
        let c = r.counters in
        {
          Ipa_core.Solution.edges_added = acc.Ipa_core.Solution.edges_added + c.edges_added;
          edges_deduped = acc.edges_deduped + c.edges_deduped;
          batches = acc.batches + c.batches;
          batch_objs = acc.batch_objs + c.batch_objs;
          max_batch = max acc.max_batch c.max_batch;
          set_promotions = acc.set_promotions + c.set_promotions;
          cycles_collapsed = acc.cycles_collapsed + c.cycles_collapsed;
          nodes_merged = acc.nodes_merged + c.nodes_merged;
          repropagations_avoided = acc.repropagations_avoided + c.repropagations_avoided;
        })
      Ipa_core.Solution.zero_counters runs
  in
  let total_derivations =
    List.fold_left (fun acc (r : Experiments.run) -> acc + r.derivations) 0 runs
  in
  let total_seconds =
    List.fold_left (fun acc (r : Experiments.run) -> acc +. r.seconds) 0.0 runs
  in
  let derivations_per_second =
    if total_seconds > 0.0 then float_of_int total_derivations /. total_seconds else 0.0
  in
  let section name rs =
    Printf.sprintf "  \"%s\": [\n%s\n  ]" name (String.concat ",\n" (List.map run_json rs))
  in
  let body =
    String.concat ",\n"
      ([
         Printf.sprintf "  \"scale\": %g" cfg.scale;
         Printf.sprintf "  \"budget\": %d" cfg.budget;
         Printf.sprintf "  \"jobs\": %d" cfg.jobs;
         Printf.sprintf "  \"cores\": %d" (Domain.recommended_domain_count ());
         section "fig1" report.fig1;
         section "fig5" report.fig5;
         section "fig6" report.fig6;
         section "fig7" report.fig7;
         section "taint" report.taint;
       ]
      @ [
          Printf.sprintf
            "  \"totals\": {\"runs\": %d, \"derivations\": %d, \"edges_added\": %d, \
             \"edges_deduped\": %d, \"batches\": %d, \"batch_objs\": %d, \"max_batch\": %d, \
             \"set_promotions\": %d, \"cycles_collapsed\": %d, \"nodes_merged\": %d, \
             \"repropagations_avoided\": %d, \"derivations_per_second\": %.1f}"
            (List.length runs) total_derivations totals.edges_added totals.edges_deduped
            totals.batches totals.batch_objs totals.max_batch totals.set_promotions
            totals.cycles_collapsed totals.nodes_merged totals.repropagations_avoided
            derivations_per_second;
        ])
  in
  Out_channel.with_open_text json_path (fun oc ->
      Out_channel.output_string oc ("{\n" ^ body ^ "\n}\n"));
  Printf.printf "wrote %s (%d runs)\n%!" json_path (List.length runs);
  (* The cross-PR perf-trajectory summary. *)
  Printf.printf
    "summary: %d derivations in %.2fs solver time (%.0f derivations/s), %d batch objs, %d \
     repropagations avoided (%d cycles collapsed, %d nodes merged)\n%!"
    total_derivations total_seconds derivations_per_second totals.batch_objs
    totals.repropagations_avoided totals.cycles_collapsed totals.nodes_merged

(* ---------- regression gate against a committed BENCH_solver.json ---------- *)

(* The committed report is our own output, so a string scan of the totals
   object is dependable: find the "totals" key, then read the integer after
   the field name. *)
let find_substring haystack needle from =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    if i + nl > hl then None
    else if String.sub haystack i nl = needle then Some i
    else go (i + 1)
  in
  go from

let scan_total ~file ~contents field =
  let fail msg =
    prerr_endline (Printf.sprintf "bench check FAILED: %s: %s" file msg);
    exit 1
  in
  match find_substring contents "\"totals\"" 0 with
  | None -> fail "no totals object"
  | Some totals_at -> (
    match find_substring contents (Printf.sprintf "\"%s\":" field) totals_at with
    | None -> fail (Printf.sprintf "no %S field in totals" field)
    | Some at ->
      let i = ref (at + String.length field + 3) in
      let len = String.length contents in
      while !i < len && contents.[!i] = ' ' do
        incr i
      done;
      let start = !i in
      while !i < len && contents.[!i] >= '0' && contents.[!i] <= '9' do
        incr i
      done;
      if !i = start then fail (Printf.sprintf "field %S is not an integer" field)
      else int_of_string (String.sub contents start (!i - start)))

(* Tolerance bands: derivations are deterministic and semantic, so any
   growth at all is a real precision/semantics change; batch_objs is the
   propagation volume this PR exists to shrink, so a modest slack absorbs
   scheduling noise while still catching a regressed worklist or collapse. *)
let derivations_tolerance = 0.001
let batch_objs_tolerance = 0.10

let check_against ~file (report : Experiments.report) =
  let contents =
    match In_channel.with_open_text file In_channel.input_all with
    | s -> s
    | exception Sys_error msg ->
      prerr_endline ("bench check FAILED: cannot read baseline: " ^ msg);
      exit 1
  in
  let runs = report.fig1 @ report.fig5 @ report.fig6 @ report.fig7 @ report.taint in
  let fresh_derivations =
    List.fold_left (fun acc (r : Experiments.run) -> acc + r.derivations) 0 runs
  in
  let fresh_batch_objs =
    List.fold_left (fun acc (r : Experiments.run) -> acc + r.counters.batch_objs) 0 runs
  in
  let base_derivations = scan_total ~file ~contents "derivations" in
  let base_batch_objs = scan_total ~file ~contents "batch_objs" in
  let check name fresh base tolerance =
    let limit = int_of_float (ceil (float_of_int base *. (1.0 +. tolerance))) in
    Printf.printf "bench check: %s fresh %d vs committed %d (limit %d)\n%!" name fresh base limit;
    if fresh > limit then begin
      prerr_endline
        (Printf.sprintf "bench check FAILED: %s regressed beyond %.1f%%: %d > %d (committed %d)"
           name (100.0 *. tolerance) fresh limit base);
      exit 1
    end
  in
  check "derivations" fresh_derivations base_derivations derivations_tolerance;
  check "batch_objs" fresh_batch_objs base_batch_objs batch_objs_tolerance;
  print_endline "bench check OK: totals within tolerance of committed baseline"

let run_figs ?baseline cfg =
  let report = Experiments.compute_report cfg in
  Experiments.print_report cfg report;
  write_json cfg report;
  Option.iter (fun file -> check_against ~file report) baseline

(* ---------- BENCH_cache.json: cold vs warm differential ---------- *)

let cache_json_path = "BENCH_cache.json"

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

let stats_json (s : Ipa_harness.Cache.stats) =
  Printf.sprintf
    {|{"mem_hits": %d, "disk_hits": %d, "misses": %d, "stale": %d, "writes": %d, "write_conflicts": %d, "disk_errors": %d, "evictions": %d, "resident_bytes": %d}|}
    s.mem_hits s.disk_hits s.misses s.stale s.writes s.write_conflicts s.disk_errors s.evictions
    s.resident_bytes

let run_cache_smoke (cfg : Ipa_harness.Config.t) ~dir =
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
  let identical = reports_equal cold_report warm_report in
  let body =
    String.concat ",\n"
      [
        Printf.sprintf "  \"scale\": %g" cfg.scale;
        Printf.sprintf "  \"budget\": %d" cfg.budget;
        Printf.sprintf "  \"jobs\": %d" cfg.jobs;
        Printf.sprintf "  \"cold\": {\"seconds\": %.6f, \"stats\": %s}" cold_seconds
          (stats_json cold);
        Printf.sprintf "  \"warm\": {\"seconds\": %.6f, \"stats\": %s}" warm_seconds
          (stats_json warm);
        Printf.sprintf "  \"identical_tables\": %b" identical;
      ]
  in
  Out_channel.with_open_text cache_json_path (fun oc ->
      Out_channel.output_string oc ("{\n" ^ body ^ "\n}\n"));
  Printf.printf "wrote %s\n%!" cache_json_path;
  let fail msg =
    prerr_endline ("cache smoke FAILED: " ^ msg);
    exit 1
  in
  if not identical then fail "warm tables differ from cold tables";
  if warm.disk_hits = 0 then fail "warm run never hit the disk cache";
  if warm.misses > 0 then
    fail (Printf.sprintf "warm run re-solved %d shared first pass(es)" warm.misses);
  print_endline "cache smoke OK: warm run reused every shared first pass, tables identical"

(* ---------- BENCH_query.json: cold vs warm query-index throughput ---------- *)

let query_json_path = "BENCH_query.json"

(* A deterministic query mix covering every form, built from the program's
   own entity tables (capped per category so the mix size scales gently). *)
let query_mix program =
  let module P = Ipa_ir.Program in
  let cap = 250 in
  let take n of_i = List.init (min n cap) of_i in
  let var v = P.var_full_name program v in
  let heap h = P.heap_full_name program h in
  let meth m = P.meth_full_name program m in
  let invo i = (P.invo_info program i).invo_name in
  let n_vars = P.n_vars program and n_heaps = P.n_heaps program in
  let n_meths = P.n_meths program and n_invos = P.n_invos program in
  let instance_fields =
    List.filter
      (fun f -> not (P.field_info program f).is_static_field)
      (List.init (P.n_fields program) Fun.id)
  in
  List.concat
    [
      take n_vars (fun v -> Ipa_query.Query.Pts (var v));
      take n_heaps (fun h -> Ipa_query.Query.Pointed_by (heap h));
      take (max 0 (n_vars - 1)) (fun v -> Ipa_query.Query.Alias (var v, var (v + 1)));
      take n_invos (fun i -> Ipa_query.Query.Callees (invo i));
      take n_meths (fun m -> Ipa_query.Query.Callers (meth m));
      take (max 0 (n_meths - 7)) (fun m -> Ipa_query.Query.Reach (meth m, meth (m + 7)));
      (match instance_fields with
      | [] -> []
      | fields ->
        let fields = Array.of_list fields in
        take n_heaps (fun h ->
            Ipa_query.Query.Fieldpts
              (heap h, P.field_full_name program fields.(h mod Array.length fields))));
      [ Ipa_query.Query.Taint None; Ipa_query.Query.Stats ];
    ]

let run_query_bench (cfg : Ipa_harness.Config.t) =
  let spec = List.hd Ipa_synthetic.Dacapo.all in
  let program = Ipa_synthetic.Dacapo.build ~scale:cfg.scale spec in
  let result = Ipa_core.Analysis.run_plain ~budget:cfg.budget program Flavors.Insensitive in
  let module Snapshot = Ipa_core.Snapshot in
  let bytes =
    Snapshot.encode
      {
        Snapshot.key = "bench-query";
        program_digest = Snapshot.digest_program program;
        label = result.label;
        seconds = result.seconds;
        solution = result.solution;
        metrics = None;
      }
  in
  let queries = query_mix program in
  let n_queries = List.length queries in
  Printf.printf "query bench: %s at scale %g, %s: %d queries\n%!" spec.name cfg.scale result.label
    n_queries;
  (* Cold: a freshly decoded solution, so the first pass over the mix pays
     every lazy index build. Warm: the same engine again, indexes hot. *)
  let engine =
    match Snapshot.decode ~program bytes with
    | Error e -> failwith (Snapshot.error_to_string e)
    | Ok snap -> Ipa_query.Engine.create snap.solution
  in
  let time_round () =
    Ipa_support.Timer.time (fun () ->
        List.iter (fun q -> ignore (Ipa_query.Engine.eval engine q)) queries)
  in
  let (), cold_seconds = time_round () in
  let (), warm_seconds = time_round () in
  let qps secs = if secs > 0.0 then float_of_int n_queries /. secs else 0.0 in
  Printf.printf "cold  %.4fs  (%.0f queries/s)\n%!" cold_seconds (qps cold_seconds);
  Printf.printf "warm  %.4fs  (%.0f queries/s)\n%!" warm_seconds (qps warm_seconds);
  let body =
    String.concat ",\n"
      [
        Printf.sprintf "  \"scale\": %g" cfg.scale;
        Printf.sprintf "  \"budget\": %d" cfg.budget;
        Printf.sprintf "  \"bench\": \"%s\"" spec.name;
        Printf.sprintf "  \"analysis\": \"%s\"" result.label;
        Printf.sprintf "  \"n_queries\": %d" n_queries;
        Printf.sprintf "  \"cold\": {\"seconds\": %.6f, \"qps\": %.1f}" cold_seconds
          (qps cold_seconds);
        Printf.sprintf "  \"warm\": {\"seconds\": %.6f, \"qps\": %.1f}" warm_seconds
          (qps warm_seconds);
        Printf.sprintf "  \"warm_speedup\": %.2f"
          (if warm_seconds > 0.0 then cold_seconds /. warm_seconds else 0.0);
      ]
  in
  Out_channel.with_open_text query_json_path (fun oc ->
      Out_channel.output_string oc ("{\n" ^ body ^ "\n}\n"));
  Printf.printf "wrote %s\n%!" query_json_path

(* ---------- BENCH_serve.json: concurrent socket-serving load harness ---------- *)

let serve_json_path = "BENCH_serve.json"

(* Client c's request stream: a seeded zipf mix over the query corpus
   (hot queries dominate, the tail is long), interleaved with [load key]
   hot-swaps between the two snapshots every [swap_every] requests. The
   streams are fully deterministic — fixed seeds, no wall-clock input —
   so served/errors/loads are reproducible counters a drift gate can
   compare across machines. *)
let serve_swap_every = 40

let serve_requests_per_client = 320

(* Integer-weight zipf sampler: weight of rank r is ~1/r. *)
let zipf_pick rng cum total =
  let r = Ipa_support.Splitmix.int rng total in
  let n = Array.length cum in
  let rec bisect lo hi = (* first index with cum.(i) > r *)
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cum.(mid) > r then bisect lo mid else bisect (mid + 1) hi
  in
  bisect 0 (n - 1)

let client_script ~corpus ~keys c =
  let rng = Ipa_support.Splitmix.create (0xC0FFEE + (c * 7919)) in
  let n = Array.length corpus in
  let cum = Array.make n 0 in
  let total = ref 0 in
  for i = 0 to n - 1 do
    total := !total + (1_000_000 / (i + 1));
    cum.(i) <- !total
  done;
  List.init serve_requests_per_client (fun i ->
      if i > 0 && i mod serve_swap_every = 0 then
        (* alternate snapshots, staggered per client so swaps interleave *)
        Printf.sprintf "load key %s" keys.((((i / serve_swap_every) + c) mod Array.length keys))
      else corpus.(zipf_pick rng cum !total))

(* The expected byte-exact transcript of one client's session, replayed
   sequentially over private engines (mirroring the server's per-session
   views: a swap changes only this client's answers). *)
let expected_transcript ~program ~engines ~labels ~keys script =
  let current = ref 0 in
  List.map
    (fun line ->
      match Ipa_query.Query.tokens line with
      | Ok [ "load"; "key"; key ] ->
        let i = ref 0 in
        Array.iteri (fun j k -> if k = key then i := j) keys;
        current := !i;
        Printf.sprintf "load key %s: ok (%s)" (Ipa_query.Query.quote key) labels.(!current)
      | _ -> (
        match Ipa_query.Query.parse line with
        | Error e -> Ipa_query.Engine.render_error ~json:false ~q:line e
        | Ok q ->
          ignore program;
          Ipa_query.Engine.render_text q (Ipa_query.Engine.eval engines.(!current) q)))
    script

(* One lockstep client: write a request, read the answer, check it against
   the expected transcript, record the round-trip. Returns the latencies
   (us) or the first mismatch. *)
let run_client ~path ~script ~expected =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
  @@ fun () ->
  let rec connect tries =
    match Unix.connect sock (Unix.ADDR_UNIX path) with
    | () -> true
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when tries > 0 ->
      Unix.sleepf 0.02;
      connect (tries - 1)
    | exception Unix.Unix_error _ -> false
  in
  if not (connect 250) then Error "cannot connect"
  else begin
    let ic = Unix.in_channel_of_descr sock and oc = Unix.out_channel_of_descr sock in
    let latencies = ref [] in
    let mismatch = ref None in
    (try
       List.iter2
         (fun line want ->
           if !mismatch = None then begin
             let t0 = Ipa_support.Timer.now () in
             output_string oc line;
             output_char oc '\n';
             flush oc;
             let got = input_line ic in
             latencies := int_of_float ((Ipa_support.Timer.now () -. t0) *. 1e6) :: !latencies;
             if got <> want then
               mismatch := Some (Printf.sprintf "sent %S\n  want %S\n  got  %S" line want got)
           end)
         script expected;
       output_string oc "quit\n";
       flush oc
     with End_of_file | Sys_error _ -> mismatch := Some "server closed the connection early");
    match !mismatch with Some m -> Error m | None -> Ok !latencies
  end

let percentile_us sorted q =
  let n = Array.length sorted in
  if n = 0 then 0 else sorted.(min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1))

type serve_row = {
  clients : int;
  row_served : int;
  row_errors : int;
  row_loads : int;
  row_evictions : int;
  row_seconds : float;
  row_qps : float;
  row_p50_us : int;
  row_p99_us : int;
}

let serve_row_json r =
  Printf.sprintf
    {|    {"clients": %d, "served": %d, "errors": %d, "loads": %d, "evictions": %d, "seconds": %.6f, "qps": %.1f, "p50_us": %d, "p99_us": %d}|}
    r.clients r.row_served r.row_errors r.row_loads r.row_evictions r.row_seconds r.row_qps
    r.row_p50_us r.row_p99_us

(* Timing and schedule-dependent fields (wall-clock, qps, percentiles,
   evictions — the victim schedule depends on session interleaving) are
   stripped from both sides; the rest (served/errors/loads for the fixed
   scripts) must match the committed baseline exactly. *)
let strip_serve_timing line =
  let strip field line =
    match find_substring line (Printf.sprintf "\"%s\":" field) 0 with
    | None -> line
    | Some at ->
      let len = String.length line in
      let j = ref at in
      while !j < len && line.[!j] <> ',' && line.[!j] <> '}' do
        incr j
      done;
      let stop = if !j < len && line.[!j] = ',' then !j + 1 else !j in
      let stop = if stop < len && line.[stop] = ' ' then stop + 1 else stop in
      String.sub line 0 at ^ String.sub line stop (len - stop)
  in
  List.fold_left (fun l f -> strip f l) line [ "seconds"; "qps"; "p50_us"; "p99_us"; "evictions" ]

let check_serve_against ~file rows =
  let contents =
    match In_channel.with_open_text file In_channel.input_all with
    | s -> s
    | exception Sys_error msg ->
      prerr_endline ("bench check FAILED: cannot read baseline: " ^ msg);
      exit 1
  in
  match find_substring contents "\"rows\"" 0 with
  | None ->
    prerr_endline "bench check FAILED: baseline has no rows section";
    exit 1
  | Some section_at ->
    let missing = ref 0 in
    List.iter
      (fun r ->
        let key = Printf.sprintf {|{"clients": %d,|} r.clients in
        match find_substring contents key section_at with
        | None -> incr missing
        | Some at ->
          let line_end =
            match String.index_from_opt contents at '\n' with
            | Some i -> i
            | None -> String.length contents
          in
          let committed = String.trim (String.sub contents at (line_end - at)) in
          let committed =
            let n = String.length committed in
            if n > 0 && committed.[n - 1] = ',' then String.sub committed 0 (n - 1)
            else committed
          in
          let fresh = String.trim (serve_row_json r) in
          if strip_serve_timing fresh <> strip_serve_timing committed then begin
            prerr_endline
              (Printf.sprintf
                 "bench check FAILED: serve counters drifted at %d client(s)\n\
                 \  committed: %s\n\
                 \  fresh:     %s"
                 r.clients (strip_serve_timing committed) (strip_serve_timing fresh));
            exit 1
          end)
      rows;
    if !missing > 0 then
      Printf.printf
        "bench check: %d serve row(s) absent from baseline (new client count); skipped\n%!"
        !missing;
    print_endline "bench check OK: serve counters match the committed baseline"

let run_serve_bench (cfg : Ipa_harness.Config.t) ~clients_list ~baseline =
  let module Snapshot = Ipa_core.Snapshot in
  let spec = List.hd Ipa_synthetic.Dacapo.all in
  let program = Ipa_synthetic.Dacapo.build ~scale:cfg.scale spec in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ipa-serve-bench-%d" (Unix.getpid ()))
  in
  let fail msg =
    prerr_endline ("serve bench FAILED: " ^ msg);
    exit 1
  in
  (* Two snapshots of the same program — the base pass and a
     context-sensitive solve — published to a shared cache directory so
     the server can hot-load either by cache key. *)
  let solve_cache = Ipa_harness.Cache.create ~dir () in
  let program_digest = Snapshot.digest_program program in
  let configs =
    [
      ("insens", Ipa_core.Solver.plain program ~budget:cfg.budget (Flavors.strategy program Flavors.Insensitive));
      ( "2objH",
        Ipa_core.Solver.plain program ~budget:cfg.budget
          (Flavors.strategy program (Flavors.Object_sens { depth = 2; heap = 1 })) );
    ]
  in
  let solved =
    List.map
      (fun (label, config) ->
        ignore (Ipa_harness.Cache.solve solve_cache program ~label config);
        let key = Snapshot.config_key ~program_digest config in
        match Ipa_harness.Cache.find_bytes solve_cache ~key with
        | None -> fail (Printf.sprintf "snapshot %s not in cache after solve" label)
        | Some bytes -> (
          match Snapshot.decode ~program ~expect_key:key bytes with
          | Error e -> fail (Snapshot.error_to_string e)
          | Ok snap -> (key, label, String.length bytes, snap)))
      configs
  in
  let keys = Array.of_list (List.map (fun (k, _, _, _) -> k) solved) in
  let labels = Array.of_list (List.map (fun (_, l, _, _) -> l) solved) in
  let sizes = List.map (fun (_, _, s, _) -> s) solved in
  (* A budget below the working set: holding both snapshots resident is
     impossible, so the swap traffic exercises eviction + disk re-loads on
     the serving path (evictions are schedule-dependent under concurrency,
     so the drift gate ignores that column). *)
  let mem_budget = List.fold_left max 0 sizes + (List.fold_left min max_int sizes / 2) in
  let engines =
    Array.of_list
      (List.map
         (fun (_, _, _, (snap : Snapshot.t)) ->
           let e = Ipa_query.Engine.create snap.solution in
           Ipa_query.Engine.warm e;
           e)
         solved)
  in
  let corpus =
    Array.of_list (List.map Ipa_query.Query.to_string (query_mix program))
  in
  Printf.printf
    "serve bench: %s at scale %g; snapshots %s (%s bytes); corpus %d queries; %d requests/client\n%!"
    spec.name cfg.scale
    (String.concat ", " (Array.to_list labels))
    (String.concat ", " (List.map string_of_int sizes))
    (Array.length corpus) serve_requests_per_client;
  let max_clients = List.fold_left max 1 clients_list in
  let scripts = Array.init max_clients (fun c -> client_script ~corpus ~keys c) in
  let expected =
    Array.map (fun s -> expected_transcript ~program ~engines ~labels ~keys s) scripts
  in
  let jobs = max 2 (List.fold_left max cfg.jobs clients_list) in
  let rows =
    List.map
      (fun n ->
        (* A fresh server (and counters) per client count: the row's
           served/errors/loads depend only on the fixed scripts. *)
        let serve_cache = Ipa_harness.Cache.create ~dir ~mem_budget () in
        let path = Filename.concat dir (Printf.sprintf "serve-%d.sock" n) in
        let _, _, _, (snap0 : Snapshot.t) = List.hd solved in
        Ipa_support.Domain_pool.with_pool ~jobs (fun pool ->
            let server =
              Ipa_query.Server.create ~cache:serve_cache ~pool ~json:false ~timings:false
                ~program ~label:labels.(0) snap0.solution
            in
            let server_domain =
              Domain.spawn (fun () -> Ipa_query.Server.serve_socket server ~path)
            in
            let t0 = Ipa_support.Timer.now () in
            let client_domains =
              List.init n (fun c ->
                  Domain.spawn (fun () ->
                      run_client ~path ~script:scripts.(c) ~expected:expected.(c)))
            in
            let results = List.map Domain.join client_domains in
            let seconds = Ipa_support.Timer.now () -. t0 in
            Ipa_query.Server.request_stop server;
            (match Domain.join server_domain with
            | Ok () -> ()
            | Error msg -> fail ("server: " ^ msg));
            let latencies =
              List.concat_map
                (function
                  | Ok ls -> ls
                  | Error msg -> fail (Printf.sprintf "client answer drift (%d clients): %s" n msg))
                results
            in
            let sorted = Array.of_list latencies in
            Array.sort compare sorted;
            let stats = Ipa_harness.Cache.stats serve_cache in
            let row =
              {
                clients = n;
                row_served = Ipa_query.Server.served server;
                row_errors = Ipa_query.Server.errors server;
                row_loads = Ipa_query.Server.loads server;
                row_evictions = stats.evictions;
                row_seconds = seconds;
                row_qps =
                  (if seconds > 0.0 then float_of_int (List.length latencies) /. seconds else 0.0);
                row_p50_us = percentile_us sorted 0.50;
                row_p99_us = percentile_us sorted 0.99;
              }
            in
            Printf.printf
              "%d client(s): %d served (%d errors), %d loads, %d evictions, %.3fs, %.0f qps, p50 %dus, p99 %dus\n%!"
              n row.row_served row.row_errors row.row_loads row.row_evictions row.row_seconds
              row.row_qps row.row_p50_us row.row_p99_us;
            row))
      clients_list
  in
  let expected_served = List.map (fun n -> n * serve_requests_per_client) clients_list in
  List.iter2
    (fun row want ->
      if row.row_served <> want then
        fail
          (Printf.sprintf "%d client(s): served %d, expected %d" row.clients row.row_served want))
    rows expected_served;
  let body =
    String.concat ",\n"
      [
        Printf.sprintf "  \"scale\": %g" cfg.scale;
        Printf.sprintf "  \"budget\": %d" cfg.budget;
        Printf.sprintf "  \"bench\": \"%s\"" spec.name;
        Printf.sprintf "  \"snapshots\": [%s]"
          (String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%S") labels)));
        Printf.sprintf "  \"mem_budget\": %d" mem_budget;
        Printf.sprintf "  \"requests_per_client\": %d" serve_requests_per_client;
        Printf.sprintf "  \"rows\": [\n%s\n  ]"
          (String.concat ",\n" (List.map serve_row_json rows));
        "  \"identical_answers\": true";
      ]
  in
  Out_channel.with_open_text serve_json_path (fun oc ->
      Out_channel.output_string oc ("{\n" ^ body ^ "\n}\n"));
  Printf.printf "wrote %s\n%!" serve_json_path;
  (match baseline with
  | None -> ()
  | Some file -> check_serve_against ~file rows);
  print_endline
    "serve bench OK: every answer byte-identical to the sequential simulation, served counts exact"

(* ---------- BENCH_demand.json: slice-vs-full demand solving ---------- *)

let demand_json_path = "BENCH_demand.json"

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

let check_demand_against ~file fields =
  let fail msg =
    prerr_endline (Printf.sprintf "bench check FAILED: %s: %s" file msg);
    exit 1
  in
  let contents =
    match In_channel.with_open_text file In_channel.input_all with
    | s -> s
    | exception Sys_error msg -> fail ("cannot read baseline: " ^ msg)
  in
  let scan name =
    match find_substring contents (Printf.sprintf "\"%s\":" name) 0 with
    | None -> fail (Printf.sprintf "no %S field" name)
    | Some at ->
      let i = ref (at + String.length name + 3) in
      let len = String.length contents in
      while !i < len && contents.[!i] = ' ' do
        incr i
      done;
      let start = !i in
      while !i < len && contents.[!i] >= '0' && contents.[!i] <= '9' do
        incr i
      done;
      if !i = start then fail (Printf.sprintf "field %S is not an integer" name)
      else int_of_string (String.sub contents start (!i - start))
  in
  List.iter
    (fun (name, fresh) ->
      let committed = scan name in
      if fresh <> committed then
        fail
          (Printf.sprintf "%s drifted: fresh %d vs committed %d" name fresh committed)
      else Printf.printf "bench check: %s %d == committed\n%!" name fresh)
    fields;
  print_endline "bench check OK: demand counters match the committed baseline"

let run_demand_bench (cfg : Ipa_harness.Config.t) ~baseline =
  let module Solution = Ipa_core.Solution in
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
    failwith "demand bench: truncated solve unexpectedly completed";
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
              | None -> failwith "demand bench: corpus query not demand-eligible"
            in
            let after = (Ipa_query.Demand.stats demand).Ipa_query.Demand.slice_derivations in
            max_slice_derivations := max !max_slice_derivations (after - before);
            let expected = render q (Ipa_query.Engine.eval full_engine q) in
            let got = render q served.Ipa_query.Demand.result in
            if got <> expected then
              failwith
                (Printf.sprintf "demand bench: answer mismatch\n  full:   %s\n  demand: %s"
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
    failwith
      (Printf.sprintf "demand bench: expected %d warm slice hits, got %d" n_queries warm_hits);
  if !max_slice_derivations >= full_derivations then
    failwith
      (Printf.sprintf
         "demand bench: worst slice solve (%d derivations) not below the full solve (%d) — slicing saved nothing"
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
  let fields =
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
    ]
  in
  let body =
    String.concat ",\n"
      (List.concat
         [
           [
             Printf.sprintf "  \"scale\": %g" cfg.scale;
             Printf.sprintf "  \"bench\": \"%s\"" spec.name;
             Printf.sprintf "  \"analysis\": \"%s\"" full.label;
           ];
           List.map (fun (k, v) -> Printf.sprintf "  \"%s\": %d" k v) fields;
           [
             Printf.sprintf "  \"answers_identical\": true";
             Printf.sprintf "  \"derivations_ratio\": %.4f" ratio;
             Printf.sprintf "  \"demand_cold_seconds\": %.6f" cold_seconds;
             Printf.sprintf "  \"demand_warm_seconds\": %.6f" warm_seconds;
           ];
         ])
  in
  Out_channel.with_open_text demand_json_path (fun oc ->
      Out_channel.output_string oc ("{\n" ^ body ^ "\n}\n"));
  Printf.printf "wrote %s\n%!" demand_json_path;
  (match baseline with
  | None -> ()
  | Some file -> check_demand_against ~file fields);
  print_endline
    "demand bench OK: every demand answer byte-identical to the unbudgeted full solve"

(* ---------- BENCH_incr.json: incremental re-analysis ---------- *)

let incr_json_path = "BENCH_incr.json"

(* Lenient variant of the baseline diff: a field the committed file does
   not carry is skipped with a note instead of failing, so the committed
   baseline can trail a bench that grows new counters. A field both sides
   carry must still match exactly. *)
let check_incr_against ~file fields =
  let fail msg =
    prerr_endline (Printf.sprintf "bench check FAILED: %s: %s" file msg);
    exit 1
  in
  let contents =
    match In_channel.with_open_text file In_channel.input_all with
    | s -> s
    | exception Sys_error msg -> fail ("cannot read baseline: " ^ msg)
  in
  let scan name =
    match find_substring contents (Printf.sprintf "\"%s\":" name) 0 with
    | None -> None
    | Some at ->
      let i = ref (at + String.length name + 3) in
      let len = String.length contents in
      while !i < len && contents.[!i] = ' ' do
        incr i
      done;
      let start = !i in
      while !i < len && contents.[!i] >= '0' && contents.[!i] <= '9' do
        incr i
      done;
      if !i = start then fail (Printf.sprintf "field %S is not an integer" name)
      else Some (int_of_string (String.sub contents start (!i - start)))
  in
  let checked = ref 0 in
  List.iter
    (fun (name, fresh) ->
      match scan name with
      | None -> Printf.printf "bench check: %s absent from baseline, skipped\n%!" name
      | Some committed ->
        if fresh <> committed then
          fail
            (Printf.sprintf "%s drifted: fresh %d vs committed %d" name fresh committed)
        else begin
          incr checked;
          Printf.printf "bench check: %s %d == committed\n%!" name fresh
        end)
    fields;
  if !checked = 0 then fail "no field matched the committed baseline";
  print_endline "bench check OK: incremental counters match the committed baseline"

(* Snapshot bytes with the propagation counters and the derivation count
   zeroed. A warm solution differs from a cold one only in this phase
   accounting: seeding re-asserts the baseline facts without counting them,
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
  let module Comp = Ipa_core.Compositional_solver in
  let module Edits = Ipa_synthetic.Edits in
  let flavor = Flavors.Insensitive in
  let spec = List.hd Ipa_synthetic.Dacapo.all in
  let program = Ipa_synthetic.Dacapo.build ~scale:cfg.scale spec in
  (* 1. Cold solve of the base program. *)
  let cold = Analysis.run_plain program flavor in
  (* 2. Warm re-solve of the unchanged program: nothing is dirty, and the
     seeded solve re-derives nothing. *)
  let same, same_report =
    Analysis.run_incremental program ~base_program:program ~base_solution:cold.solution flavor
  in
  if same_report.Comp.fallback <> None then
    failwith "incr bench: unchanged-program re-solve fell back to a cold solve";
  if same_report.Comp.dirty_sccs <> [] then
    failwith "incr bench: unchanged-program re-solve found dirty components";
  if not (String.equal (canonical_warm program same.solution) (canonical_warm program cold.solution))
  then failwith "incr bench: unchanged-program re-solve differs from the cold solve";
  Printf.printf "incr bench: %s at scale %g, %s: %d derivations, %d component(s)\n%!"
    spec.name cfg.scale cold.label cold.solution.Solution.derivations same_report.Comp.n_sccs;
  Printf.printf "incr warm (unchanged): %d derivations\n%!" same.solution.Solution.derivations;
  (* 3. One-method monotone edit: warm re-solve from the baseline vs a
     cold solve of the edited program. The gate is the acceptance bar —
     the warm solve must re-derive under a quarter of the cold solve. *)
  let edits = Edits.pick ~kinds:Edits.monotone_kinds ~seed:42 ~n:1 program in
  (match edits with
  | [ e ] -> Printf.printf "incr edit: %s\n%!" (Edits.describe program e)
  | _ -> failwith "incr bench: expected exactly one edit");
  let edited = Edits.apply_all program edits in
  let edited_cold = Analysis.run_plain edited flavor in
  let warm, warm_report =
    Analysis.run_incremental edited ~base_program:program ~base_solution:cold.solution flavor
  in
  (match warm_report.Comp.fallback with
  | None -> ()
  | Some reason -> failwith ("incr bench: edited re-solve fell back cold: " ^ reason));
  if not (String.equal (canonical_warm edited warm.solution) (canonical_warm edited edited_cold.solution))
  then failwith "incr bench: edited warm re-solve differs from the cold solve";
  let cold_derivations = edited_cold.solution.Solution.derivations in
  let warm_derivations = warm.solution.Solution.derivations in
  if warm_derivations * 4 >= cold_derivations then
    failwith
      (Printf.sprintf
         "incr bench: warm re-solve derived %d of %d — not under the 25%% gate"
         warm_derivations cold_derivations);
  let ratio = float_of_int warm_derivations /. float_of_int cold_derivations in
  Printf.printf "incr warm (1 edit): %d derivations vs %d cold (%.3fx), %d of %d sccs dirty\n%!"
    warm_derivations cold_derivations ratio
    (List.length warm_report.Comp.dirty_sccs)
    warm_report.Comp.n_sccs;
  let fields =
    [
      ("n_sccs", same_report.Comp.n_sccs);
      ("cold_derivations", cold.solution.Solution.derivations);
      ("warm_same_derivations", same.solution.Solution.derivations);
      ("edit_dirty_sccs", List.length warm_report.Comp.dirty_sccs);
      ("edit_cold_derivations", cold_derivations);
      ("edit_warm_derivations", warm_derivations);
    ]
  in
  let body =
    String.concat ",\n"
      (List.concat
         [
           [
             Printf.sprintf "  \"scale\": %g" cfg.scale;
             Printf.sprintf "  \"bench\": \"%s\"" spec.name;
             Printf.sprintf "  \"analysis\": \"%s\"" cold.label;
           ];
           List.map (fun (k, v) -> Printf.sprintf "  \"%s\": %d" k v) fields;
           [
             Printf.sprintf "  \"answers_identical\": true";
             Printf.sprintf "  \"derivations_ratio\": %.4f" ratio;
             Printf.sprintf "  \"cold_seconds\": %.6f" cold.seconds;
             Printf.sprintf "  \"warm_seconds\": %.6f" warm.seconds;
           ];
         ])
  in
  Out_channel.with_open_text incr_json_path (fun oc ->
      Out_channel.output_string oc ("{\n" ^ body ^ "\n}\n"));
  Printf.printf "wrote %s\n%!" incr_json_path;
  (match baseline with
  | None -> ()
  | Some file -> check_incr_against ~file fields);
  print_endline
    "incr bench OK: warm re-solves byte-identical to cold, edit re-derivation under the 25% gate"

(* ---------- BENCH_lint.json: per-rule lint timings ---------- *)

let lint_json_path = "BENCH_lint.json"

let run_lint_bench (cfg : Ipa_harness.Config.t) =
  let module J = Ipa_support.Json in
  let specs =
    match Ipa_synthetic.Dacapo.all with
    | a :: b :: _ -> [ a; b ]
    | specs -> specs
  in
  let bench_entry (spec : Ipa_synthetic.Dacapo.spec) =
    let program = Ipa_synthetic.Dacapo.build ~scale:cfg.scale spec in
    let result = Ipa_core.Analysis.run_plain ~budget:cfg.budget program Flavors.Insensitive in
    let ctx = Ipa_lint.Lint.make_ctx ~solution:result.solution program in
    let findings, timings = Ipa_lint.Lint.run ctx in
    let lint_seconds =
      List.fold_left (fun a (t : Ipa_lint.Lint.timing) -> a +. t.seconds) 0. timings
    in
    Printf.printf "lint bench: %s at scale %g: %d finding(s)  (solve %.3fs, lint %.3fs)\n%!"
      spec.name cfg.scale (List.length findings) result.seconds lint_seconds;
    let id_width =
      List.fold_left
        (fun acc (t : Ipa_lint.Lint.timing) -> max acc (String.length t.rule_id))
        10 timings
    in
    List.iter
      (fun (t : Ipa_lint.Lint.timing) ->
        Printf.printf "  %-*s %8.4fs  %6d finding(s)\n%!" id_width t.rule_id t.seconds
          t.n_findings)
      timings;
    J.Obj
      [
        ("bench", J.Str spec.name);
        ("analysis", J.Str result.label);
        ("solve_seconds", J.Float result.seconds);
        ("lint_seconds", J.Float lint_seconds);
        ("n_findings", J.Int (List.length findings));
        ( "rules",
          J.List
            (List.map
               (fun (t : Ipa_lint.Lint.timing) ->
                 J.Obj
                   [
                     ("rule", J.Str t.rule_id);
                     ("seconds", J.Float t.seconds);
                     ("n_findings", J.Int t.n_findings);
                   ])
               timings) );
      ]
  in
  let doc =
    J.Obj
      [
        ("scale", J.Float cfg.scale);
        ("budget", J.Int cfg.budget);
        ("benches", J.List (List.map bench_entry specs));
      ]
  in
  Out_channel.with_open_text lint_json_path (fun oc ->
      Out_channel.output_string oc (J.to_string ~pretty:true doc ^ "\n"));
  Printf.printf "wrote %s\n%!" lint_json_path

(* ---------- Bechamel micro-benchmarks ---------- *)

let kernel_tests () =
  let open Bechamel in
  let intset_add =
    Test.make ~name:"int_set/add-mem-1k"
      (Staged.stage (fun () ->
           let s = Ipa_support.Int_set.create () in
           for i = 0 to 999 do
             ignore (Ipa_support.Int_set.add s (i * 7919))
           done;
           for i = 0 to 999 do
             ignore (Ipa_support.Int_set.mem s (i * 7919))
           done))
  in
  let intset_small =
    (* stays within the inline sorted-array representation *)
    Test.make ~name:"int_set/small-add-mem-6"
      (Staged.stage (fun () ->
           let s = Ipa_support.Int_set.create () in
           for i = 0 to 5 do
             ignore (Ipa_support.Int_set.add s (i * 7919))
           done;
           for i = 0 to 5 do
             ignore (Ipa_support.Int_set.mem s (i * 7919))
           done))
  in
  let interner =
    Test.make ~name:"interner/intern-1k"
      (Staged.stage (fun () ->
           let t = Ipa_support.Interner.create ~dummy:[||] () in
           for i = 0 to 999 do
             ignore (Ipa_support.Interner.intern t [| i; i + 1 |])
           done))
  in
  let pair_tbl =
    Test.make ~name:"pair_tbl/intern-1k"
      (Staged.stage (fun () ->
           let t = Ipa_support.Pair_tbl.create () in
           for i = 0 to 999 do
             ignore (Ipa_support.Pair_tbl.intern t i (i * 3))
           done))
  in
  let datalog_tc =
    (* Transitive closure of a 200-node chain: exercises the semi-naive
       engine's join machinery. *)
    Test.make ~name:"datalog/trans-closure-200"
      (Staged.stage (fun () ->
           let edge = Ipa_datalog.Relation.create ~name:"edge" ~arity:2 in
           let path = Ipa_datalog.Relation.create ~name:"path" ~arity:2 in
           for i = 0 to 198 do
             ignore (Ipa_datalog.Relation.add edge [| i; i + 1 |])
           done;
           let v i = Ipa_datalog.Rule.Var i in
           let base =
             Ipa_datalog.Rule.make ~n_vars:2 ~heads:[ (path, [| v 0; v 1 |]) ]
               ~body:[ (edge, [| v 0; v 1 |]) ] ()
           in
           let step =
             Ipa_datalog.Rule.make ~n_vars:3 ~heads:[ (path, [| v 0; v 2 |]) ]
               ~body:[ (edge, [| v 0; v 1 |]); (path, [| v 1; v 2 |]) ] ()
           in
           ignore (Ipa_datalog.Engine.fixpoint [ base; step ])))
  in
  let solver_small =
    let program = Ipa_synthetic.Dacapo.build ~scale:0.05 (List.hd Ipa_synthetic.Dacapo.all) in
    Test.make ~name:"solver/antlr-5pct-2objH"
      (Staged.stage (fun () ->
           ignore
             (Ipa_core.Analysis.run_plain program (Flavors.Object_sens { depth = 2; heap = 1 }))))
  in
  [ intset_add; intset_small; interner; pair_tbl; datalog_tc; solver_small ]

(* One Test.make per reproduced table/figure, at reduced scale so a
   Bechamel run stays tractable. Sequential (jobs = 1): Bechamel measures
   the iteration itself, and a pool inside the measured region would report
   wall-clock of a loaded machine. *)
let figure_tests () =
  let open Bechamel in
  let cfg =
    {
      Ipa_harness.Config.scale = 0.05;
      budget = 2_000_000;
      jobs = 1;
      (* memory-only: within one measured iteration the first pass is still
         deduplicated, but nothing escapes to disk *)
      cache = Ipa_harness.Cache.create ();
    }
  in
  let silent f =
    (* compute, discard printing *)
    fun () -> ignore (f ())
  in
  [
    Test.make ~name:"fig1/insens-vs-2objH"
      (Staged.stage (silent (fun () -> Experiments.Fig1.compute cfg)));
    Test.make ~name:"fig4/refinement-selection"
      (Staged.stage (silent (fun () -> Experiments.Fig4.compute cfg)));
    Test.make ~name:"fig5/2objH-introspective"
      (Staged.stage
         (silent (fun () ->
              Experiments.Figs567.compute cfg
                (Flavors.Object_sens { depth = 2; heap = 1 }))));
    Test.make ~name:"fig6/2typeH-introspective"
      (Staged.stage
         (silent (fun () ->
              Experiments.Figs567.compute cfg
                (Flavors.Type_sens { depth = 2; heap = 1 }))));
    Test.make ~name:"fig7/2callH-introspective"
      (Staged.stage
         (silent (fun () ->
              Experiments.Figs567.compute cfg
                (Flavors.Call_site { depth = 2; heap = 1 }))));
  ]

let run_bechamel () =
  let open Bechamel in
  let open Toolkit in
  print_endline "== Bechamel micro-benchmarks (ns per run, OLS estimate) ==";
  let tests = kernel_tests () @ figure_tests () in
  let instances = Instance.[ monotonic_clock ] in
  let benchmark_cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~stabilize:false ~kde:None ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all benchmark_cfg instances test in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      let name_width =
        Hashtbl.fold (fun name _ acc -> max acc (String.length name)) analyzed 28
      in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Printf.printf "  %-*s %12.1f ns/run\n%!" name_width name est
          | Some ests ->
            Printf.printf "  %-*s %s\n%!" name_width name
              (String.concat ", " (List.map (Printf.sprintf "%.1f") ests))
          | None -> Printf.printf "  %-*s (no estimate)\n%!" name_width name)
        analyzed)
    tests

let () =
  let selection, cfg, cache_dir, baseline, clients_list = parse_args () in
  (match selection with
  | Fig1 -> Experiments.Fig1.print cfg
  | Fig4 -> Experiments.Fig4.print cfg
  | Fig flavor -> Experiments.Figs567.print cfg flavor
  | Figs -> run_figs ?baseline cfg
  | All ->
    run_figs ?baseline cfg;
    Ipa_harness.Ablation.print_all cfg
  | Ablation -> Ipa_harness.Ablation.print_all cfg
  | Cache_smoke -> run_cache_smoke cfg ~dir:cache_dir
  | Query_bench -> run_query_bench cfg
  | Serve_bench -> run_serve_bench cfg ~clients_list ~baseline
  | Demand_bench -> run_demand_bench cfg ~baseline
  | Incr_bench -> run_incr_bench cfg ~baseline
  | Lint_bench -> run_lint_bench cfg
  | Micro -> ());
  match selection with Micro | All -> run_bechamel () | _ -> ()

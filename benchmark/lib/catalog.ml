(* The metric catalogue: every metric a run may report, with its unit and
   direction. The end-to-end and per-layer lists must match BENCHMARK.json
   at the repository root (a test checks it); [compare] reads the bounds
   from that file. *)

type def = { name : string; unit : string; better : Stat.better }

let d name unit better = { name; unit; better }

let workloads = [ "pipeline-cold"; "edit-chain"; "serve-swap"; "serve-demand" ]

(* What a user of each workload waits for, measured with tracing off. The
   "operation" is the workload's unit of work: one pass of the
   introspective pipeline over the three programs (pipeline-cold), one
   edit re-analysed under both flavors (edit-chain), one query (serve-*;
   [load] swaps count in throughput but are not queries). *)
let end_to_end =
  Stat.
    [
      d "setup_s" "s" Lower;
      d "latency_p50_ms" "ms" Lower;
      d "throughput_per_s" "1/s" Higher;
      d "peak_rss_mb" "MB" Lower;
    ]

(* Per-layer metrics, from the traced run. A layer a workload does not
   exercise reports 0. Counts are per unit of work and repeat exactly. *)
let layers =
  [ "frontend"; "solver"; "introspection"; "heuristics"; "snapshot"; "cache"; "incr"; "engine"; "demand" ]

let per_layer =
  List.map (fun l -> d (l ^ ".self_pct") "%" Stat.Lower) layers
  @ Stat.
      [
        d "frontend.parse_mb_per_s" "MB/s" Higher;
        d "solver.derivations" "count" Lower;
        d "solver.batch_objs" "count" Lower;
        d "solver.budget_exceeded" "count" Lower;
        d "solver.derivations_per_s" "1/s" Higher;
        d "heuristics.sites_skipped_pct" "%" Lower;
        d "heuristics.objects_skipped_pct" "%" Lower;
        d "snapshot.bytes" "B" Lower;
        d "snapshot.encode_mb_per_s" "MB/s" Higher;
        d "snapshot.decode_mb_per_s" "MB/s" Higher;
        d "cache.evictions" "count" Lower;
        d "incr.derivations" "count" Lower;
        d "incr.dirty_sccs" "count" Lower;
        d "incr.fallbacks" "count" Lower;
        d "incr.warm_over_cold" "ratio" Lower;
        d "engine.evals_per_s" "1/s" Higher;
        d "demand.hit_ratio" "ratio" Higher;
        d "demand.slice_derivations" "count" Lower;
        d "demand.slice_nodes" "count" Lower;
        d "server.overhead_pct" "%" Lower;
        d "gc.alloc_mwords_per_op" "MW" Lower;
        d "gc.major_collections_per_op" "count/op" Lower;
      ]

(* What one run reports. [extra] holds the detail metrics that only the
   human-readable output and the [run] result sets carry (per-phase times,
   per-form latencies, ...): (name, value, unit). *)
type report = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;  (** catalogue metrics *)
  extra : (string * float * string) list;
}

(* The last line of a run's standard output. *)
let result_line ~trace r =
  let defs = if trace then per_layer else end_to_end in
  let metric m =
    let v = Option.value ~default:0.0 (List.assoc_opt m.name r.values) in
    (m.name, Ipa_support.Json.Obj [ ("value", Float v); ("unit", Str m.unit) ])
  in
  Ipa_support.Json.to_string
    (Obj
       [
         ("correct", Bool r.correct);
         ("attempted", Int r.attempted);
         ("failed", Int r.failed);
         ("metrics", Obj (List.map metric defs));
       ])

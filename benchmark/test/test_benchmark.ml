(* Tests of the benchmark's own machinery: statistics, verdicts, trace
   self time, seeded inputs, the metric catalogue, a smoke run of every
   workload, and the rule that the benchmark names no sharding internals. *)

open Ipa_benchmark
module Json = Ipa_support.Json

let close a b = Float.abs (a -. b) < 1e-9
let floats n f = Array.init n (fun i -> f (i + 1))

(* ---------- percentiles ---------- *)

let test_percentile () =
  let xs = floats 100 float_of_int in
  Alcotest.(check (float 0.0)) "median" 50.0 (Stat.median xs);
  Alcotest.(check (float 0.0)) "p99" 99.0 (Stat.percentile xs 0.99);
  Alcotest.(check (float 0.0)) "p100" 100.0 (Stat.percentile xs 1.0);
  Alcotest.(check (float 0.0)) "one sample" 7.0 (Stat.percentile [| 7.0 |] 0.99)

let test_tail_rule () =
  let tail n = Stat.tail (floats n float_of_int) in
  (* 100 samples: p99 has one beyond it, p90 has ten *)
  Alcotest.(check (option (pair (float 0.0) (float 0.0)))) "n=100" (Some (0.9, 90.0)) (tail 100);
  Alcotest.(check (option (pair (float 0.0) (float 0.0)))) "n=1000" (Some (0.99, 990.0)) (tail 1000);
  Alcotest.(check (option (pair (float 0.0) (float 0.0)))) "n=20000" (Some (0.999, 19980.0)) (tail 20000);
  Alcotest.(check (option (pair (float 0.0) (float 0.0)))) "n=20" (Some (0.5, 10.0)) (tail 20);
  Alcotest.(check (option (pair (float 0.0) (float 0.0)))) "n=19" None (tail 19)

(* ---------- quartiles and verdicts ---------- *)

let test_quartiles () =
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Stat.quartiles (floats 10 float_of_int) in
  Alcotest.(check bool) "1..10" true (close q1 2.75 && close q2 5.5 && close q3 8.25);
  (* statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0] *)
  let q1, q2, q3 = Stat.quartiles [| 3.0; 1.0; 2.0 |] in
  Alcotest.(check bool) "three values" true (close q1 1.0 && close q2 2.0 && close q3 3.0);
  (* statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] *)
  let q1, q2, q3 = Stat.quartiles [| 1.0; 2.0 |] in
  Alcotest.(check bool) "two values" true (close q1 0.75 && close q2 1.5 && close q3 2.25)

let verdict ?(better = Stat.Lower) ~bound parent change =
  Stat.verdict_name (Stat.compare_runs ~better ~bound ~parent ~change).verdict

let test_verdicts () =
  let steady x = Array.init 10 (fun i -> x +. (0.001 *. float_of_int (i mod 3))) in
  Alcotest.(check string) "faster everywhere" "better" (verdict ~bound:0.1 (steady 10.0) (steady 8.0));
  Alcotest.(check string) "within the bound" "same" (verdict ~bound:0.1 (steady 10.0) (steady 10.5));
  Alcotest.(check string) "beyond the bound" "worse" (verdict ~bound:0.1 (steady 10.0) (steady 11.5));
  Alcotest.(check string) "higher is better" "worse"
    (verdict ~better:Stat.Higher ~bound:0.1 (steady 10.0) (steady 8.5));
  (* parent spread (q3 - q1 = 5.5) wider than the bound: not "same" *)
  let noisy = floats 10 (fun i -> 10.0 +. float_of_int i) in
  Alcotest.(check string) "noisy parent" "unresolved" (verdict ~bound:0.1 noisy noisy);
  (* ... unless every change run beats every parent run (here by less than
     the parent's spread, q3 - q1 = 5, so not "better" either) *)
  let skewed = Array.init 10 (fun i -> if i < 8 then 10.0 else 30.0) in
  Alcotest.(check string) "all better, but not by the spread" "same"
    (verdict ~bound:0.1 skewed (Array.make 10 9.9));
  (* winning nine pairs in ten is required for "better" *)
  let change = Array.mapi (fun i x -> if i < 2 then x +. 1.0 else x -. 3.0) (steady 10.0) in
  Alcotest.(check string) "eight wins of ten" "same" (verdict ~bound:0.5 (steady 10.0) change);
  (* ... and so are ten pairs *)
  let nine x = Array.sub (steady x) 0 9 in
  Alcotest.(check string) "nine pairs only" "unresolved" (verdict ~bound:0.1 (nine 10.0) (nine 8.0))

(* [compare] pairs runs by seed, whatever order the files came in. *)
let run ~workload ~seed v =
  {
    Results.workload;
    seed;
    trace = false;
    report = { Catalog.correct = true; attempted = 1; failed = 0; values = [ ("latency_p50_ms", v) ]; extra = [] };
  }

let test_compare_pairs_by_seed () =
  let bounds =
    [ { Regress.name = "latency_p50_ms"; unit = "ms"; better = Stat.Lower; bound = 0.1 } ]
  in
  (* seeds differ a lot from each other; the change is faster on every seed *)
  let parent = List.init 10 (fun s -> run ~workload:"edit-chain" ~seed:s (100.0 +. (10.0 *. float_of_int s))) in
  let change =
    List.rev (List.init 10 (fun s -> run ~workload:"edit-chain" ~seed:s (99.0 +. (10.0 *. float_of_int s))))
  in
  (match Regress.verdicts ~bounds ~parent ~change with
  | [ r ] ->
    Alcotest.(check string) "workload" "edit-chain" r.workload;
    Alcotest.(check int) "pairs" 10 r.result.pairs;
    Alcotest.(check int) "every seed won" 10 r.result.wins
  | rows -> Alcotest.failf "%d rows" (List.length rows));
  (* a seed on one side only is left out *)
  let extra = run ~workload:"edit-chain" ~seed:42 1.0 in
  let pairs, unpaired = Regress.pair_by_seed parent (extra :: change) in
  Alcotest.(check int) "paired" 10 (List.length pairs);
  Alcotest.(check int) "unpaired" 1 unpaired;
  Alcotest.(check bool) "same seeds" true (List.for_all (fun ((p : Results.run), (c : Results.run)) -> p.seed = c.seed) pairs)

(* ---------- trace self time ---------- *)

let span id parent layer start stop =
  { Trace.id; parent; name = layer; layer; unit_id = 0; start; stop }

let test_self_time () =
  let spans =
    [
      span 0 (-1) "bench" 0.0 10.0;
      span 1 0 "solver" 1.0 6.0;
      span 2 1 "snapshot" 2.0 3.0;
      span 3 1 "snapshot" 4.0 4.5;
      span 4 0 "cache" 7.0 9.0;
      span 5 (-1) "check" 20.0 30.0;
    ]
  in
  let self = Trace.layer_self spans in
  let get l = List.assoc l self in
  Alcotest.(check bool) "bench" true (close (get "bench") 3.0);
  Alcotest.(check bool) "solver" true (close (get "solver") 3.5);
  Alcotest.(check bool) "snapshot" true (close (get "snapshot") 1.5);
  Alcotest.(check bool) "cache" true (close (get "cache") 2.0);
  let inside = Trace.within ~root:(fun s -> s.Trace.id = 1) spans in
  Alcotest.(check (list int)) "subtree" [ 1; 2; 3 ] (List.map (fun s -> s.Trace.id) inside)

let test_recorder () =
  Trace.enable ();
  let v =
    Trace.span ~layer:"a" "outer" (fun () -> Trace.span ~layer:"b" "inner" (fun () -> 41) + 1)
  in
  (try Trace.span ~layer:"c" "raises" (fun () -> failwith "boom") with Failure _ -> ());
  let spans = Trace.spans () in
  Alcotest.(check int) "value" 42 v;
  Alcotest.(check (list string)) "start order" [ "outer"; "inner"; "raises" ]
    (List.map (fun s -> s.Trace.name) spans);
  Alcotest.(check (list int)) "parents" [ -1; 0; -1 ] (List.map (fun s -> s.Trace.parent) spans);
  Alcotest.(check bool) "nested in time" true
    (match spans with
    | [ o; i; _ ] -> o.start <= i.start && i.stop <= o.stop
    | _ -> false)

(* ---------- seeded inputs ---------- *)

let requests ~seed ~corpus n =
  let s = Inputs.stream ~seed ~corpus ~conn:0 ~n_keys:2 ~swap_every:100 in
  List.init n (fun _ -> Inputs.request_line ~keys:[| "k0"; "k1" |] (Inputs.next_request s))

let test_seed_determinism () =
  let p = Inputs.parse (Inputs.jir ~scale:0.02 "jython") in
  let p' = Inputs.parse (Inputs.jir ~scale:0.02 "jython") in
  let corpus seed p = Inputs.swap_corpus ~seed p in
  Alcotest.(check (list string)) "same seed, same script"
    (requests ~seed:1 ~corpus:(corpus 1 p) 500)
    (requests ~seed:1 ~corpus:(corpus 1 p') 500);
  Alcotest.(check bool) "another seed, another script" true
    (requests ~seed:1 ~corpus:(corpus 1 p) 500 <> requests ~seed:2 ~corpus:(corpus 2 p) 500);
  let edits seed = Inputs.edits ~seed ~n:10 p in
  Alcotest.(check bool) "same seed, same edits" true (edits 3 = edits 3);
  Alcotest.(check bool) "another seed, other edits" true (edits 3 <> edits 4);
  let distinct c = List.sort_uniq compare (List.concat_map (fun qs -> List.map snd (Array.to_list qs)) (Array.to_list c.Inputs.forms)) in
  Alcotest.(check (list string)) "the seed orders the demand corpus, not its queries"
    (distinct (Inputs.demand_corpus ~seed:1 p))
    (distinct (Inputs.demand_corpus ~seed:2 p));
  Alcotest.(check bool) "demand corpus fits the assumed working set" true
    (Inputs.corpus_size (Inputs.demand_corpus ~seed:1 p) <= 4 * Inputs.demand_per_form)

(* ---------- the catalogue matches BENCHMARK.json ---------- *)

let test_catalogue () =
  let bench =
    match Results.read "../../BENCHMARK.json" with Ok j -> j | Error e -> Alcotest.fail e
  in
  let listed key =
    match Json.member key bench with
    | Some (List ms) ->
      List.map
        (fun m ->
          let s k = Option.get (Option.bind (Json.member k m) Json.to_str) in
          (s "name", s "unit", s "better"))
        ms
    | _ -> Alcotest.fail ("BENCHMARK.json has no " ^ key)
  in
  let ours defs =
    List.map
      (fun (d : Catalog.def) ->
        (d.name, d.unit, match d.better with Stat.Lower -> "lower" | Stat.Higher -> "higher"))
      defs
  in
  Alcotest.(check (list (triple string string string))) "end_to_end" (ours Catalog.end_to_end)
    (listed "end_to_end");
  Alcotest.(check (list (triple string string string))) "per_layer" (ours Catalog.per_layer)
    (listed "per_layer");
  let workloads =
    match Json.member "workloads" bench with
    | Some (List ws) -> List.map (fun w -> Option.get (Option.bind (Json.member "name" w) Json.to_str)) ws
    | _ -> []
  in
  Alcotest.(check (list string)) "workloads" Catalog.workloads workloads

(* ---------- no sharding internals ---------- *)

let forbidden =
  [
    "shards"; "sync_rounds"; "deltas_exchanged"; "cross_shard"; "default_strategy"; "refined_strategy";
    "collapse_cycles"; "field_sensitive"; "Solver.budget"; "Solver.order"; "Solver.refine";
  ]

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_no_sharding_internals () =
  let files dir = Sys.readdir dir |> Array.to_list |> List.map (Filename.concat dir) in
  let sources =
    List.filter
      (fun f -> Filename.check_suffix f ".ml" || Filename.basename f = "dune" || Filename.check_suffix f ".md")
      (files ".." @ files "../lib")
  in
  Alcotest.(check bool) "sources found" true (List.length sources >= 8);
  List.iter
    (fun f ->
      let text = In_channel.with_open_bin f In_channel.input_all in
      List.iter
        (fun w -> if contains text w then Alcotest.failf "%s mentions %s" f w)
        forbidden)
    sources

(* ---------- smoke run of every workload ---------- *)

let test_smoke () =
  let work = "smoke-work" in
  Common.mkdir_p work;
  List.iter
    (fun w ->
      let out = Filename.concat work (w ^ ".out") in
      let cmd =
        Printf.sprintf "../main.exe --workload %s --seed 3 --seconds 0.3 --trace 1 --quick --work %s > %s"
          w work out
      in
      Alcotest.(check int) (w ^ " exits 0") 0 (Sys.command cmd);
      let lines = In_channel.with_open_text out In_channel.input_lines in
      let last = List.nth lines (List.length lines - 1) in
      match Json.of_string last with
      | Ok j ->
        Alcotest.(check bool) (w ^ " correct") true (Json.member "correct" j = Some (Json.Bool true));
        Alcotest.(check bool) (w ^ " reports every per-layer metric") true
          (List.for_all
             (fun (d : Catalog.def) ->
               match Json.member "metrics" j with
               | Some m -> Json.member d.name m <> None
               | None -> false)
             Catalog.per_layer);
        Alcotest.(check bool) (w ^ " wrote its trace") true
          (Sys.file_exists (Filename.concat work ("trace-" ^ w ^ ".jsonl")))
      | Error e -> Alcotest.failf "%s: last line is not JSON (%s): %s" w e last)
    Catalog.workloads;
  Common.remove_tree work

let () =
  Alcotest.run "benchmark"
    [
      ( "stat",
        [
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "ten samples beyond" `Quick test_tail_rule;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "verdicts" `Quick test_verdicts;
          Alcotest.test_case "compare pairs by seed" `Quick test_compare_pairs_by_seed;
        ] );
      ( "trace",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "recorder" `Quick test_recorder;
        ] );
      ("inputs", [ Alcotest.test_case "seed determinism" `Quick test_seed_determinism ]);
      ( "contract",
        [
          Alcotest.test_case "catalogue matches BENCHMARK.json" `Quick test_catalogue;
          Alcotest.test_case "no sharding internals" `Quick test_no_sharding_internals;
        ] );
      ("smoke", [ Alcotest.test_case "all workloads, quick" `Quick test_smoke ]);
    ]

(* Domain_pool unit tests, and determinism of the parallel experiment
   harness: any --jobs must produce results identical to --jobs 1. *)

module Pool = Ipa_support.Domain_pool
module E = Ipa_harness.Experiments
module Config = Ipa_harness.Config
module Flavors = Ipa_core.Flavors

let check = Alcotest.check

(* ---------- Domain_pool ---------- *)

let test_pool_ordering () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let input = Array.init 100 Fun.id in
      let out = Pool.map pool (fun x -> x * x) input in
      check (Alcotest.array Alcotest.int) "ordered" (Array.map (fun x -> x * x) input) out;
      check (Alcotest.list Alcotest.int) "map_list" [ 2; 4; 6 ]
        (Pool.map_list pool (fun x -> 2 * x) [ 1; 2; 3 ]);
      check (Alcotest.list Alcotest.int) "empty" [] (Pool.map_list pool Fun.id []);
      check (Alcotest.list Alcotest.int) "singleton" [ 9 ] (Pool.map_list pool Fun.id [ 9 ]))

let test_pool_uneven_tasks () =
  (* Unequal task durations must not reorder results. *)
  Pool.with_pool ~jobs:3 (fun pool ->
      let out =
        Pool.map_list pool
          (fun x ->
            let spin = if x mod 3 = 0 then 100_000 else 10 in
            let acc = ref 0 in
            for i = 1 to spin do
              acc := (!acc + (i * x)) land max_int
            done;
            x)
          (List.init 30 Fun.id)
      in
      check (Alcotest.list Alcotest.int) "input order" (List.init 30 Fun.id) out)

exception Boom of int

let test_pool_exception () =
  Pool.with_pool ~jobs:4 (fun pool ->
      (* the lowest-index failure wins, whatever finishes first *)
      match Pool.map pool (fun x -> if x mod 2 = 1 then raise (Boom x) else x) (Array.init 10 Fun.id) with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom n -> check Alcotest.int "lowest failing index" 1 n);
  (* the pool survives a failing batch *)
  Pool.with_pool ~jobs:2 (fun pool ->
      (match Pool.map_list pool (fun x -> if x = 0 then raise (Boom 0) else x) [ 0; 1 ] with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom _ -> ());
      check (Alcotest.list Alcotest.int) "usable after failure" [ 1; 2 ]
        (Pool.map_list pool Fun.id [ 1; 2 ]))

let test_pool_reuse () =
  let pool = Pool.create ~jobs:2 in
  check Alcotest.int "jobs" 2 (Pool.jobs pool);
  for round = 1 to 5 do
    let out = Pool.map_list pool (fun x -> x + round) [ 10; 20; 30 ] in
    check (Alcotest.list Alcotest.int)
      (Printf.sprintf "round %d" round)
      [ 10 + round; 20 + round; 30 + round ]
      out
  done;
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  Alcotest.check_raises "map after shutdown"
    (Invalid_argument "Domain_pool.map: pool is shut down") (fun () ->
      ignore (Pool.map_list pool Fun.id [ 1 ]))

let test_pool_sequential () =
  (* jobs = 1 spawns no domains and runs inline. *)
  let pool = Pool.create ~jobs:1 in
  let on_caller = ref true in
  let caller = Domain.self () in
  let out =
    Pool.map_list pool
      (fun x ->
        if Domain.self () <> caller then on_caller := false;
        x * 2)
      [ 1; 2; 3 ]
  in
  check (Alcotest.list Alcotest.int) "results" [ 2; 4; 6 ] out;
  check Alcotest.bool "ran inline" true !on_caller;
  Pool.shutdown pool;
  Alcotest.check_raises "jobs < 1" (Invalid_argument "Domain_pool.create: jobs must be >= 1")
    (fun () -> ignore (Pool.create ~jobs:0))

(* ---------- harness determinism ---------- *)

(* Each call gets its own (memory-only) cache, so the jobs=1 and jobs=4
   runs being compared never share solved state. *)
let tiny jobs : Config.t =
  { scale = 0.02; budget = 2_000_000; jobs; cache = Ipa_harness.Cache.create () }

(* Everything except wall-clock must match the sequential run exactly:
   bench, analysis, derivations, timeout flags, precision, taint counts,
   and the solver counters. *)
let strip (r : E.run) = { r with seconds = 0.0 }

let same_runs name a b =
  check Alcotest.bool (name ^ ": runs identical modulo seconds") true
    (List.map strip a = List.map strip b);
  (* and so are the rendered table rows once the time cell is masked *)
  let row (r : E.run) = E.run_to_row (strip r) in
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    (name ^ ": rows identical")
    (List.map row a) (List.map row b)

let test_fig1_deterministic () =
  same_runs "fig1" (E.Fig1.compute (tiny 1)) (E.Fig1.compute (tiny 4))

let test_figs567_deterministic () =
  let obj2 = Flavors.Object_sens { depth = 2; heap = 1 } in
  same_runs "fig5" (E.Figs567.compute (tiny 1) obj2) (E.Figs567.compute (tiny 4) obj2)

let test_fig4_deterministic () =
  let a = E.Fig4.compute (tiny 1) and b = E.Fig4.compute (tiny 4) in
  check Alcotest.bool "fig4 rows identical" true (a = b)

let test_taint_deterministic () =
  same_runs "taint" (E.Taint_study.compute (tiny 1)) (E.Taint_study.compute (tiny 4))

(* ---------- cold-cache publish race ---------- *)

module Cache = Ipa_harness.Cache

(* Four domains race to fill the same cold on-disk cache with the same
   shared first pass. Concurrent misses may each solve (wasted work, never
   wrong results), but the temp-file + hard-link publish admits exactly one
   writer — the key must never be double-written — and every task must get
   the same solution a sequential cold run produces. *)
let test_cold_cache_race () =
  Ipa_testlib.with_temp_dir (fun dir ->
      let build () =
        Ipa_synthetic.Dacapo.build ~scale:0.02
          (Option.get (Ipa_synthetic.Dacapo.find "chart"))
      in
      let cache = Cache.create ~dir () in
      let results =
        Pool.with_pool ~jobs:4 (fun pool ->
            Pool.map_list pool
              (fun _ -> fst (Cache.base_pass cache ~budget:0 (build ())))
              [ 0; 1; 2; 3 ])
      in
      let s = Cache.stats cache in
      check Alcotest.int "exactly one writer" 1 s.writes;
      check Alcotest.int "every task served" 4 (s.mem_hits + s.disk_hits + s.misses);
      check Alcotest.int "nothing stale" 0 s.stale;
      let snaps =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".snap")
      in
      check Alcotest.int "one snapshot on disk" 1 (List.length snaps);
      (* identical to a sequential cold solve, for every racing task *)
      let seq, _ = Cache.base_pass (Cache.create ()) ~budget:0 (build ()) in
      let canon = Ipa_testlib.canon_native seq.solution in
      List.iteri
        (fun i (r : Ipa_core.Analysis.result) ->
          check
            (Alcotest.list Alcotest.string)
            (Printf.sprintf "task %d relations" i)
            canon
            (Ipa_testlib.canon_native r.solution);
          check Alcotest.int
            (Printf.sprintf "task %d derivations" i)
            seq.solution.derivations r.solution.derivations)
        results)

let () =
  Alcotest.run "parallel"
    [
      ( "domain_pool",
        [
          Alcotest.test_case "ordering" `Quick test_pool_ordering;
          Alcotest.test_case "uneven tasks" `Quick test_pool_uneven_tasks;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
          Alcotest.test_case "reuse and shutdown" `Quick test_pool_reuse;
          Alcotest.test_case "sequential inline" `Quick test_pool_sequential;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "fig1 jobs=4" `Slow test_fig1_deterministic;
          Alcotest.test_case "figs567 jobs=4" `Slow test_figs567_deterministic;
          Alcotest.test_case "fig4 jobs=4" `Slow test_fig4_deterministic;
          Alcotest.test_case "taint jobs=4" `Slow test_taint_deterministic;
        ] );
      ("cache race", [ Alcotest.test_case "cold publish, jobs=4" `Quick test_cold_cache_race ]);
    ]

(* Golden regression tests: exact, deterministic result counts on generated
   benchmarks at a fixed scale. Derivation counts, relation sizes, and every
   precision metric are fully deterministic (no wall-clock dependence), so
   any change here is a semantic change to the solver, the motifs, or the
   metrics — which must be deliberate. Update the table when one is. *)

module F = Ipa_core.Flavors

let check = Alcotest.check

type gold = {
  bench : string;
  flavor : F.spec;
  derivations : int;
  vpt : int;
  poly : int;
  reach : int;
  casts : int;
  uncaught : int;
  cg : int;
}

let insens = F.Insensitive
let obj2 = F.Object_sens { depth = 2; heap = 1 }
let call2 = F.Call_site { depth = 2; heap = 1 }
let type2 = F.Type_sens { depth = 2; heap = 1 }

let table =
  [
    (* bench, flavor, derivations, vpt, poly, reach, casts, uncaught, cg *)
    ("chart", insens, 4606, 3630, 26, 277, 13, 2, 496);
    ("chart", obj2, 7307, 6437, 2, 250, 0, 2, 345);
    ("chart", call2, 15648, 14695, 2, 250, 0, 2, 345);
    ("chart", type2, 4295, 3470, 2, 250, 2, 2, 345);
    ("hsqldb", insens, 22382, 20200, 17, 496, 7, 1, 932);
    ("hsqldb", obj2, 190982, 188463, 1, 481, 0, 1, 873);
    ("hsqldb", call2, 365979, 363051, 1, 481, 0, 1, 873);
    ("hsqldb", type2, 22259, 20136, 1, 481, 0, 1, 873);
  ]
  |> List.map (fun (bench, flavor, derivations, vpt, poly, reach, casts, uncaught, cg) ->
         { bench; flavor; derivations; vpt; poly; reach; casts; uncaught; cg })

let test_golden () =
  let programs = Hashtbl.create 4 in
  List.iter
    (fun g ->
      let p =
        match Hashtbl.find_opt programs g.bench with
        | Some p -> p
        | None ->
          let p =
            Ipa_synthetic.Dacapo.build ~scale:0.1
              (Option.get (Ipa_synthetic.Dacapo.find g.bench))
          in
          Hashtbl.add programs g.bench p;
          p
      in
      let r = Ipa_core.Analysis.run_plain p g.flavor in
      let prec = Ipa_core.Precision.compute r.solution in
      let st = Ipa_core.Solution.stats r.solution in
      let label what = Printf.sprintf "%s/%s %s" g.bench (F.to_string g.flavor) what in
      check Alcotest.int (label "derivations") g.derivations r.solution.derivations;
      check Alcotest.int (label "vpt") g.vpt st.vpt_tuples;
      check Alcotest.int (label "poly") g.poly prec.poly_vcalls;
      check Alcotest.int (label "reach") g.reach prec.reachable_methods;
      check Alcotest.int (label "casts") g.casts prec.may_fail_casts;
      check Alcotest.int (label "uncaught") g.uncaught prec.uncaught_exceptions;
      check Alcotest.int (label "cg") g.cg prec.call_edges)
    table

(* ---------- cache differential ---------- *)

(* A cache-hit run must be indistinguishable from a cold run: byte-identical
   context-decoded relations (canon_native also self-checks each solution,
   so every deserialized solution passes [Solution.self_check]), identical
   derivation counts, counters and stored metrics. *)

module Cache = Ipa_harness.Cache
module Analysis = Ipa_core.Analysis

let chart () =
  Ipa_synthetic.Dacapo.build ~scale:0.1 (Option.get (Ipa_synthetic.Dacapo.find "chart"))

let test_cache_differential () =
  Ipa_testlib.with_temp_dir (fun dir ->
      let p = chart () in
      let flavors = [ insens; obj2; call2; type2 ] in
      let solve cache f =
        Cache.solve cache p ~label:(F.to_string f)
          (Ipa_core.Solver.plain p (F.strategy p f))
      in
      let cold_cache = Cache.create ~dir () in
      let cold = List.map (solve cold_cache) flavors in
      let cs = Cache.stats cold_cache in
      check Alcotest.int "cold misses" 4 cs.misses;
      check Alcotest.int "cold writes" 4 cs.writes;
      check Alcotest.int "cold hits" 0 (cs.mem_hits + cs.disk_hits);
      (* a process-fresh cache over the same directory: all disk hits *)
      let warm_cache = Cache.create ~dir () in
      let warm = List.map (solve warm_cache) flavors in
      let ws = Cache.stats warm_cache in
      check Alcotest.int "warm disk hits" 4 ws.disk_hits;
      check Alcotest.int "warm misses" 0 ws.misses;
      List.iter2
        (fun ((a : Analysis.result), ma) ((b : Analysis.result), mb) ->
          let name what = Printf.sprintf "%s %s" a.label what in
          check
            (Alcotest.list Alcotest.string)
            (name "relations")
            (Ipa_testlib.canon_native a.solution)
            (Ipa_testlib.canon_native b.solution);
          check Alcotest.int (name "derivations") a.solution.derivations b.solution.derivations;
          check Alcotest.bool (name "counters") true (a.solution.counters = b.solution.counters);
          check Alcotest.bool (name "metrics") true (ma = mb);
          (* the snapshot's stored metrics match a recomputation over the
             deserialized solution *)
          check Alcotest.bool (name "metrics recomputable") true
            (Ipa_core.Introspection.compute b.solution = mb))
        cold warm;
      (* within one cache, a repeated solve is a memory hit with the same
         content *)
      let again, _ = solve warm_cache insens in
      check Alcotest.int "mem hit" 1 (Cache.stats warm_cache).mem_hits;
      check
        (Alcotest.list Alcotest.string)
        "mem hit relations"
        (Ipa_testlib.canon_native (fst (List.hd cold)).solution)
        (Ipa_testlib.canon_native again.solution))

let test_cache_introspective_differential () =
  Ipa_testlib.with_temp_dir (fun dir ->
      let p = chart () in
      let direct = Analysis.run_introspective p obj2 Ipa_core.Heuristics.default_a in
      (* publish the base pass, then rebuild it from disk in a fresh cache *)
      ignore (Cache.base_pass (Cache.create ~dir ()) ~budget:0 p);
      let warm = Cache.create ~dir () in
      let base = Cache.base_pass warm ~budget:0 p in
      check Alcotest.int "base from disk" 1 (Cache.stats warm).disk_hits;
      let cached = Analysis.run_introspective ~base p obj2 Ipa_core.Heuristics.default_a in
      check Alcotest.bool "selection" true (direct.selection = cached.selection);
      check Alcotest.int "second-pass derivations" direct.second.solution.derivations
        cached.second.solution.derivations;
      check
        (Alcotest.list Alcotest.string)
        "second-pass relations"
        (Ipa_testlib.canon_native direct.second.solution)
        (Ipa_testlib.canon_native cached.second.solution))

(* Both passes through the snapshot cache, as [serve --cache-dir] runs an
   introspective request: a fresh cache over the same directory answers
   the base and the refined pass from disk without re-solving either. *)
let test_cache_introspective_second_pass () =
  Ipa_testlib.with_temp_dir (fun dir ->
      let p = chart () in
      let h = Ipa_core.Heuristics.default_b in
      let direct = Analysis.run_introspective p obj2 h in
      let through cache =
        let solve ~label config = fst (Cache.solve cache p ~label config) in
        Analysis.run_introspective ~base:(Cache.base_pass cache ~budget:0 p) ~solve p obj2 h
      in
      let cold = Cache.create ~dir () in
      let first = through cold in
      check Alcotest.int "cold writes base and second pass" 2 (Cache.stats cold).writes;
      let warm = Cache.create ~dir () in
      let again = through warm in
      check Alcotest.int "warm disk hits" 2 (Cache.stats warm).disk_hits;
      check Alcotest.int "warm misses" 0 (Cache.stats warm).misses;
      List.iter
        (fun (name, (ir : Analysis.introspective)) ->
          check Alcotest.string (name ^ " label") direct.second.label ir.second.label;
          check
            (Alcotest.list Alcotest.string)
            (name ^ " second-pass relations")
            (Ipa_testlib.canon_native direct.second.solution)
            (Ipa_testlib.canon_native ir.second.solution))
        [ ("cold", first); ("warm", again) ])

let () =
  Alcotest.run "golden"
    [
      ("counts", [ Alcotest.test_case "frozen benchmark results" `Quick test_golden ]);
      ( "cache differential",
        [
          Alcotest.test_case "hit equals cold, all flavors" `Quick test_cache_differential;
          Alcotest.test_case "introspective from cached base" `Quick
            test_cache_introspective_differential;
          Alcotest.test_case "introspective second pass cached" `Quick
            test_cache_introspective_second_pass;
        ] );
    ]

(* Tests for the synthetic benchmark generator: determinism, well-formedness,
   scaling, and that each motif induces the analysis behavior it is
   engineered for. *)

module P = Ipa_ir.Program
module Dacapo = Ipa_synthetic.Dacapo
module World = Ipa_synthetic.World
module Motifs = Ipa_synthetic.Motifs
module Analysis = Ipa_core.Analysis
module Flavors = Ipa_core.Flavors
module Precision = Ipa_core.Precision

let check = Alcotest.check

let insens = Flavors.Insensitive
let obj2 = Flavors.Object_sens { depth = 2; heap = 1 }
let call2 = Flavors.Call_site { depth = 2; heap = 1 }
let type2 = Flavors.Type_sens { depth = 2; heap = 1 }

let derivs p flavor = (Analysis.run_plain p flavor).solution.derivations

let test_determinism () =
  List.iter
    (fun (spec : Dacapo.spec) ->
      let p1 = Dacapo.build ~scale:0.03 spec in
      let p2 = Dacapo.build ~scale:0.03 spec in
      check Alcotest.string (spec.name ^ " deterministic") (Ipa_ir.Pretty.program p1)
        (Ipa_ir.Pretty.program p2))
    Dacapo.all

let test_all_build_and_analyze () =
  List.iter
    (fun (spec : Dacapo.spec) ->
      (* Builder.finish runs the Wf checker, so building is already a
         validity test; also make sure a small analysis completes. *)
      let p = Dacapo.build ~scale:0.02 spec in
      check Alcotest.bool (spec.name ^ " nonempty") true (P.n_meths p > 10);
      let r = Analysis.run_plain p insens in
      check Alcotest.bool (spec.name ^ " completes") false r.timed_out)
    Dacapo.all

let test_scale_monotone () =
  let spec = Option.get (Dacapo.find "eclipse") in
  let small = Dacapo.build ~scale:0.02 spec in
  let larger = Dacapo.build ~scale:0.06 spec in
  check Alcotest.bool "more classes" true (P.n_classes larger > P.n_classes small);
  check Alcotest.bool "more heaps" true (P.n_heaps larger > P.n_heaps small)

let test_suite_lists () =
  check Alcotest.int "nine benchmarks" 9 (List.length Dacapo.all);
  check Alcotest.int "seven hard" 7 (List.length Dacapo.hard);
  check Alcotest.int "six charted" 6 (List.length Dacapo.charted);
  check Alcotest.bool "pmd hard but not charted" true
    (List.exists (fun (s : Dacapo.spec) -> s.name = "pmd") Dacapo.hard
    && not (List.exists (fun (s : Dacapo.spec) -> s.name = "pmd") Dacapo.charted));
  check Alcotest.bool "find miss" true (Dacapo.find "quake" = None)

(* ---------- motif behavior ---------- *)

let build_motif f =
  let w = World.create () in
  f w;
  World.finish w

let test_factory_boxes_precision () =
  let n = 8 in
  let p = build_motif (fun w -> Motifs.factory_boxes w ~n) in
  let base = Precision.compute (Analysis.run_plain p insens).solution in
  let full = Precision.compute (Analysis.run_plain p obj2).solution in
  (* each client has one conflated cast and two polymorphic sites insens *)
  check Alcotest.int "insens casts" n base.may_fail_casts;
  check Alcotest.int "full casts" 0 full.may_fail_casts;
  check Alcotest.bool "insens poly" true (base.poly_vcalls >= 2 * n);
  check Alcotest.int "full poly" 0 full.poly_vcalls;
  check Alcotest.bool "spurious reachable" true
    (base.reachable_methods > full.reachable_methods)

let test_bulk_boxes_separate_heuristics () =
  let p = build_motif (fun w -> Motifs.factory_boxes w ~n:6 ~junk:120) in
  let flavor = obj2 in
  let a = Ipa_core.Analysis.run_introspective p flavor Ipa_core.Heuristics.default_a in
  let b = Ipa_core.Analysis.run_introspective p flavor Ipa_core.Heuristics.default_b in
  let pa = Precision.compute a.second.solution in
  let pb = Precision.compute b.second.solution in
  (* A flags the bulky setter sites and loses the casts; B keeps them. *)
  check Alcotest.int "A loses casts" 6 pa.may_fail_casts;
  check Alcotest.int "B keeps casts" 0 pb.may_fail_casts

let test_mega_hub_blowup () =
  let p =
    build_motif (fun w -> Motifs.mega_hub w ~items:150 ~users:40 ~chain:2)
  in
  let base = derivs p insens in
  let full = derivs p obj2 in
  check Alcotest.bool "hub blows up under 2objH" true (full > 5 * base);
  (* and type-sensitivity collapses it (users allocated in Main) *)
  check Alcotest.bool "2typeH collapses" true (derivs p type2 < 2 * base)

let test_dispatch_storm_blowup () =
  let p =
    build_motif (fun w -> Motifs.dispatch_storm w ~wrappers:25 ~payload:60 ~depth:5)
  in
  let base = derivs p insens in
  let callsite = derivs p call2 in
  let objsens = derivs p obj2 in
  check Alcotest.bool "2callH blows up" true (callsite > 4 * base);
  check Alcotest.bool "2objH immune" true (objsens < 2 * base)

let test_interp_loop_blowup () =
  let small = build_motif (fun w -> Motifs.interp_loop w ~ops:20 ~vals:3 ~steps:4) in
  let large = build_motif (fun w -> Motifs.interp_loop w ~ops:40 ~vals:3 ~steps:4) in
  let s = derivs small obj2 and l = derivs large obj2 in
  (* doubling the opcode count should much more than double the cost *)
  check Alcotest.bool "superlinear" true (l > 3 * s);
  (* context-insensitively it stays roughly linear *)
  let si = derivs small insens and li = derivs large insens in
  check Alcotest.bool "insens linear-ish" true (li < 3 * si)

let test_interp_families () =
  let tight = build_motif (fun w -> Motifs.interp_loop w ~ops:30 ~vals:3 ~steps:4 ~family:1) in
  let coarse = build_motif (fun w -> Motifs.interp_loop w ~ops:30 ~vals:3 ~steps:4 ~family:5) in
  (* families coarsen type contexts but not object contexts *)
  check Alcotest.bool "type cheaper with families" true
    (derivs coarse type2 < derivs tight type2);
  let o1 = derivs tight obj2 and o2 = derivs coarse obj2 in
  check Alcotest.bool "object cost unaffected" true
    (float_of_int (abs (o1 - o2)) < 0.25 *. float_of_int o1)

let test_typed_users () =
  let plain = build_motif (fun w -> Motifs.mega_hub w ~items:120 ~users:30 ~chain:1) in
  let typed =
    build_motif (fun w -> Motifs.mega_hub w ~items:120 ~users:1 ~typed_users:30 ~chain:1)
  in
  (* typed users make even type-sensitivity pay per user *)
  check Alcotest.bool "typed users hit 2typeH" true
    (derivs typed type2 > 3 * derivs plain type2)

let test_exceptional_precision () =
  let n = 7 in
  let p = build_motif (fun w -> Motifs.exceptional w ~n) in
  let base = Precision.compute (Analysis.run_plain p insens).solution in
  let full = Precision.compute (Analysis.run_plain p obj2).solution in
  check Alcotest.int "insens conflated casts" n base.may_fail_casts;
  check Alcotest.int "full casts" 0 full.may_fail_casts;
  (* the panic path is genuinely uncaught under every analysis *)
  check Alcotest.int "insens uncaught" n base.uncaught_exceptions;
  check Alcotest.int "full uncaught" n full.uncaught_exceptions

let test_ballast_cheap () =
  let p = build_motif (fun w -> Motifs.ballast w ~n:300) in
  check Alcotest.bool "many heaps" true (P.n_heaps p >= 600);
  check Alcotest.bool "cheap everywhere" true (derivs p obj2 < 10_000)

let test_chains_and_listeners () =
  let p = build_motif (fun w -> Motifs.chains w ~n:5 ~depth:4; Motifs.listeners w ~n:6) in
  let base = Precision.compute (Analysis.run_plain p insens).solution in
  let full = Precision.compute (Analysis.run_plain p obj2).solution in
  (* listener dispatch is irreducibly polymorphic: context cannot help *)
  check Alcotest.int "poly equal" base.poly_vcalls full.poly_vcalls;
  check Alcotest.bool "at least one poly site" true (full.poly_vcalls >= 1)

let test_invalid_args () =
  let expect_invalid f =
    let w = World.create () in
    match f w with
    | _ -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  expect_invalid (fun w -> Motifs.chains w ~n:1 ~depth:0);
  expect_invalid (fun w -> Motifs.factory_boxes w ~n:0);
  expect_invalid (fun w -> Motifs.mega_hub w ~items:0 ~users:1 ~chain:1);
  expect_invalid (fun w -> Motifs.dispatch_storm w ~wrappers:0 ~payload:1 ~depth:1);
  expect_invalid (fun w -> Motifs.interp_loop w ~ops:1 ~vals:0 ~steps:1);
  expect_invalid (fun w -> Motifs.ballast w ~n:(-1))

let () =
  Alcotest.run "synthetic"
    [
      ( "suite",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "build and analyze" `Quick test_all_build_and_analyze;
          Alcotest.test_case "scale monotone" `Quick test_scale_monotone;
          Alcotest.test_case "lists" `Quick test_suite_lists;
        ] );
      ( "motifs",
        [
          Alcotest.test_case "factory boxes precision" `Quick test_factory_boxes_precision;
          Alcotest.test_case "bulk boxes split heuristics" `Quick
            test_bulk_boxes_separate_heuristics;
          Alcotest.test_case "mega hub blowup" `Quick test_mega_hub_blowup;
          Alcotest.test_case "dispatch storm blowup" `Quick test_dispatch_storm_blowup;
          Alcotest.test_case "interp loop blowup" `Quick test_interp_loop_blowup;
          Alcotest.test_case "interp families" `Quick test_interp_families;
          Alcotest.test_case "typed users" `Quick test_typed_users;
          Alcotest.test_case "exceptional precision" `Quick test_exceptional_precision;
          Alcotest.test_case "ballast cheap" `Quick test_ballast_cheap;
          Alcotest.test_case "chains and listeners" `Quick test_chains_and_listeners;
          Alcotest.test_case "invalid arguments" `Quick test_invalid_args;
        ] );
    ]

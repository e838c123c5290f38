(* Tests for the introspection machinery: the six cost metrics (hand-computed
   expectations), heuristic threshold boundaries, selection statistics, and
   the two-pass driver. *)

module P = Ipa_ir.Program
module Analysis = Ipa_core.Analysis
module Introspection = Ipa_core.Introspection
module Heuristics = Ipa_core.Heuristics
module Refine = Ipa_core.Refine
module Flavors = Ipa_core.Flavors
module Solution = Ipa_core.Solution
module Int_set = Ipa_support.Int_set

let check = Alcotest.check

(* A small program with exactly computable metrics (see the comments below
   for the expected points-to sets). *)
let src = {|
class Object { }
class A extends Object { field f; }
class Main {
  static method main/0 () {
    var x, y, b;
    x = new A;
    x = new A;
    y = new A;
    b = new A;
    b.f = x;
    y = Main::id(x);
  }
  static method id/1 (p) { return p; }
}
entry Main::main/0;
|}
(* insens points-to:
     x = {h0, h1}          y = {h2, h0, h1}        b = {h3}
     p = {h0, h1}          id$ret = {h0, h1}       fpt(h3, f) = {h0, h1} *)

let setup () =
  let p = Ipa_testlib.parse_exn src in
  let base = Analysis.run_plain p Flavors.Insensitive in
  let m = Introspection.compute base.solution in
  (p, base, m)

let meth p name =
  let rec go i =
    if (P.meth_info p i).meth_name = name then i
    else go (i + 1)
  in
  go 0

let test_metric_in_flow () =
  let p, _, m = setup () in
  (* the only call site passes x with |pts(x)| = 2 *)
  check Alcotest.int "invos" 1 (P.n_invos p);
  check Alcotest.int "in-flow" 2 m.in_flow.(0)

let test_metric_volume () =
  let p, _, m = setup () in
  check Alcotest.int "main volume" 6 m.meth_total_volume.(meth p "main");
  check Alcotest.int "id volume" 4 m.meth_total_volume.(meth p "id");
  check Alcotest.int "main max var" 3 m.meth_max_var.(meth p "main");
  check Alcotest.int "id max var" 2 m.meth_max_var.(meth p "id")

let test_metric_fields () =
  let _, _, m = setup () in
  check Alcotest.int "h3 total field" 2 m.obj_total_field.(3);
  check Alcotest.int "h3 max field" 2 m.obj_max_field.(3);
  check Alcotest.int "h0 no fields" 0 m.obj_total_field.(0)

let test_metric_max_var_field () =
  let p, _, m = setup () in
  (* main's b points to h3 whose max field set is 2 *)
  check Alcotest.int "main" 2 m.meth_max_var_field.(meth p "main");
  check Alcotest.int "id" 0 m.meth_max_var_field.(meth p "id")

let test_metric_pointed_by () =
  let _, _, m = setup () in
  check Alcotest.int "h0 pbv" 4 m.pointed_by_vars.(0) (* x, y, p, $ret *);
  check Alcotest.int "h1 pbv" 4 m.pointed_by_vars.(1);
  check Alcotest.int "h2 pbv" 1 m.pointed_by_vars.(2) (* y *);
  check Alcotest.int "h3 pbv" 1 m.pointed_by_vars.(3) (* b *);
  check Alcotest.int "h0 pbo" 1 m.pointed_by_objs.(0) (* (h3, f) *);
  check Alcotest.int "h3 pbo" 0 m.pointed_by_objs.(3)

(* ---------- heuristic threshold boundaries (strict >) ---------- *)

let skips base m h =
  match Heuristics.select base.Analysis.solution m h with
  | Refine.None_ -> Alcotest.fail "select returns All_except"
  | Refine.All_except { skip_objects; skip_sites } ->
    (Int_set.to_sorted_list skip_objects, Int_set.cardinal skip_sites)

let test_heuristic_a_objects () =
  let _, base, m = setup () in
  let objs k = fst (skips base m (Heuristics.A { k; l = 1000; m = 1000 })) in
  check (Alcotest.list Alcotest.int) "k=3 flags h0,h1" [ 0; 1 ] (objs 3);
  check (Alcotest.list Alcotest.int) "k=4 strict" [] (objs 4);
  check (Alcotest.list Alcotest.int) "k=0 flags all pointed" [ 0; 1; 2; 3 ] (objs 0)

let test_heuristic_a_sites () =
  let _, base, m = setup () in
  let sites l mm = snd (skips base m (Heuristics.A { k = 1000; l; m = mm })) in
  check Alcotest.int "l=1 flags" 1 (sites 1 1000);
  check Alcotest.int "l=2 strict" 0 (sites 2 1000);
  (* metric 4 path: id's max var-field is 0, so even m=0 only fires via
     in-flow... m = -1 would flag, but the metric is >= 0, so use 0 > -1 *)
  check Alcotest.int "m very low" 1 (sites 1000 (-1))

let test_heuristic_b () =
  let _, base, m = setup () in
  let sel p q = skips base m (Heuristics.B { p; q }) in
  check Alcotest.int "p=3 flags id site" 1 (snd (sel 3 1000));
  check Alcotest.int "p=4 strict" 0 (snd (sel 4 1000));
  check (Alcotest.list Alcotest.int) "q=1 flags h3" [ 3 ] (fst (sel 1000 1));
  check (Alcotest.list Alcotest.int) "q=2 strict" [] (fst (sel 1000 2))

(* ---------- the paper's default constants, pinned exactly ---------- *)

(* Hand-built metrics place one entity exactly at each default threshold
   and one just above it, so these tests freeze both the strict-[>]
   semantics and the shipped constants: K/L/M = 100/100/200 for Heuristic A,
   P/Q = 10000/10000 for Heuristic B. The program has a single call site,
   (invo 0 -> id), and four allocation sites. *)
let blank_metrics p : Introspection.t =
  {
    in_flow = Array.make (P.n_invos p) 0;
    meth_total_volume = Array.make (P.n_meths p) 0;
    meth_max_var = Array.make (P.n_meths p) 0;
    obj_total_field = Array.make (P.n_heaps p) 0;
    obj_max_field = Array.make (P.n_heaps p) 0;
    meth_max_var_field = Array.make (P.n_meths p) 0;
    pointed_by_vars = Array.make (P.n_heaps p) 0;
    pointed_by_objs = Array.make (P.n_heaps p) 0;
  }

let test_default_a_constants () =
  let p, base, _ = setup () in
  let id = meth p "id" in
  let objs m = fst (skips base m Heuristics.default_a) in
  let sites m = snd (skips base m Heuristics.default_a) in
  (* K = 100: an object pointed by exactly 100 variables is still refined *)
  let pbv n =
    let m = blank_metrics p in
    m.pointed_by_vars.(0) <- n;
    m
  in
  check (Alcotest.list Alcotest.int) "pointed-by-vars 100 refined" [] (objs (pbv 100));
  check (Alcotest.list Alcotest.int) "pointed-by-vars 101 skipped" [ 0 ] (objs (pbv 101));
  (* L = 100: argument in-flow at the call site *)
  let inflow n =
    let m = blank_metrics p in
    m.in_flow.(0) <- n;
    m
  in
  check Alcotest.int "in-flow 100 refined" 0 (sites (inflow 100));
  check Alcotest.int "in-flow 101 skipped" 1 (sites (inflow 101));
  (* M = 200: the callee's max var-field points-to *)
  let mvf n =
    let m = blank_metrics p in
    m.meth_max_var_field.(id) <- n;
    m
  in
  check Alcotest.int "max var-field 200 refined" 0 (sites (mvf 200));
  check Alcotest.int "max var-field 201 skipped" 1 (sites (mvf 201))

let test_default_b_constants () =
  let p, base, _ = setup () in
  let id = meth p "id" in
  let objs m = fst (skips base m Heuristics.default_b) in
  let sites m = snd (skips base m Heuristics.default_b) in
  (* P = 10000: the callee's total points-to volume *)
  let vol n =
    let m = blank_metrics p in
    m.meth_total_volume.(id) <- n;
    m
  in
  check Alcotest.int "volume 10000 refined" 0 (sites (vol 10000));
  check Alcotest.int "volume 10001 skipped" 1 (sites (vol 10001));
  (* Q = 10000: the total-field x pointed-by-vars product *)
  let product a b =
    let m = blank_metrics p in
    m.obj_total_field.(0) <- a;
    m.pointed_by_vars.(0) <- b;
    m
  in
  check (Alcotest.list Alcotest.int) "product 100x100 refined" [] (objs (product 100 100));
  check (Alcotest.list Alcotest.int) "product 10001x1 skipped" [ 0 ] (objs (product 10001 1));
  check (Alcotest.list Alcotest.int) "product 2x5001 skipped" [ 0 ] (objs (product 2 5001))

let test_default_constants_literal () =
  (* the shipped defaults ARE the paper's constants *)
  match (Heuristics.default_a, Heuristics.default_b) with
  | Heuristics.A { k = 100; l = 100; m = 200 }, Heuristics.B { p = 10000; q = 10000 } -> ()
  | _ -> Alcotest.fail "default heuristic constants drifted from the paper's"

let test_selection_stats () =
  let _, base, m = setup () in
  let refine = Heuristics.select base.solution m (Heuristics.A { k = 3; l = 1; m = 1000 }) in
  let st = Heuristics.selection_stats base.solution refine in
  check Alcotest.int "sites skipped" 1 st.sites_skipped;
  check Alcotest.int "sites total" 1 st.sites_total;
  check Alcotest.int "objects skipped" 2 st.objects_skipped;
  check Alcotest.int "objects total" 4 st.objects_total;
  check (Alcotest.float 0.001) "pct sites" 100.0 (Heuristics.pct_sites st);
  check (Alcotest.float 0.001) "pct objects" 50.0 (Heuristics.pct_objects st)

let test_heuristic_names () =
  check Alcotest.string "A name" "IntroA" (Heuristics.name Heuristics.default_a);
  check Alcotest.string "B name" "IntroB" (Heuristics.name Heuristics.default_b);
  check Alcotest.string "A str" "IntroA(K=100,L=100,M=200)"
    (Heuristics.to_string Heuristics.default_a);
  check Alcotest.string "B str" "IntroB(P=10000,Q=10000)"
    (Heuristics.to_string Heuristics.default_b)

(* ---------- the paper's Datalog metric queries agree ---------- *)

(* Objects with two non-empty fields of different sizes, so a field metric
   that confuses the total with the max shows. *)
let fields_src = {|
class Object { }
class A extends Object { field f; field g; }
class Main {
  static method main/0 () {
    var x, y, b, c;
    x = new A;
    x = new A;
    y = new A;
    b = new A;
    c = new A;
    b.f = x;
    b.g = y;
    c.f = y;
    c.g = b;
    Main::use(c);
  }
  static method use/1 (p) { var q; q = p.g; }
}
entry Main::main/0;
|}

let test_datalog_metric_queries () =
  (* Execute §3's in-flow query (and the analogues of the other five
     metrics, both variants of volume and field points-to) on the Datalog
     engine over the reference backend's result, and compare with the
     native Introspection computation. *)
  let two_fields = ref 0 in
  List.iter
    (fun p ->
      let base = Analysis.run_plain p Flavors.Insensitive in
      let native = Introspection.compute base.solution in
      let strategy = Ipa_core.Flavors.strategy p Flavors.Insensitive in
      let d = Ipa_core.Datalog_backend.run_plain p strategy in
      let agree what query expected =
        let tbl = query p d in
        Array.iteri
          (fun i expected ->
            check Alcotest.int (Printf.sprintf "%s %d" what i) expected
              (Option.value ~default:0 (Hashtbl.find_opt tbl i)))
          expected
      in
      agree "in-flow" Ipa_core.Datalog_metrics.in_flow native.in_flow;
      agree "volume" Ipa_core.Datalog_metrics.meth_total_volume native.meth_total_volume;
      agree "max var" Ipa_core.Datalog_metrics.meth_max_var native.meth_max_var;
      agree "total field" Ipa_core.Datalog_metrics.obj_total_field native.obj_total_field;
      agree "max field" Ipa_core.Datalog_metrics.obj_max_field native.obj_max_field;
      agree "max var-field" Ipa_core.Datalog_metrics.meth_max_var_field native.meth_max_var_field;
      agree "pbv" Ipa_core.Datalog_metrics.pointed_by_vars native.pointed_by_vars;
      agree "pbo" Ipa_core.Datalog_metrics.pointed_by_objs native.pointed_by_objs;
      Array.iteri
        (fun h total -> if total > native.obj_max_field.(h) then incr two_fields)
        native.obj_total_field)
    [
      Ipa_testlib.parse_exn src;
      Ipa_testlib.parse_exn fields_src;
      Ipa_testlib.parse_exn Ipa_testlib.boxes_src;
      Ipa_testlib.random_program 600;
      Ipa_testlib.random_program 601;
    ];
  check Alcotest.bool "objects with two non-empty fields compared" true (!two_fields > 0)

(* ---------- hard-coded static policies ---------- *)

let test_static_policy () =
  let prefix pre name =
    String.length name >= String.length pre && String.sub name 0 (String.length pre) = pre
  in
  let spec = Option.get (Ipa_synthetic.Dacapo.find "hsqldb") in
  let p = Ipa_synthetic.Dacapo.build ~scale:0.3 spec in
  let budget = 1_500_000 in
  let flavor = Flavors.Object_sens { depth = 2; heap = 1 } in
  (* the budget is calibrated so the full analysis exceeds it *)
  let full = Analysis.run_plain ~budget p flavor in
  check Alcotest.bool "full exceeds budget" true full.timed_out;
  let base = Analysis.run_plain ~budget p Flavors.Insensitive in
  (* the right expert list rescues it *)
  let hub_policy =
    Heuristics.static_policy base.solution
      ~skip_class:(fun c -> prefix "Hub" c || prefix "Item" c)
      ~skip_meth:(fun m -> prefix "hget" m || prefix "hput" m || prefix "use" m || prefix "hstep" m)
  in
  let rescued =
    Analysis.run_mixed ~budget p ~default:Flavors.Insensitive ~refined:flavor ~refine:hub_policy
  in
  check Alcotest.bool "hub policy rescues" false rescued.timed_out;
  Solution.self_check_exn rescued.solution;
  (* a wrong expert list does not *)
  let wrong =
    Heuristics.static_policy base.solution
      ~skip_class:(prefix "Frame")
      ~skip_meth:(prefix "fpop")
  in
  let still_dead =
    Analysis.run_mixed ~budget p ~default:Flavors.Insensitive ~refined:flavor ~refine:wrong
  in
  check Alcotest.bool "wrong policy does not" true still_dead.timed_out;
  (* selection semantics: skipped objects are exactly the matching classes *)
  (match hub_policy with
  | Refine.All_except { skip_objects; _ } ->
    let ok = ref true in
    for h = 0 to Ipa_ir.Program.n_heaps p - 1 do
      let cname =
        Ipa_ir.Program.class_name p (Ipa_ir.Program.heap_info p h).heap_class
      in
      let expected = prefix "Hub" cname || prefix "Item" cname in
      if Ipa_support.Int_set.mem skip_objects h <> expected then ok := false
    done;
    check Alcotest.bool "object selection by class" true !ok
  | Refine.None_ -> Alcotest.fail "expected All_except")

(* ---------- driver ---------- *)

let test_driver_labels () =
  let p = Ipa_testlib.parse_exn src in
  let ir = Analysis.run_introspective p (Flavors.Object_sens { depth = 2; heap = 1 })
      Heuristics.default_a in
  check Alcotest.string "base label" "insens" ir.base.label;
  check Alcotest.string "second label" "2objH-IntroA" ir.second.label;
  check Alcotest.bool "base complete" false ir.base.timed_out;
  check Alcotest.bool "second complete" false ir.second.timed_out

let test_driver_budget () =
  let p = Ipa_testlib.parse_exn src in
  let ir = Analysis.run_introspective ~budget:3 p (Flavors.Object_sens { depth = 2; heap = 1 })
      Heuristics.default_a in
  check Alcotest.bool "base budget applies" true ir.base.timed_out

let test_driver_default_heuristics_keep_precision_here () =
  (* In this tiny program nothing exceeds the default thresholds, so the
     introspective run equals the full analysis. *)
  let p = Ipa_testlib.parse_exn src in
  let flavor = Flavors.Object_sens { depth = 2; heap = 1 } in
  let full = Analysis.run_plain p flavor in
  List.iter
    (fun h ->
      let ir = Analysis.run_introspective p flavor h in
      check (Alcotest.list Alcotest.string)
        (Heuristics.name h ^ " = full here")
        (Ipa_testlib.canon_native full.solution)
        (Ipa_testlib.canon_native ir.second.solution))
    [ Heuristics.default_a; Heuristics.default_b ]

let test_driver_self_check () =
  (* Both passes of the two-pass recipe — the insensitive base and the mixed
     second analysis — must satisfy every solver invariant. *)
  let assert_sound what (s : Solution.t) =
    match Solution.self_check s with
    | [] -> ()
    | errs -> Alcotest.failf "%s: %s" what (List.hd errs)
  in
  let flavor = Flavors.Object_sens { depth = 2; heap = 1 } in
  List.iter
    (fun (name, p) ->
      List.iter
        (fun h ->
          let ir = Analysis.run_introspective p flavor h in
          assert_sound (name ^ " base") ir.base.solution;
          assert_sound (name ^ " second " ^ Heuristics.name h) ir.second.solution)
        [ Heuristics.default_a; Heuristics.default_b ])
    [
      ("metrics program", Ipa_testlib.parse_exn src);
      ("boxes", Ipa_testlib.parse_exn Ipa_testlib.boxes_src);
      ("random 620", Ipa_testlib.random_program 620);
      ("random 621", Ipa_testlib.random_program 621);
    ]

let () =
  Alcotest.run "introspection"
    [
      ( "metrics",
        [
          Alcotest.test_case "in-flow" `Quick test_metric_in_flow;
          Alcotest.test_case "volume" `Quick test_metric_volume;
          Alcotest.test_case "field metrics" `Quick test_metric_fields;
          Alcotest.test_case "max var-field" `Quick test_metric_max_var_field;
          Alcotest.test_case "pointed-by" `Quick test_metric_pointed_by;
        ] );
      ( "heuristics",
        [
          Alcotest.test_case "A objects boundary" `Quick test_heuristic_a_objects;
          Alcotest.test_case "A sites boundary" `Quick test_heuristic_a_sites;
          Alcotest.test_case "B boundaries" `Quick test_heuristic_b;
          Alcotest.test_case "default A constants (100/100/200)" `Quick test_default_a_constants;
          Alcotest.test_case "default B constants (10000/10000)" `Quick test_default_b_constants;
          Alcotest.test_case "defaults are the paper's" `Quick test_default_constants_literal;
          Alcotest.test_case "selection stats" `Quick test_selection_stats;
          Alcotest.test_case "names" `Quick test_heuristic_names;
        ] );
      ( "static policy",
        [ Alcotest.test_case "rescues and brittleness" `Quick test_static_policy ] );
      ( "datalog queries",
        [ Alcotest.test_case "section 3 queries agree" `Quick test_datalog_metric_queries ] );
      ( "driver",
        [
          Alcotest.test_case "labels" `Quick test_driver_labels;
          Alcotest.test_case "budget" `Quick test_driver_budget;
          Alcotest.test_case "precision kept below thresholds" `Quick
            test_driver_default_heuristics_keep_precision_here;
          Alcotest.test_case "both passes self-check" `Quick test_driver_self_check;
        ] );
    ]

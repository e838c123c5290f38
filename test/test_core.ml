(* Tests for the analysis core: contexts, flavors, refine sets, solver
   semantics per instruction kind, precision metrics, introspective driver
   identities, soundness properties on random programs, and cross-validation
   against the Datalog reference backend. *)

module P = Ipa_ir.Program
module Ctx = Ipa_core.Ctx
module Flavors = Ipa_core.Flavors
module Refine = Ipa_core.Refine
module Solver = Ipa_core.Solver
module Solution = Ipa_core.Solution
module Analysis = Ipa_core.Analysis
module Precision = Ipa_core.Precision
module Int_set = Ipa_support.Int_set

let check = Alcotest.check

let parse = Ipa_testlib.parse_exn

let insens = Flavors.Insensitive
let obj2 = Flavors.Object_sens { depth = 2; heap = 1 }
let call2 = Flavors.Call_site { depth = 2; heap = 1 }
let type2 = Flavors.Type_sens { depth = 2; heap = 1 }
let hyb2 = Flavors.Hybrid { depth = 2; heap = 1 }
let all_flavors = [ insens; call2; obj2; type2; hyb2; Flavors.Call_site { depth = 1; heap = 1 };
                    Flavors.Object_sens { depth = 1; heap = 0 };
                    Flavors.Object_sens { depth = 3; heap = 2 };
                    Flavors.Type_sens { depth = 1; heap = 1 };
                    Flavors.Hybrid { depth = 1; heap = 1 } ]

(* points-to set of a variable (by name), collapsed to heap names *)
let pts_of (r : Analysis.result) meth_name var_name =
  let p = r.solution.program in
  let vpt = Solution.collapsed_var_pts r.solution in
  let found = ref None in
  Array.iteri
    (fun v set ->
      let vi = P.var_info p v in
      let mi = P.meth_info p vi.var_owner in
      if mi.meth_name = meth_name && vi.var_name = var_name then found := Some set)
    vpt;
  match !found with
  | Some set -> List.map (P.heap_full_name p) (Int_set.to_sorted_list set)
  | None -> Alcotest.failf "no variable %s in %s" var_name meth_name

let run ?budget src flavor = Analysis.run_plain ?budget (parse src) flavor

(* ---------- Ctx ---------- *)

let test_ctx () =
  let t = Ctx.create () in
  check Alcotest.int "empty id" 0 Ctx.empty;
  check Alcotest.int "empty elems" 0 (Array.length (Ctx.elems t Ctx.empty));
  let e1 = Ctx.Elem.heap 3 and e2 = Ctx.Elem.invo 5 in
  let c1 = Ctx.push_trunc t Ctx.empty ~elem:e1 ~keep:2 in
  let c2 = Ctx.push_trunc t c1 ~elem:e2 ~keep:2 in
  check Alcotest.int "len 2" 2 (Array.length (Ctx.elems t c2));
  check Alcotest.bool "order newest first" true ((Ctx.elems t c2).(0) = e2);
  let c3 = Ctx.push_trunc t c2 ~elem:e1 ~keep:2 in
  check Alcotest.int "truncated" 2 (Array.length (Ctx.elems t c3));
  check Alcotest.bool "drops oldest" true ((Ctx.elems t c3).(1) = e2);
  check Alcotest.int "keep 0 is empty" Ctx.empty (Ctx.push_trunc t c2 ~elem:e1 ~keep:0);
  check Alcotest.int "trunc shorter is id" c1 (Ctx.trunc t c1 ~keep:5);
  check Alcotest.int "trunc 1" c1 (Ctx.trunc t c2 ~keep:1 |> fun x ->
    if Array.length (Ctx.elems t x) = 1 && (Ctx.elems t x).(0) = e2 then c1 else x)
  |> ignore;
  (* interning: same elements same id *)
  check Alcotest.int "hash-consed" c2 (Ctx.intern t [| e2; e1 |]);
  check Alcotest.bool "count counts" true (Ctx.count t >= 3)

let test_ctx_elems () =
  check Alcotest.bool "heap kind" true (Ctx.Elem.kind (Ctx.Elem.heap 7) = Ctx.Elem.Heap);
  check Alcotest.bool "invo kind" true (Ctx.Elem.kind (Ctx.Elem.invo 7) = Ctx.Elem.Invo);
  check Alcotest.bool "type kind" true (Ctx.Elem.kind (Ctx.Elem.ty 7) = Ctx.Elem.Type);
  check Alcotest.int "id roundtrip" 12345 (Ctx.Elem.id (Ctx.Elem.invo 12345))

(* ---------- Flavors ---------- *)

let test_flavor_names () =
  List.iter
    (fun (name, spec) ->
      check Alcotest.string "to_string" name (Flavors.to_string spec);
      match Flavors.of_string name with
      | Some spec' -> check Alcotest.string "roundtrip" name (Flavors.to_string spec')
      | None -> Alcotest.failf "of_string %s failed" name)
    Flavors.all_named;
  check Alcotest.bool "insensitive alias" true (Flavors.of_string "insensitive" = Some insens);
  check Alcotest.bool "2obj no heap" true
    (Flavors.of_string "2obj" = Some (Flavors.Object_sens { depth = 2; heap = 0 }));
  check Alcotest.bool "3callH2" true
    (Flavors.of_string "3callH2" = Some (Flavors.Call_site { depth = 3; heap = 2 }));
  check Alcotest.bool "garbage" true (Flavors.of_string "2frobH" = None);
  check Alcotest.bool "empty" true (Flavors.of_string "" = None);
  check Alcotest.bool "0obj invalid" true (Flavors.of_string "0objH" = None)

let test_strategies () =
  let p = parse Ipa_testlib.boxes_src in
  let t = Ctx.create () in
  let insens_s = Flavors.strategy p insens in
  check Alcotest.int "insens record" Ctx.empty (insens_s.record t ~heap:0 ~ctx:5);
  check Alcotest.int "insens merge" Ctx.empty
    (insens_s.merge p t ~heap:0 ~hctx:0 ~invo:0 ~caller:5);
  let call_s = Flavors.strategy p (Flavors.Call_site { depth = 2; heap = 1 }) in
  let c1 = call_s.merge p t ~heap:0 ~hctx:0 ~invo:7 ~caller:Ctx.empty in
  check Alcotest.bool "call pushes invo" true ((Ctx.elems t c1).(0) = Ctx.Elem.invo 7);
  let c2 = call_s.merge_static t ~invo:8 ~caller:c1 in
  check Alcotest.int "call depth 2" 2 (Array.length (Ctx.elems t c2));
  let c3 = call_s.merge_static t ~invo:9 ~caller:c2 in
  check Alcotest.bool "truncates" true
    (Array.length (Ctx.elems t c3) = 2 && (Ctx.elems t c3).(1) = Ctx.Elem.invo 8);
  check Alcotest.bool "heap ctx prefix" true
    (Ctx.elems t (call_s.record t ~heap:0 ~ctx:c2) = [| Ctx.Elem.invo 8 |]);
  let obj_s = Flavors.strategy p obj2 in
  let oc = obj_s.merge p t ~heap:3 ~hctx:Ctx.empty ~invo:0 ~caller:Ctx.empty in
  check Alcotest.bool "obj pushes heap" true ((Ctx.elems t oc).(0) = Ctx.Elem.heap 3);
  check Alcotest.int "obj static keeps caller" oc (obj_s.merge_static t ~invo:0 ~caller:oc);
  let ty_s = Flavors.strategy p type2 in
  let tc = ty_s.merge p t ~heap:0 ~hctx:Ctx.empty ~invo:0 ~caller:Ctx.empty in
  check Alcotest.bool "type elem is class" true
    (Ctx.Elem.kind (Ctx.elems t tc).(0) = Ctx.Elem.Type);
  let hyb_s = Flavors.strategy p hyb2 in
  let hc = hyb_s.merge_static t ~invo:4 ~caller:oc in
  check Alcotest.bool "hybrid static pushes invo" true
    ((Ctx.elems t hc).(0) = Ctx.Elem.invo 4);
  let hrec = hyb_s.record t ~heap:0 ~ctx:hc in
  check Alcotest.bool "hybrid record strips invos" true
    (Array.for_all (fun e -> Ctx.Elem.kind e <> Ctx.Elem.Invo) (Ctx.elems t hrec));
  Alcotest.check_raises "bad depth" (Invalid_argument "Flavors.object_sens: depth must be positive")
    (fun () -> ignore (Flavors.strategy p (Flavors.Object_sens { depth = 0; heap = 1 })))

(* ---------- Refine ---------- *)

let test_refine () =
  let key = Refine.pack_site ~invo:123 ~meth:456 in
  check (Alcotest.pair Alcotest.int Alcotest.int) "unpack" (123, 456) (Refine.unpack_site key);
  check Alcotest.bool "none refines nothing" false (Refine.refine_object Refine.None_ 0);
  check Alcotest.bool "none sites" false (Refine.refine_site Refine.None_ ~invo:0 ~meth:0);
  let skip_objects = Int_set.of_sorted_array [| 3 |] in
  let skip_sites = Int_set.of_sorted_array [| Refine.pack_site ~invo:1 ~meth:2 |] in
  let r = Refine.All_except { skip_objects; skip_sites } in
  check Alcotest.bool "skipped object" false (Refine.refine_object r 3);
  check Alcotest.bool "other object" true (Refine.refine_object r 4);
  check Alcotest.bool "skipped site" false (Refine.refine_site r ~invo:1 ~meth:2);
  check Alcotest.bool "other site" true (Refine.refine_site r ~invo:1 ~meth:3);
  check (Alcotest.pair Alcotest.int Alcotest.int) "counts" (1, 1) (Refine.skipped_counts r);
  match Refine.pack_site ~invo:0 ~meth:(1 lsl 40) with
  | _ -> Alcotest.fail "expected range error"
  | exception Invalid_argument _ -> ()

(* ---------- solver semantics per instruction ---------- *)

let test_boxes_conflation () =
  let r = run Ipa_testlib.boxes_src insens in
  check (Alcotest.list Alcotest.string) "insens ra conflated"
    [ "Main::main/new A#2"; "Main::main/new B#3" ]
    (pts_of r "main" "ra");
  let prec = Precision.compute r.solution in
  check Alcotest.int "insens may-fail" 1 prec.may_fail_casts;
  let r2 = run Ipa_testlib.boxes_src obj2 in
  check (Alcotest.list Alcotest.string) "2objH ra precise" [ "Main::main/new A#2" ]
    (pts_of r2 "main" "ra");
  check (Alcotest.list Alcotest.string) "2objH rb precise" [ "Main::main/new B#3" ]
    (pts_of r2 "main" "rb");
  check Alcotest.int "2objH no may-fail" 0 (Precision.compute r2.solution).may_fail_casts

let test_cast_filtering () =
  let src = {|
class Object { }
class A extends Object { }
class B extends A { }
class C extends Object { }
class Main {
  static method main/0 () {
    var x, a, b, c;
    x = new A;
    x = new B;
    x = new C;
    a = (A) x;
    b = (B) x;
    c = (C) x;
  }
}
entry Main::main/0;
|} in
  let r = run src insens in
  check (Alcotest.list Alcotest.string) "A admits A and B"
    [ "Main::main/new A#0"; "Main::main/new B#1" ]
    (pts_of r "main" "a");
  check (Alcotest.list Alcotest.string) "B admits B" [ "Main::main/new B#1" ]
    (pts_of r "main" "b");
  check (Alcotest.list Alcotest.string) "C admits C" [ "Main::main/new C#2" ]
    (pts_of r "main" "c")

let test_static_fields () =
  let src = {|
class Object { }
class A extends Object { }
class G {
  static field cell;
}
class Main {
  static method put/0 () { var a; a = new A; G::cell = a; }
  static method main/0 () {
    var t;
    Main::put();
    t = G::cell;
  }
}
entry Main::main/0;
|} in
  let r = run src obj2 in
  check (Alcotest.list Alcotest.string) "flows through static" [ "Main::put/new A#0" ]
    (pts_of r "main" "t")

let test_dispatch_and_this () =
  let src = {|
class Object { }
class A extends Object {
  method who/0 () { var s; s = new Object; return s; }
}
class B extends A {
  method who/0 () { var s; s = this; return s; }
}
class Main {
  static method main/0 () {
    var a, b, ra, rb;
    a = new A;
    b = new B;
    ra = a.who();
    rb = b.who();
  }
}
entry Main::main/0;
|} in
  let r = run src insens in
  check (Alcotest.list Alcotest.string) "A::who allocates" [ "A::who/new Object#0" ]
    (pts_of r "main" "ra");
  check (Alcotest.list Alcotest.string) "B::who returns this" [ "Main::main/new B#1" ]
    (pts_of r "main" "rb")

let test_unreachable_not_analyzed () =
  let src = {|
class Object { }
class A extends Object { }
class Main {
  static method dead/0 () { var d; d = new A; }
  static method main/0 () { var x; x = new A; }
}
entry Main::main/0;
|} in
  let r = run src insens in
  let reach = Solution.reachable_meths r.solution in
  check Alcotest.int "only main" 1 (Int_set.cardinal reach);
  let st = Solution.stats r.solution in
  check Alcotest.int "one tuple" 1 st.vpt_tuples

let test_recursion_terminates () =
  let src = {|
class Object { }
class A extends Object {
  method spin/1 (x) { var r; r = this.spin(x); return r; }
}
class Main {
  static method main/0 () { var a, o, r; a = new A; o = new Object; r = a.spin(o); }
}
entry Main::main/0;
|} in
  let r = run src call2 in
  check Alcotest.bool "terminates" true (r.solution.outcome = Solution.Complete)

let test_interface_dispatch () =
  let src = {|
class Object { }
interface I { method go/0; }
class A extends Object implements I {
  method go/0 () { return this; }
}
class Main {
  static method main/0 () { var a, r; a = new A; r = a.go(); }
}
entry Main::main/0;
|} in
  let r = run src insens in
  check (Alcotest.list Alcotest.string) "dispatches to impl" [ "Main::main/new A#0" ]
    (pts_of r "main" "r")

let test_budget_timeout () =
  let r = run ~budget:5 Ipa_testlib.boxes_src insens in
  check Alcotest.bool "timed out" true r.timed_out;
  check Alcotest.bool "flagged" true (r.solution.outcome = Solution.Budget_exceeded)

(* ---------- precision metrics ---------- *)

let test_precision_counts () =
  let r = run Ipa_testlib.boxes_src insens in
  let prec = Precision.compute r.solution in
  (* set and get each have one reachable call site pair per receiver, but
     site-level: both b1.set and b2.set resolve to the single Box::set. *)
  check Alcotest.int "no poly sites" 0 prec.poly_vcalls;
  check Alcotest.int "reachable" 3 prec.reachable_methods (* main, set, get *);
  check Alcotest.int "one may-fail" 1 prec.may_fail_casts;
  check Alcotest.int "call edges" 4 prec.call_edges

let test_poly_count () =
  let src = {|
class Object { }
class A extends Object { method go/0 () { return this; } }
class B extends Object { method go/0 () { return this; } }
class Main {
  static method main/0 () {
    var x, r;
    x = new A;
    x = new B;
    r = x.go();
  }
}
entry Main::main/0;
|} in
  let r = run src insens in
  check Alcotest.int "one poly site" 1 (Precision.compute r.solution).poly_vcalls;
  check Alcotest.int "two edges" 2 (Precision.compute r.solution).call_edges

(* ---------- solution projections ---------- *)

let test_solution_consistency () =
  let r = run Ipa_testlib.boxes_src obj2 in
  let s = r.solution in
  (* collapsed var-points-to equals the collapse of the full relation *)
  let collapsed = Solution.collapsed_var_pts s in
  let recomputed = Array.map (fun _ -> Int_set.create ()) collapsed in
  Solution.iter_var_pts s (fun ~var ~ctx:_ ~heap ~hctx:_ ->
      ignore (Int_set.add recomputed.(var) heap));
  Array.iteri
    (fun v set ->
      if not (Int_set.equal set recomputed.(v)) then Alcotest.failf "collapse mismatch at %d" v)
    collapsed;
  (* stats agree with iteration counts *)
  let st = Solution.stats s in
  let n = ref 0 in
  Solution.iter_var_pts s (fun ~var:_ ~ctx:_ ~heap:_ ~hctx:_ -> incr n);
  check Alcotest.int "vpt tuples" st.vpt_tuples !n;
  let n = ref 0 in
  Solution.iter_cg s (fun ~invo:_ ~caller:_ ~meth:_ ~callee:_ -> incr n);
  check Alcotest.int "cg edges" st.cg_edges !n

(* ---------- solution self-check ---------- *)

let assert_sound what (s : Solution.t) =
  match Solution.self_check s with
  | [] -> ()
  | errs -> Alcotest.failf "%s: %d violation(s): %s" what (List.length errs) (List.hd errs)

let test_self_check_flavors () =
  let p = parse Ipa_testlib.boxes_src in
  List.iter
    (fun flavor ->
      assert_sound (Flavors.to_string flavor) (Analysis.run_plain p flavor).solution)
    all_flavors

let test_self_check_random () =
  for seed = 300 to 309 do
    let p = Ipa_testlib.random_program seed in
    List.iter
      (fun flavor ->
        assert_sound
          (Printf.sprintf "seed %d %s" seed (Flavors.to_string flavor))
          (Analysis.run_plain p flavor).solution)
      [ insens; obj2; call2; type2; hyb2 ]
  done

let test_self_check_partial () =
  (* All invariants except entry-point coverage are insertion-time
     properties, so they must hold on budget-exceeded partial fixpoints of
     any size. *)
  List.iter
    (fun budget ->
      let r = run ~budget Ipa_testlib.boxes_src obj2 in
      assert_sound (Printf.sprintf "budget %d" budget) r.solution)
    [ 1; 3; 7; 12; 20; 35; 60; 100 ]

let test_self_check_detects_corruption () =
  (* Mutating a points-to set behind the solution's back must be caught:
     the validator is not a tautology. *)
  let r = run Ipa_testlib.boxes_src insens in
  let s = r.solution in
  let bogus_obj = Ipa_support.Pair_tbl.count s.objs + 7 in
  let corrupted = ref false in
  for n = 0 to Ipa_support.Dynarr.length s.pts - 1 do
    if not !corrupted then
      match Ipa_support.Dynarr.get s.pts n with
      | Some set ->
        ignore (Int_set.add set bogus_obj);
        corrupted := true
      | None -> ()
  done;
  check Alcotest.bool "corrupted a set" true !corrupted;
  check Alcotest.bool "violation reported" true (Solution.self_check s <> [])

(* ---------- introspective driver identities ---------- *)

let test_refine_all_equals_plain () =
  (* default=insens + refined=X + "refine everything" must equal plain X. *)
  let p = parse Ipa_testlib.boxes_src in
  List.iter
    (fun flavor ->
      let plain = Analysis.run_plain p flavor in
      let refine =
        Refine.All_except { skip_objects = Int_set.create (); skip_sites = Int_set.create () }
      in
      let refined = Solver.run p (Analysis.second_pass_config p flavor refine) in
      check (Alcotest.list Alcotest.string)
        (Flavors.to_string flavor ^ " refine-all = plain")
        (Ipa_testlib.canon_native plain.solution)
        (Ipa_testlib.canon_native refined))
    [ obj2; call2; type2 ]

let test_skip_all_equals_insens () =
  (* Skipping every element must reduce to the context-insensitive result. *)
  let p = parse Ipa_testlib.boxes_src in
  let plain = Analysis.run_plain p insens in
  let skip_objects = Int_set.create () in
  for h = 0 to P.n_heaps p - 1 do
    ignore (Int_set.add skip_objects h)
  done;
  let skip_sites = Int_set.create () in
  for invo = 0 to P.n_invos p - 1 do
    for m = 0 to P.n_meths p - 1 do
      ignore (Int_set.add skip_sites (Refine.pack_site ~invo ~meth:m))
    done
  done;
  let refine = Refine.All_except { skip_objects; skip_sites } in
  let skipped = Solver.run p (Analysis.second_pass_config p obj2 refine) in
  check (Alcotest.list Alcotest.string) "skip-all = insens"
    (Ipa_testlib.canon_native plain.solution)
    (Ipa_testlib.canon_native skipped)

(* ---------- soundness-style properties on random programs ---------- *)

let subset_of_insens flavor seed =
  let p = Ipa_testlib.random_program seed in
  let base = Analysis.run_plain p insens in
  let refined = Analysis.run_plain p flavor in
  let base_vpt = Solution.collapsed_var_pts base.solution in
  let ref_vpt = Solution.collapsed_var_pts refined.solution in
  Array.iteri
    (fun v set ->
      if not (Int_set.subset set base_vpt.(v)) then
        Alcotest.failf "seed %d %s: var %d gained facts over insens" seed
          (Flavors.to_string flavor) v)
    ref_vpt;
  if not (Int_set.subset (Solution.reachable_meths refined.solution)
            (Solution.reachable_meths base.solution))
  then Alcotest.failf "seed %d: reachable grew" seed;
  let bp = Precision.compute base.solution in
  let rp = Precision.compute refined.solution in
  if rp.poly_vcalls > bp.poly_vcalls then Alcotest.failf "seed %d: poly grew" seed;
  if rp.may_fail_casts > bp.may_fail_casts then Alcotest.failf "seed %d: casts grew" seed;
  if rp.reachable_methods > bp.reachable_methods then
    Alcotest.failf "seed %d: reach grew" seed

let test_refinement_soundness () =
  for seed = 100 to 109 do
    List.iter (fun flavor -> subset_of_insens flavor seed) [ obj2; call2; type2; hyb2 ]
  done

let test_introspective_soundness () =
  for seed = 100 to 105 do
    let p = Ipa_testlib.random_program seed in
    let base = Analysis.run_plain p insens in
    let base_vpt = Solution.collapsed_var_pts base.solution in
    List.iter
      (fun h ->
        let ir = Analysis.run_introspective p obj2 h in
        let second_vpt = Solution.collapsed_var_pts ir.second.solution in
        Array.iteri
          (fun v set ->
            if not (Int_set.subset set base_vpt.(v)) then
              Alcotest.failf "seed %d: introspective unsound at var %d" seed v)
          second_vpt)
      [ Ipa_core.Heuristics.default_a; Ipa_core.Heuristics.default_b ]
  done

(* ---------- client-driven baseline ---------- *)

let test_client_driven_answers_query () =
  (* Slicing from the cast's source must recover full precision for that
     cast while refining only a handful of elements. *)
  let p = parse Ipa_testlib.boxes_src in
  let base = Analysis.run_plain p insens in
  let queries = Ipa_core.Client_driven.cast_queries base.solution in
  check Alcotest.int "one cast query" 1 (List.length queries);
  let src, _ = List.hd queries in
  let cd = Analysis.run_client_driven p obj2 [ src ] in
  let may_fail =
    List.exists
      (fun (c : Ipa_core.Precision.cast) -> c.source = src && Ipa_core.Precision.may_fail c)
      (Ipa_core.Precision.casts cd.cd_second.solution)
  in
  check Alcotest.bool "query cast proven safe" false may_fail;
  let sites, objs = Ipa_core.Client_driven.selection_size base.solution cd.cd_refine in
  check Alcotest.bool "selection non-trivial" true (sites > 0 && objs > 0)

let test_client_driven_sound () =
  (* Query-driven results stay within the insensitive over-approximation. *)
  for seed = 700 to 705 do
    let p = Ipa_testlib.random_program seed in
    let base = Analysis.run_plain p insens in
    let base_vpt = Solution.collapsed_var_pts base.solution in
    let query = [ 0; P.n_vars p / 2 ] in
    let cd = Analysis.run_client_driven p obj2 query in
    let vpt = Solution.collapsed_var_pts cd.cd_second.solution in
    Array.iteri
      (fun v set ->
        if not (Int_set.subset set base_vpt.(v)) then
          Alcotest.failf "seed %d: client-driven unsound at var %d" seed v)
      vpt
  done

let test_client_driven_all_points_is_full () =
  (* Querying every variable refines everything: identical to the plain
     context-sensitive analysis. *)
  for seed = 710 to 714 do
    let p = Ipa_testlib.random_program seed in
    let everything = List.init (P.n_vars p) Fun.id in
    let cd = Analysis.run_client_driven p obj2 everything in
    let full = Analysis.run_plain p obj2 in
    check (Alcotest.list Alcotest.string)
      (Printf.sprintf "seed %d all-points = full" seed)
      (Ipa_testlib.canon_native full.solution)
      (Ipa_testlib.canon_native cd.cd_second.solution)
  done

(* ---------- cross-validation against the Datalog backend ---------- *)

let cross_validate p what =
  List.iter
    (fun flavor ->
      let native = Analysis.run_plain p flavor in
      let strategy = Flavors.strategy p flavor in
      let datalog = Ipa_core.Datalog_backend.run_plain p strategy in
      check (Alcotest.list Alcotest.string)
        (Printf.sprintf "%s/%s" what (Flavors.to_string flavor))
        (Ipa_testlib.canon_native native.solution)
        (Ipa_testlib.canon_datalog p datalog))
    all_flavors

let test_cross_boxes () = cross_validate (parse Ipa_testlib.boxes_src) "boxes"

let test_cross_random () =
  for seed = 200 to 207 do
    cross_validate (Ipa_testlib.random_program seed) (Printf.sprintf "seed%d" seed)
  done

let test_cross_benchmark () =
  let spec = Option.get (Ipa_synthetic.Dacapo.find "chart") in
  cross_validate (Ipa_synthetic.Dacapo.build ~scale:0.02 spec) "chart-2pct"

let test_cross_introspective () =
  (* The refine machinery must agree across engines too. *)
  for seed = 210 to 213 do
    let p = Ipa_testlib.random_program seed in
    let base = Analysis.run_plain p insens in
    let metrics = Ipa_core.Introspection.compute base.solution in
    List.iter
      (fun h ->
        let refine = Ipa_core.Heuristics.select base.solution metrics h in
        let native = Solver.run p (Analysis.second_pass_config p obj2 refine) in
        let datalog =
          Ipa_core.Datalog_backend.run p
            ~default:(Flavors.strategy p insens)
            ~refined:(Flavors.strategy p obj2)
            ~refine ()
        in
        check (Alcotest.list Alcotest.string)
          (Printf.sprintf "introspective seed %d" seed)
          (Ipa_testlib.canon_native native)
          (Ipa_testlib.canon_datalog p datalog))
      [ Ipa_core.Heuristics.default_a; Ipa_core.Heuristics.default_b ]
  done

let test_pack_edge_bounds () =
  (* Round trip across the whole filter-spec field, typed failure beyond. *)
  List.iter
    (fun spec ->
      let packed = Solver.pack_edge ~dst:12345 ~spec in
      check Alcotest.int "dst" 12345 (Solver.edge_dst packed);
      check Alcotest.int "spec" spec (Solver.edge_spec packed))
    [ 0; 1; Solver.filter_mask ];
  let expect_invalid name spec =
    match Solver.pack_edge ~dst:1 ~spec with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument msg ->
      check Alcotest.bool (name ^ ": message names pack_edge") true
        (String.length msg > 0
        && String.sub msg 0 (min 15 (String.length msg)) = "Solver.pack_edg")
  in
  expect_invalid "one past the field" (Solver.filter_mask + 1);
  expect_invalid "negative spec" (-1)

let () =
  Alcotest.run "core"
    [
      ( "ctx",
        [
          Alcotest.test_case "contexts" `Quick test_ctx;
          Alcotest.test_case "elements" `Quick test_ctx_elems;
        ] );
      ( "flavors",
        [
          Alcotest.test_case "names" `Quick test_flavor_names;
          Alcotest.test_case "strategies" `Quick test_strategies;
        ] );
      ("refine", [ Alcotest.test_case "sets" `Quick test_refine ]);
      ( "solver",
        [
          Alcotest.test_case "boxes conflation" `Quick test_boxes_conflation;
          Alcotest.test_case "cast filtering" `Quick test_cast_filtering;
          Alcotest.test_case "static fields" `Quick test_static_fields;
          Alcotest.test_case "dispatch and this" `Quick test_dispatch_and_this;
          Alcotest.test_case "unreachable code" `Quick test_unreachable_not_analyzed;
          Alcotest.test_case "recursion" `Quick test_recursion_terminates;
          Alcotest.test_case "interface dispatch" `Quick test_interface_dispatch;
          Alcotest.test_case "budget" `Quick test_budget_timeout;
          Alcotest.test_case "pack_edge bounds" `Quick test_pack_edge_bounds;
        ] );
      ( "precision",
        [
          Alcotest.test_case "counts" `Quick test_precision_counts;
          Alcotest.test_case "poly sites" `Quick test_poly_count;
        ] );
      ("solution", [ Alcotest.test_case "consistency" `Quick test_solution_consistency ]);
      ( "self-check",
        [
          Alcotest.test_case "all flavors" `Quick test_self_check_flavors;
          Alcotest.test_case "random programs" `Quick test_self_check_random;
          Alcotest.test_case "partial fixpoints" `Quick test_self_check_partial;
          Alcotest.test_case "detects corruption" `Quick test_self_check_detects_corruption;
        ] );
      ( "introspective identities",
        [
          Alcotest.test_case "refine-all = plain" `Quick test_refine_all_equals_plain;
          Alcotest.test_case "skip-all = insens" `Quick test_skip_all_equals_insens;
        ] );
      ( "properties",
        [
          Alcotest.test_case "refinement soundness" `Quick test_refinement_soundness;
          Alcotest.test_case "introspective soundness" `Quick test_introspective_soundness;
        ] );
      ( "client-driven",
        [
          Alcotest.test_case "answers the query" `Quick test_client_driven_answers_query;
          Alcotest.test_case "sound" `Quick test_client_driven_sound;
          Alcotest.test_case "all-points equals full" `Quick
            test_client_driven_all_points_is_full;
        ] );
      ( "cross-validation",
        [
          Alcotest.test_case "boxes" `Quick test_cross_boxes;
          Alcotest.test_case "random programs" `Quick test_cross_random;
          Alcotest.test_case "benchmark" `Quick test_cross_benchmark;
          Alcotest.test_case "introspective" `Quick test_cross_introspective;
        ] );
    ]

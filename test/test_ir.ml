(* Tests for the IR: builder invariants, hierarchy/dispatch, well-formedness
   checking, and pretty-printing. *)

module B = Ipa_ir.Builder
module P = Ipa_ir.Program
module Wf = Ipa_ir.Wf
module Pretty = Ipa_ir.Pretty

let check = Alcotest.check

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let expect_failure what substring f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Failure" what
  | exception Failure msg ->
    if not (contains msg substring) then
      Alcotest.failf "%s: message %S lacks %S" what msg substring

(* ---------- builder ---------- *)

let test_builder_classes () =
  let b = B.create () in
  let o = B.add_class b "Object" in
  let a = B.add_class b ~super:o "A" in
  expect_failure "duplicate class" "duplicate class A" (fun () -> B.add_class b "A");
  let i = B.add_interface b "I" in
  let c = B.add_class b ~super:a ~interfaces:[ i ] "C" in
  let m = B.add_method b ~owner:c ~name:"main" ~static:true ~params:[] () in
  B.add_entry b m;
  let p = B.finish b in
  check Alcotest.int "classes" 4 (P.n_classes p);
  check Alcotest.bool "interface flag" true (P.class_info p i).is_interface;
  check (Alcotest.option Alcotest.int) "find_class" (Some a) (P.find_class p "A");
  check (Alcotest.option Alcotest.int) "find miss" None (P.find_class p "Z")

let test_builder_method_rules () =
  let b = B.create () in
  let o = B.add_class b "Object" in
  let a = B.add_class b ~super:o "A" in
  let m = B.add_method b ~owner:a ~name:"f" ~params:[ "x"; "y" ] () in
  ignore (B.this b m);
  ignore (B.formal b m 0);
  ignore (B.formal b m 1);
  Alcotest.check_raises "formal oob" (Invalid_argument "Builder.formal: method has no formal 2")
    (fun () -> ignore (B.formal b m 2));
  expect_failure "duplicate method" "duplicate method A::f/2" (fun () ->
      ignore (B.add_method b ~owner:a ~name:"f" ~params:[ "a"; "b" ] ()));
  (* same name, different arity is a different signature *)
  ignore (B.add_method b ~owner:a ~name:"f" ~params:[ "x" ] ());
  let s = B.add_method b ~owner:a ~name:"g" ~static:true ~params:[] () in
  expect_failure "this on static" "static or abstract" (fun () -> ignore (B.this b s));
  expect_failure "abstract static" "cannot be both" (fun () ->
      ignore (B.add_method b ~owner:a ~name:"h" ~static:true ~abstract:true ~params:[] ()));
  expect_failure "duplicate var" "duplicate variable x" (fun () -> ignore (B.add_var b m "x"))

let test_builder_return_var () =
  let b = B.create () in
  let o = B.add_class b "Object" in
  let a = B.add_class b ~super:o "A" in
  let m = B.add_method b ~owner:a ~name:"f" ~params:[ "x" ] () in
  B.return_ b m (B.formal b m 0);
  B.return_ b m (B.formal b m 0);
  let main = B.add_method b ~owner:a ~name:"main" ~static:true ~params:[] () in
  B.add_entry b main;
  let p = B.finish b in
  let mi = P.meth_info p m in
  check Alcotest.bool "ret var allocated once" true (mi.ret_var <> None);
  check Alcotest.int "two returns" 2 (Array.length mi.body)

(* ---------- hierarchy and dispatch ---------- *)

let test_subtype () =
  let b = B.create () in
  let o = B.add_class b "Object" in
  let a = B.add_class b ~super:o "A" in
  let bb = B.add_class b ~super:a "B" in
  let i = B.add_interface b "I" in
  let j = B.add_interface b ~interfaces:[ i ] "J" in
  let c = B.add_class b ~super:a ~interfaces:[ j ] "C" in
  let main = B.add_method b ~owner:a ~name:"main" ~static:true ~params:[] () in
  B.add_entry b main;
  let p = B.finish b in
  let sub s t = P.subtype p ~sub:s ~super:t in
  check Alcotest.bool "reflexive" true (sub a a);
  check Alcotest.bool "direct" true (sub bb a);
  check Alcotest.bool "transitive" true (sub bb o);
  check Alcotest.bool "not up-down" false (sub a bb);
  check Alcotest.bool "interface direct" true (sub c j);
  check Alcotest.bool "interface transitive" true (sub c i);
  check Alcotest.bool "sibling" false (sub bb c);
  check Alcotest.bool "class not iface" false (sub a i)

let test_dispatch () =
  let b = B.create () in
  let o = B.add_class b "Object" in
  let a = B.add_class b ~super:o "A" in
  let bb = B.add_class b ~super:a "B" in
  let c = B.add_class b ~super:bb "C" in
  let m_a = B.add_method b ~owner:a ~name:"run" ~params:[] () in
  B.return_ b m_a (B.this b m_a);
  let m_b = B.add_method b ~owner:bb ~name:"run" ~params:[] () in
  B.return_ b m_b (B.this b m_b);
  let main = B.add_method b ~owner:a ~name:"main" ~static:true ~params:[] () in
  let x = B.add_var b main "x" in
  ignore (B.alloc b main ~target:x ~cls:c);
  let virt = B.vcall b main ~base:x ~name:"run" ~actuals:[] () in
  let stat = B.scall b main ~callee:main ~actuals:[] () in
  B.add_entry b main;
  let p = B.finish b in
  let s = Option.get (P.find_sig p ~name:"run" ~arity:0) in
  check (Alcotest.option Alcotest.int) "own" (Some m_a) (P.dispatch p a s);
  check (Alcotest.option Alcotest.int) "override" (Some m_b) (P.dispatch p bb s);
  check (Alcotest.option Alcotest.int) "inherit override" (Some m_b) (P.dispatch p c s);
  check (Alcotest.option Alcotest.int) "undefined above" None (P.dispatch p o s);
  check (Alcotest.list Alcotest.int) "implementations" [ m_a; m_b ] (P.cha_targets p virt);
  check (Alcotest.list Alcotest.int) "static callee" [ main ] (P.cha_targets p stat);
  let consistent = ref true in
  P.iter_dispatch p (fun cls sg meth ->
      if P.dispatch p cls sg <> Some meth then consistent := false);
  check Alcotest.bool "iter_dispatch consistent" true !consistent

let test_dispatch_pairs_exact () =
  let b = B.create () in
  let o = B.add_class b "Object" in
  let a = B.add_class b ~super:o "A" in
  let m = B.add_method b ~owner:a ~name:"run" ~params:[] () in
  B.return_ b m (B.this b m);
  let main = B.add_method b ~owner:a ~name:"main" ~static:true ~params:[] () in
  B.add_entry b main;
  let p = B.finish b in
  let pairs = ref 0 in
  P.iter_dispatch p (fun _ _ _ -> incr pairs);
  (* A declares run/0 and main/0; Object declares nothing. *)
  check Alcotest.int "pairs" 2 !pairs

let test_cycle_detection () =
  let ci name super : P.class_info =
    { class_name = name; super; interfaces = []; is_interface = false; declared = [] }
  in
  match
    P.make
      ~classes:[| ci "A" (Some 1); ci "B" (Some 0) |]
      ~fields:[||] ~sigs:[||] ~meths:[||] ~vars:[||] ~heaps:[||] ~invos:[||] ~entries:[] ()
  with
  | _ -> Alcotest.fail "expected cycle failure"
  | exception Failure msg ->
    check Alcotest.bool "message" true (contains msg "cyclic class hierarchy")

(* ---------- names ---------- *)

let test_names () =
  let p = Ipa_testlib.parse_exn Ipa_testlib.boxes_src in
  let box = Option.get (P.find_class p "Box") in
  let set_sig = Option.get (P.find_sig p ~name:"set" ~arity:1) in
  let set = Option.get (P.dispatch p box set_sig) in
  check Alcotest.string "meth name" "Box::set/1" (P.meth_full_name p set);
  check Alcotest.string "field name" "Box::val" (P.field_full_name p 0);
  check Alcotest.bool "heap name" true (contains (P.heap_full_name p 0) "new");
  check Alcotest.bool "var name" true (contains (P.var_full_name p 0) "$")

(* The memo computes once per physical program, and a structurally equal
   program that is another value is another entry. *)
let test_memo () =
  let calls = ref 0 in
  let f = P.memo (fun p -> incr calls; P.n_vars p) in
  let a = Ipa_testlib.parse_exn Ipa_testlib.boxes_src in
  let b = Ipa_testlib.random_program 7 in
  check Alcotest.int "first" (P.n_vars a) (f a);
  check Alcotest.int "again" (P.n_vars a) (f a);
  check Alcotest.int "one call" 1 !calls;
  check Alcotest.int "other program" (P.n_vars b) (f b);
  check Alcotest.int "back" (P.n_vars a) (f a);
  check Alcotest.int "one entry" 3 !calls;
  ignore (f (Ipa_testlib.parse_exn Ipa_testlib.boxes_src));
  check Alcotest.int "equal, not the same" 4 !calls

(* ---------- Wf violations (via handcrafted Program.make) ---------- *)

let base_sig : P.sig_info = { sig_name = "m"; arity = 0 }

let mk_meth ?(owner = 1) ?(static = true) ?(abstract = false) ?this ?(formals = [||]) ?ret
    ?(catches = [||]) ?(body = [||]) name : P.meth_info =
  {
    meth_name = name;
    meth_owner = owner;
    meth_sig = 0;
    is_static_meth = static;
    is_abstract = abstract;
    this_var = this;
    formals;
    ret_var = ret;
    catches;
    body;
  }

let base_classes () : P.class_info array =
  [|
    { class_name = "Object"; super = None; interfaces = []; is_interface = false; declared = [] };
    {
      class_name = "A";
      super = Some 0;
      interfaces = [];
      is_interface = false;
      declared = [ (0, 0) ];
    };
    { class_name = "I"; super = None; interfaces = []; is_interface = true; declared = [] };
  |]

let wf_errors ?classes ?(fields = [||]) ?(vars = [||]) ?(heaps = [||]) ?(invos = [||]) meths
    entries =
  let classes = match classes with Some c -> c | None -> base_classes () in
  let p = P.make ~classes ~fields ~sigs:[| base_sig |] ~meths ~vars ~heaps ~invos ~entries () in
  match Wf.check p with Ok () -> [] | Error es -> es

let expect_wf_error what substring errs =
  if not (List.exists (fun e -> contains e substring) errs) then
    Alcotest.failf "%s: no error containing %S in [%s]" what substring (String.concat "; " errs)

let test_wf_ok () =
  let m = mk_meth "m" in
  check Alcotest.int "no errors" 0 (List.length (wf_errors [| m |] [ 0 ]))

let test_wf_entry_abstract () =
  let m = mk_meth ~static:false ~abstract:true "m" in
  expect_wf_error "abstract entry" "entry point" (wf_errors [| m |] [ 0 ])

let test_wf_foreign_var () =
  let vars : P.var_info array = [| { var_name = "x"; var_owner = 1 } |] in
  let m0 = mk_meth ~body:[| P.Move { target = 0; source = 0 } |] "m" in
  let m1 = mk_meth "n" in
  expect_wf_error "foreign var" "belongs to" (wf_errors ~vars [| m0; m1 |] [ 0 ])

let test_wf_alloc_interface () =
  let vars : P.var_info array = [| { var_name = "x"; var_owner = 0 } |] in
  let heaps : P.heap_info array = [| { heap_name = "h"; heap_class = 2; heap_owner = 0 } |] in
  let m = mk_meth ~body:[| P.Alloc { target = 0; heap = 0 } |] "m" in
  expect_wf_error "alloc interface" "allocation of interface"
    (wf_errors ~vars ~heaps [| m |] [ 0 ])

let test_wf_static_field_misuse () =
  let fields : P.field_info array =
    [| { field_name = "f"; field_owner = 1; is_static_field = true } |]
  in
  let vars : P.var_info array =
    [| { var_name = "x"; var_owner = 0 }; { var_name = "y"; var_owner = 0 } |]
  in
  let m = mk_meth ~body:[| P.Load { target = 0; base = 1; field = 0 } |] "m" in
  expect_wf_error "instance load of static" "instance load of static field"
    (wf_errors ~fields ~vars [| m |] [ 0 ]);
  let m2 = mk_meth ~body:[| P.Store_static { field = 0; source = 0 } |] "m" in
  check Alcotest.int "static store of static ok" 0
    (List.length (wf_errors ~fields ~vars [| m2 |] [ 0 ]))

let test_wf_instance_field_misuse () =
  let fields : P.field_info array =
    [| { field_name = "f"; field_owner = 1; is_static_field = false } |]
  in
  let vars : P.var_info array = [| { var_name = "x"; var_owner = 0 } |] in
  let m = mk_meth ~body:[| P.Load_static { target = 0; field = 0 } |] "m" in
  expect_wf_error "static load of instance" "static load of instance field"
    (wf_errors ~fields ~vars [| m |] [ 0 ])

let test_wf_call_arity () =
  let vars : P.var_info array =
    [| { var_name = "x"; var_owner = 0 }; { var_name = "b"; var_owner = 0 } |]
  in
  let invos : P.invo_info array =
    [|
      {
        call = Virtual { base = 1; signature = 0 };
        actuals = [| 0 |];
        recv = None;
        invo_owner = 0;
        invo_name = "i";
      };
    |]
  in
  let m = mk_meth ~body:[| P.Call 0 |] "m" in
  expect_wf_error "arity" "passes 1 arguments" (wf_errors ~vars ~invos [| m |] [ 0 ])

let test_wf_static_call_to_instance () =
  let invos : P.invo_info array =
    [|
      { call = Static { callee = 1 }; actuals = [||]; recv = None; invo_owner = 0; invo_name = "i" };
    |]
  in
  let vars : P.var_info array = [| { var_name = "this"; var_owner = 1 } |] in
  let m0 = mk_meth ~body:[| P.Call 0 |] "m" in
  let m1 = mk_meth ~static:false ~this:0 "n" in
  expect_wf_error "static call instance" "static call to instance method"
    (wf_errors ~vars ~invos [| m0; m1 |] [ 0 ])

let test_wf_return_without_ret_var () =
  let vars : P.var_info array = [| { var_name = "x"; var_owner = 0 } |] in
  let m = mk_meth ~body:[| P.Return { source = 0 } |] "m" in
  expect_wf_error "return" "without a return variable" (wf_errors ~vars [| m |] [ 0 ])

let test_wf_abstract_with_body () =
  let vars : P.var_info array = [| { var_name = "x"; var_owner = 0 } |] in
  let m =
    mk_meth ~static:false ~abstract:true ~body:[| P.Move { target = 0; source = 0 } |] "m"
  in
  expect_wf_error "abstract body" "abstract method with a body" (wf_errors ~vars [| m |] [ 0 ])

let test_wf_interface_concrete () =
  let classes = base_classes () in
  classes.(2) <- { (classes.(2)) with declared = [ (0, 0) ] };
  let m = mk_meth ~owner:2 "m" in
  expect_wf_error "iface concrete" "declares concrete methods" (wf_errors ~classes [| m |] [ 0 ])

let test_wf_class_extends_interface () =
  let classes = base_classes () in
  classes.(1) <- { (classes.(1)) with super = Some 2 };
  let m = mk_meth "m" in
  expect_wf_error "extends interface" "extends interface" (wf_errors ~classes [| m |] [ 0 ])

let test_wf_implements_class () =
  let classes = base_classes () in
  classes.(1) <- { (classes.(1)) with interfaces = [ 0 ] };
  let m = mk_meth "m" in
  expect_wf_error "implements class" "implements non-interface" (wf_errors ~classes [| m |] [ 0 ])

let test_wf_interface_instance_field () =
  let fields : P.field_info array =
    [| { field_name = "f"; field_owner = 2; is_static_field = false } |]
  in
  let m = mk_meth "m" in
  expect_wf_error "iface field" "declares instance field" (wf_errors ~fields [| m |] [ 0 ])

let test_wf_diagnostics_ids () =
  (* [Wf.diagnostics] carries stable per-check rule ids, in deterministic
     emission order (classes, fields, methods and bodies, entries), and
     [Wf.check] is exactly its message projection. *)
  let vars : P.var_info array = [| { var_name = "x"; var_owner = 1 } |] in
  let m0 = mk_meth ~body:[| P.Move { target = 0; source = 0 } |] "m" in
  let m1 = mk_meth ~static:false ~abstract:true "n" in
  let p =
    P.make ~classes:(base_classes ()) ~fields:[||] ~sigs:[| base_sig |] ~meths:[| m0; m1 |]
      ~vars ~heaps:[||] ~invos:[||] ~entries:[ 0; 1 ] ()
  in
  let ds = Wf.diagnostics p in
  check
    (Alcotest.list Alcotest.string)
    "rule ids in emission order"
    (* The foreign [Move] reports both of its operands, then the entry. *)
    [ "IPA-W001"; "IPA-W001"; "IPA-W020" ]
    (List.map (fun (d : Ipa_ir.Diagnostic.t) -> d.rule) ds);
  List.iter
    (fun (d : Ipa_ir.Diagnostic.t) ->
      check Alcotest.string "wf severity" "error" (Ipa_ir.Diagnostic.severity_to_string d.severity))
    ds;
  check
    (Alcotest.list Alcotest.string)
    "check is the message projection"
    (List.map (fun (d : Ipa_ir.Diagnostic.t) -> d.message) ds)
    (match Wf.check p with Ok () -> [] | Error es -> es)

(* ---------- Pretty ---------- *)

let test_pretty_instrs () =
  let p = Ipa_testlib.parse_exn Ipa_testlib.boxes_src in
  let text = Pretty.program p in
  List.iter
    (fun fragment ->
      if not (contains text fragment) then Alcotest.failf "missing fragment %S" fragment)
    [
      "class Box {";
      "field val;";
      "method set/1 (x) {";
      "this.Box::val = x;";
      "t = this.Box::val;";
      "return t;";
      "b1 = new Box;";
      "rb2 = (B) rb;";
      "entry Main::main/0;";
      "ra = b1.get();";
    ]

let test_pretty_random_stable () =
  (* print . parse . print = print on builder-produced programs *)
  for seed = 1 to 10 do
    let p = Ipa_testlib.random_program seed in
    let printed = Pretty.program p in
    match Ipa_frontend.Jir.parse_string printed with
    | Error e ->
      Alcotest.failf "seed %d: reparse failed: %s" seed (Ipa_frontend.Jir.error_to_string e)
    | Ok p2 ->
      if not (String.equal printed (Pretty.program p2)) then
        Alcotest.failf "seed %d: print.parse.print not stable" seed
  done

let () =
  Alcotest.run "ir"
    [
      ( "builder",
        [
          Alcotest.test_case "classes" `Quick test_builder_classes;
          Alcotest.test_case "method rules" `Quick test_builder_method_rules;
          Alcotest.test_case "return var" `Quick test_builder_return_var;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "subtype" `Quick test_subtype;
          Alcotest.test_case "dispatch" `Quick test_dispatch;
          Alcotest.test_case "dispatch pairs" `Quick test_dispatch_pairs_exact;
          Alcotest.test_case "cycle detection" `Quick test_cycle_detection;
        ] );
      ("names", [ Alcotest.test_case "full names" `Quick test_names ]);
      ("memo", [ Alcotest.test_case "one entry per physical program" `Quick test_memo ]);
      ( "wf",
        [
          Alcotest.test_case "well-formed ok" `Quick test_wf_ok;
          Alcotest.test_case "abstract entry" `Quick test_wf_entry_abstract;
          Alcotest.test_case "foreign var" `Quick test_wf_foreign_var;
          Alcotest.test_case "alloc interface" `Quick test_wf_alloc_interface;
          Alcotest.test_case "static field misuse" `Quick test_wf_static_field_misuse;
          Alcotest.test_case "instance field misuse" `Quick test_wf_instance_field_misuse;
          Alcotest.test_case "call arity" `Quick test_wf_call_arity;
          Alcotest.test_case "static call to instance" `Quick test_wf_static_call_to_instance;
          Alcotest.test_case "return without ret var" `Quick test_wf_return_without_ret_var;
          Alcotest.test_case "abstract with body" `Quick test_wf_abstract_with_body;
          Alcotest.test_case "interface concrete" `Quick test_wf_interface_concrete;
          Alcotest.test_case "class extends interface" `Quick test_wf_class_extends_interface;
          Alcotest.test_case "implements class" `Quick test_wf_implements_class;
          Alcotest.test_case "interface instance field" `Quick test_wf_interface_instance_field;
          Alcotest.test_case "diagnostic ids" `Quick test_wf_diagnostics_ids;
        ] );
      ( "pretty",
        [
          Alcotest.test_case "fragments" `Quick test_pretty_instrs;
          Alcotest.test_case "random round-trip" `Quick test_pretty_random_stable;
        ] );
    ]

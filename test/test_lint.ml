(* Tests for the lint engine: rule registry and selection, syntactic and
   solution-backed rules on handcrafted programs, reporter output shapes
   (SARIF 2.1.0 validated through the Json parser), baseline round-trips,
   and the QCheck monotonicity property
   (monotone finding sets never grow as analysis precision increases). *)

module P = Ipa_ir.Program
module Diagnostic = Ipa_ir.Diagnostic
module Lint = Ipa_lint.Lint
module Report = Ipa_lint.Report
module Baseline = Ipa_lint.Baseline
module Json = Ipa_support.Json
module Analysis = Ipa_core.Analysis
module Flavors = Ipa_core.Flavors

let check = Alcotest.check

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let qtest ?(count = 10) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let flavor name = Option.get (Flavors.of_string name)
let solve ?(analysis = "insens") p = (Analysis.run_plain p (flavor analysis)).Analysis.solution

let run_rule ctx id =
  let rule = Option.get (Lint.find_rule id) in
  fst (Lint.run ~rules:[ rule ] ctx)

let entities ds = List.map (fun (d : Diagnostic.t) -> d.entity) ds

(* A fixture exercising every syntactic rule at least once. *)
let syntactic_src =
  {|
class Object { }
class E extends Object { }
class E2 extends E { }
class Ghost extends Object { }
class Orphan extends Object {
  method orphan/0 () { return this; }
}
class A extends Object {
  field w;
}
class Main {
  static method main/0 () {
    var a, u, c, x;
    catch (E) x;
    catch (E2) x;
    a = new A;
    a.w = a;
    c = (Ghost) a;
  }
}
entry Main::main/0;
|}

let syntactic_ctx () = Lint.make_ctx (Ipa_testlib.parse_exn syntactic_src)

let test_unreachable_method () =
  let ds = run_rule (syntactic_ctx ()) "IPA-S001" in
  check (Alcotest.list Alcotest.string) "S001 entities" [ "Orphan::orphan/0" ] (entities ds)

let test_unused_variable () =
  let ds = run_rule (syntactic_ctx ()) "IPA-S002" in
  (* [u] is never referenced; [x] is used by the catch clauses, [this] in
     orphan/0 and the implicit return variables are exempt. *)
  check Alcotest.int "one unused var" 1 (List.length ds);
  let d = List.hd ds in
  check Alcotest.bool "names u" true (contains d.Diagnostic.message "u");
  check Alcotest.string "severity" "info" (Diagnostic.severity_to_string d.severity)

let test_write_only_field () =
  let ds = run_rule (syntactic_ctx ()) "IPA-S003" in
  check (Alcotest.list Alcotest.string) "S003 entities" [ "A::w" ] (entities ds);
  check Alcotest.bool "written but never read" true
    (contains (List.hd ds).Diagnostic.message "written but never read")

let test_impossible_cast () =
  let ds = run_rule (syntactic_ctx ()) "IPA-S004" in
  check Alcotest.int "one impossible cast" 1 (List.length ds);
  let d = List.hd ds in
  check Alcotest.bool "anchored to a main site" true (contains d.Diagnostic.entity "Main::main/0#");
  check Alcotest.bool "names Ghost" true (contains d.message "Ghost")

let test_shadowed_catch () =
  let ds = run_rule (syntactic_ctx ()) "IPA-S005" in
  check (Alcotest.list Alcotest.string) "S005 entities" [ "Main::main/0@catch1" ] (entities ds);
  check Alcotest.bool "E2 shadowed by E" true (contains (List.hd ds).Diagnostic.message "E")

let test_wf_rule_fans_out () =
  (* A handcrafted ill-formed program: IPA-W000 reports per-check ids. *)
  let classes : P.class_info array =
    [|
      { class_name = "Object"; super = None; interfaces = []; is_interface = false; declared = [] };
      { class_name = "I"; super = Some 0; interfaces = []; is_interface = true; declared = [] };
    |]
  in
  let p =
    P.make ~classes ~fields:[||] ~sigs:[||] ~meths:[||] ~vars:[||] ~heaps:[||] ~invos:[||]
      ~entries:[] ()
  in
  let ds = run_rule (Lint.make_ctx p) "IPA-W000" in
  (* Interface I extends a class: IPA-W003. *)
  check (Alcotest.list Alcotest.string) "wf rule ids" [ "IPA-W003" ]
    (List.map (fun (d : Diagnostic.t) -> d.rule) ds)

(* ---------- solution-backed rules ---------- *)

(* boxes_src: under insens both A and B flow into [rb], so the (B) cast may
   fail; 2-object-sensitivity proves it safe. *)
let test_may_fail_cast_precision () =
  let p = Ipa_testlib.parse_exn Ipa_testlib.boxes_src in
  let coarse = run_rule (Lint.make_ctx ~solution:(solve p) p) "IPA-P001" in
  check Alcotest.int "insens flags the cast" 1 (List.length coarse);
  let d = List.hd coarse in
  check Alcotest.bool "anchored to main site" true (contains d.Diagnostic.entity "Main::main/0#");
  check Alcotest.int "one witness" 1 (List.length d.witnesses);
  check Alcotest.bool "witness is the A object" true (contains (List.hd d.witnesses) "new A");
  let fine = run_rule (Lint.make_ctx ~solution:(solve ~analysis:"2objH" p) p) "IPA-P001" in
  check Alcotest.int "2objH proves it safe" 0 (List.length fine)

let test_solution_rules_silent_without_solution () =
  let p = Ipa_testlib.parse_exn Ipa_testlib.boxes_src in
  let sem = List.filter (fun r -> r.Lint.source = Lint.Solution_backed) Lint.all_rules in
  let ds, timings = Lint.run ~rules:sem (Lint.make_ctx p) in
  check Alcotest.int "no findings" 0 (List.length ds);
  check Alcotest.int "all rules still timed" (List.length sem) (List.length timings)

let test_megamorphic_call () =
  (* All three allocations flow out of pick/0 through one variable, so the
     [o.go()] site resolves to three targets under any flavor. *)
  let src =
    {|
class Object { }
class Base extends Object { method go/0 () { return this; } }
class C1 extends Base { method go/0 () { return this; } }
class C2 extends Base { method go/0 () { return this; } }
class Main {
  static method main/0 () {
    var o, r;
    o = Main::pick();
    r = o.go();
  }
  static method pick/0 () {
    var a;
    a = new Base; a = new C1; a = new C2;
    return a;
  }
}
entry Main::main/0;
|}
  in
  let p = Ipa_testlib.parse_exn src in
  let s = solve p in
  let ds = run_rule (Lint.make_ctx ~solution:s p) "IPA-P004" in
  check Alcotest.int "one megamorphic site" 1 (List.length ds);
  check Alcotest.int "three targets" 3 (List.length (List.hd ds).Diagnostic.witnesses);
  (* Below the threshold the rule is silent. *)
  let ds5 = run_rule (Lint.make_ctx ~solution:s ~megamorphic_threshold:5 p) "IPA-P004" in
  check Alcotest.int "threshold respected" 0 (List.length ds5)

let test_taint_flow () =
  let src =
    {|
class Object { }
class Secret extends Object { }
class Sink extends Object {
  method consume/1 (x) { return x; }
}
class Main {
  static method main/0 () {
    var s, k, r;
    s = new Secret;
    k = new Sink;
    r = k.consume(s);
  }
}
entry Main::main/0;
|}
  in
  let p = Ipa_testlib.parse_exn src in
  let ds = run_rule (Lint.make_ctx ~solution:(solve p) p) "IPA-P005" in
  check Alcotest.int "one taint finding" 1 (List.length ds);
  let d = List.hd ds in
  check Alcotest.bool "sink argument entity" true (contains d.Diagnostic.entity "!0");
  check Alcotest.string "severity" "error" (Diagnostic.severity_to_string d.severity);
  check Alcotest.bool "has a value-flow path" true (List.length d.witnesses > 0)

(* ---------- registry and selection ---------- *)

let test_registry_order () =
  let ids = List.map (fun r -> r.Lint.id) Lint.all_rules in
  check (Alcotest.list Alcotest.string) "registry in family order"
    [
      "IPA-W000"; "IPA-S001"; "IPA-S002"; "IPA-S003"; "IPA-S004"; "IPA-S005"; "IPA-P001";
      "IPA-P002"; "IPA-P003"; "IPA-P004"; "IPA-P005"; "IPA-P006";
    ]
    ids

let test_select_rules () =
  let ids spec = Result.map (List.map (fun r -> r.Lint.id)) (Lint.select_rules spec) in
  check Alcotest.int "None = all" (List.length Lint.all_rules)
    (List.length (Result.get_ok (ids None)));
  check (Alcotest.list Alcotest.string) "explicit ids"
    [ "IPA-P005"; "IPA-S001" ]
    (List.sort compare (Result.get_ok (ids (Some "IPA-S001,IPA-P005"))));
  (match ids (Some "syntactic") with
  | Ok l -> check Alcotest.int "syntactic family" 6 (List.length l)
  | Error e -> Alcotest.failf "syntactic: %s" e);
  (match ids (Some "all,IPA-P006-") with
  | Ok l ->
    check Alcotest.int "exclusion" (List.length Lint.all_rules - 1) (List.length l);
    check Alcotest.bool "P006 excluded" false (List.mem "IPA-P006" l)
  | Error e -> Alcotest.failf "exclusion: %s" e);
  match ids (Some "IPA-S001,bogus") with
  | Ok _ -> Alcotest.fail "expected unknown-rule error"
  | Error e -> check Alcotest.bool "names the bogus rule" true (contains e "bogus")

(* ---------- determinism ---------- *)

let test_findings_sorted_and_deduped () =
  let ctx = syntactic_ctx () in
  let ds, _ = Lint.run ctx in
  let sorted = List.sort_uniq Diagnostic.compare ds in
  check Alcotest.int "already deduped" (List.length sorted) (List.length ds);
  check Alcotest.bool "already sorted" true
    (List.for_all2 (fun a b -> Diagnostic.compare a b = 0) ds sorted)

(* ---------- source spans through the front-end ---------- *)

let test_spans_from_file () =
  Ipa_testlib.with_temp_dir (fun dir ->
      let path = Filename.concat dir "fixture.jir" in
      Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc syntactic_src);
      match Ipa_frontend.Jir.parse_file path with
      | Error e -> Alcotest.failf "parse_file: %s" (Ipa_frontend.Jir.error_to_string e)
      | Ok p ->
        let ds = run_rule (Lint.make_ctx p) "IPA-S003" in
        let d = List.hd ds in
        check Alcotest.string "span file" path d.Diagnostic.span.file;
        (* [field w;] is on line 10 of the fixture (leading newline first). *)
        check Alcotest.int "span line" 10 d.span.line;
        check Alcotest.bool "span col set" true (d.span.col >= 1))

(* ---------- reporters ---------- *)

let test_jsonl_shape () =
  let ds, _ = Lint.run (syntactic_ctx ()) in
  let lines = String.split_on_char '\n' (String.trim (Report.jsonl ds)) in
  check Alcotest.int "one line per finding" (List.length ds) (List.length lines);
  List.iter2
    (fun line (d : Diagnostic.t) ->
      match Json.of_string line with
      | Error e -> Alcotest.failf "bad jsonl line %S: %s" line e
      | Ok j ->
        check (Alcotest.option Alcotest.string) "rule" (Some d.rule)
          (Option.bind (Json.member "rule" j) Json.to_str);
        check (Alcotest.option Alcotest.string) "entity" (Some d.entity)
          (Option.bind (Json.member "entity" j) Json.to_str);
        check (Alcotest.option Alcotest.string) "fingerprint" (Some (Diagnostic.fingerprint d))
          (Option.bind (Json.member "fingerprint" j) Json.to_str))
    lines ds

let test_sarif_shape () =
  (* Validate the SARIF 2.1.0 shape through the strict Json parser. *)
  let ds, _ = Lint.run (syntactic_ctx ()) in
  check Alcotest.bool "has findings" true (ds <> []);
  let j =
    match Json.of_string (Report.sarif ds) with
    | Ok j -> j
    | Error e -> Alcotest.failf "sarif is not valid JSON: %s" e
  in
  let str path j =
    match Option.bind (Json.member path j) Json.to_str with
    | Some s -> s
    | None -> Alcotest.failf "missing string member %s" path
  in
  check Alcotest.string "version" "2.1.0" (str "version" j);
  check Alcotest.bool "schema names sarif 2.1.0" true
    (contains (str "$schema" j) "sarif" && contains (str "$schema" j) "2.1.0");
  let run =
    match Option.bind (Json.member "runs" j) Json.to_list with
    | Some [ r ] -> r
    | _ -> Alcotest.fail "expected exactly one run"
  in
  let driver = Option.get (Json.member "tool" run) |> Json.member "driver" |> Option.get in
  check Alcotest.string "driver name" "introspect" (str "name" driver);
  let rules = Option.get (Json.to_list (Option.get (Json.member "rules" driver))) in
  check Alcotest.int "one descriptor per registry rule" (List.length Lint.all_rules)
    (List.length rules);
  List.iter
    (fun r ->
      if Json.member "id" r = None || Json.member "shortDescription" r = None then
        Alcotest.fail "rule descriptor lacks id/shortDescription")
    rules;
  let results = Option.get (Json.to_list (Option.get (Json.member "results" run))) in
  check Alcotest.int "one result per finding" (List.length ds) (List.length results);
  List.iter2
    (fun r (d : Diagnostic.t) ->
      check Alcotest.string "ruleId" d.rule (str "ruleId" r);
      let level = str "level" r in
      check Alcotest.bool "level vocabulary" true (List.mem level [ "error"; "warning"; "note" ]);
      let msg = Option.get (Json.member "message" r) in
      check Alcotest.bool "message text" true (contains (str "text" msg) d.message);
      let fp = Option.get (Json.member "partialFingerprints" r) in
      check (Alcotest.option Alcotest.string) "stable fingerprint key"
        (Some (Diagnostic.fingerprint d))
        (Option.bind (Json.member "ipaFindingId/v1" fp) Json.to_str))
    results ds

(* ---------- baselines ---------- *)

let test_baseline_roundtrip () =
  Ipa_testlib.with_temp_dir (fun dir ->
      let path = Filename.concat dir "baseline.json" in
      let ds, _ = Lint.run (syntactic_ctx ()) in
      Baseline.save path ds;
      let b = match Baseline.load path with Ok b -> b | Error e -> Alcotest.fail e in
      check Alcotest.int "round-trip suppresses everything" 0
        (List.length (Baseline.filter_new b ds));
      (* A finding with a different (rule, entity) identity is new; the same
         identity at a different span or message is not. *)
      let d = List.hd ds in
      let moved = { d with span = { d.span with line = d.span.line + 100 }; message = "reworded" } in
      check Alcotest.int "span/message changes stay suppressed" 0
        (List.length (Baseline.filter_new b [ moved ]));
      let novel = { d with entity = d.entity ^ "'" } in
      check (Alcotest.list Alcotest.string) "new identity surfaces"
        [ novel.entity ]
        (entities (Baseline.filter_new b [ novel ])))

let test_baseline_load_errors () =
  Ipa_testlib.with_temp_dir (fun dir ->
      let path = Filename.concat dir "bad.json" in
      Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc "{ nope");
      (match Baseline.load path with
      | Ok _ -> Alcotest.fail "expected load error"
      | Error e -> check Alcotest.bool "mentions the path" true (contains e path));
      match Baseline.load (Filename.concat dir "absent.json") with
      | Ok _ -> Alcotest.fail "expected missing-file error"
      | Error e -> check Alcotest.bool "mentions the missing path" true (contains e "absent.json"))

(* ---------- monotonicity ---------- *)

(* Finding sets of monotone rules — keyed by (rule id, entity), the baseline
   identity — never grow as context-sensitivity increases: every finding
   under a finer analysis must also exist under the coarser one. The chain
   matches the paper's precision ordering: insens ⊒ 2typeH ⊒ 2objH. *)
let monotone_keys p analysis =
  let rules = List.filter (fun r -> r.Lint.monotone) Lint.all_rules in
  let ctx = Lint.make_ctx ~solution:(solve ~analysis p) ~megamorphic_threshold:2 p in
  let ds, _ = Lint.run ~rules ctx in
  List.map (fun (d : Diagnostic.t) -> (d.rule, d.entity)) ds

let test_monotone_rules_shrink =
  qtest ~count:8 "monotone finding sets shrink with precision"
    (QCheck2.Gen.int_range 500 699)
    (fun seed ->
      let p = Ipa_testlib.random_program seed in
      let insens = monotone_keys p "insens" in
      let type2 = monotone_keys p "2typeH" in
      let obj2 = monotone_keys p "2objH" in
      let subset fine coarse name =
        List.iter
          (fun key ->
            if not (List.mem key coarse) then
              QCheck2.Test.fail_reportf "seed %d: finding (%s, %s) in %s but not in the coarser run"
                seed (fst key) (snd key) name)
          fine
      in
      subset type2 insens "2typeH vs insens";
      subset obj2 type2 "2objH vs 2typeH";
      true)

let () =
  Alcotest.run "lint"
    [
      ( "syntactic",
        [
          Alcotest.test_case "unreachable method" `Quick test_unreachable_method;
          Alcotest.test_case "unused variable" `Quick test_unused_variable;
          Alcotest.test_case "write-only field" `Quick test_write_only_field;
          Alcotest.test_case "impossible cast" `Quick test_impossible_cast;
          Alcotest.test_case "shadowed catch" `Quick test_shadowed_catch;
          Alcotest.test_case "wf fan-out" `Quick test_wf_rule_fans_out;
        ] );
      ( "semantic",
        [
          Alcotest.test_case "may-fail cast vs precision" `Quick test_may_fail_cast_precision;
          Alcotest.test_case "silent without solution" `Quick
            test_solution_rules_silent_without_solution;
          Alcotest.test_case "megamorphic call" `Quick test_megamorphic_call;
          Alcotest.test_case "taint flow" `Quick test_taint_flow;
        ] );
      ( "registry",
        [
          Alcotest.test_case "id order" `Quick test_registry_order;
          Alcotest.test_case "selection" `Quick test_select_rules;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "sorted and deduped" `Quick test_findings_sorted_and_deduped;
        ] );
      ( "spans", [ Alcotest.test_case "file positions" `Quick test_spans_from_file ] );
      ( "reporters",
        [
          Alcotest.test_case "jsonl" `Quick test_jsonl_shape;
          Alcotest.test_case "sarif 2.1.0" `Quick test_sarif_shape;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "round-trip" `Quick test_baseline_roundtrip;
          Alcotest.test_case "load errors" `Quick test_baseline_load_errors;
        ] );
      ("monotonicity", [ test_monotone_rules_shrink ]);
    ]

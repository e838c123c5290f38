(* Tests for the client-analysis library and cost diagnostics. *)

module P = Ipa_ir.Program
module Analysis = Ipa_core.Analysis
module Flavors = Ipa_core.Flavors
module Precision = Ipa_core.Precision
module Exns = Ipa_clients.Exception_report
module Cg = Ipa_clients.Callgraph_export
module Diag = Ipa_core.Diagnostics

let check = Alcotest.check
let parse = Ipa_testlib.parse_exn
let insens = Flavors.Insensitive
let obj2 = Flavors.Object_sens { depth = 2; heap = 1 }

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let poly_src = {|
class Object { }
class A extends Object { method go/0 () { return this; } }
class B extends Object { method go/0 () { return this; } }
class Main {
  static method dead_code/0 () { var d, r; d = new A; r = d.go(); }
  static method main/0 () {
    var x, a, r1, r2;
    x = new A;
    x = new B;
    a = new A;
    r1 = x.go();
    r2 = a.go();
  }
}
entry Main::main/0;
|}

let test_vcalls () =
  let r = Analysis.run_plain (parse poly_src) insens in
  let vcalls = Precision.vcalls r.solution in
  let count n =
    List.length
      (List.filter (fun (v : Precision.vcall) -> List.compare_length_with v.targets n = 0) vcalls)
  in
  (* x.go is polymorphic; a.go monomorphic; dead_code's call unreachable *)
  check Alcotest.int "mono" 1 (count 1);
  check Alcotest.int "poly" 1 (List.length (List.filter Precision.polymorphic vcalls));
  check Alcotest.int "dead" 1 (count 0);
  check Alcotest.int "one report per virtual site" 3 (List.length vcalls);
  let poly_targets =
    List.concat_map
      (fun (v : Precision.vcall) -> if Precision.polymorphic v then v.targets else [])
      vcalls
  in
  check Alcotest.int "two targets" 2 (List.length poly_targets)

let test_casts () =
  let unsafe_count s = List.length (List.filter Precision.may_fail (Precision.casts s)) in
  let r = Analysis.run_plain (parse Ipa_testlib.boxes_src) insens in
  check Alcotest.int "one unsafe" 1 (unsafe_count r.solution);
  let reports = Precision.casts r.solution in
  check Alcotest.int "one cast total" 1 (List.length reports);
  let c = List.hd reports in
  check Alcotest.int "one witness" 1 (List.length c.witnesses);
  (* witness is the A object flowing into the (B) cast *)
  check Alcotest.string "witness object" "Main::main/new A#2"
    (P.heap_full_name r.solution.program (List.hd c.witnesses));
  let precise = Analysis.run_plain (parse Ipa_testlib.boxes_src) obj2 in
  check Alcotest.int "precise finds none" 0 (unsafe_count precise.solution);
  check Alcotest.int "cast still reported" 1 (List.length (Precision.casts precise.solution));
  (* program order: methods ascending, then body index ascending *)
  let order_src = {|
class Object { }
class A extends Object { }
class Main {
  static method first/0 () { var x, a, o; x = new A; a = (A) x; o = (Object) x; }
  static method main/0 () { var y, b; Main::first(); y = new Object; b = (A) y; }
}
entry Main::main/0;
|} in
  let ordered = Analysis.run_plain (parse order_src) insens in
  let p = ordered.solution.program in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "program order"
    [ ("Main::first/0", "A"); ("Main::first/0", "Object"); ("Main::main/0", "A") ]
    (List.map
       (fun (c : Precision.cast) -> (P.meth_full_name p c.meth, P.class_name p c.target_type))
       (Precision.casts ordered.solution));
  check Alcotest.int "only the Object-to-A cast may fail" 1 (unsafe_count ordered.solution)

let exn_src = {|
class Object { }
class Err extends Object { }
class SubErr extends Err { }
class Main {
  static method risky/0 () { var e; e = new SubErr; throw e; }
  static method boom/0 () { var e; e = new Err; throw e; }
  static method main/0 () {
    var c;
    catch (SubErr) c;
    Main::risky();
    Main::boom();
  }
}
entry Main::main/0;
|}

let test_exception_report () =
  let r = Analysis.run_plain (parse exn_src) insens in
  let uncaught = Precision.uncaught r.solution in
  check Alcotest.int "one entry with escapes" 1 (List.length uncaught);
  let u = List.hd uncaught in
  check Alcotest.int "one escaped object" 1 (List.length u.objects);
  check Alcotest.string "escaped is Err" "Main::boom/new Err#0"
    (P.heap_full_name r.solution.program (List.hd u.objects));
  let handlers = Exns.handlers r.solution in
  check Alcotest.int "one handler" 1 (List.length handlers);
  let h = List.hd handlers in
  check Alcotest.int "binds the SubErr" 1 (List.length h.objects)

let test_dead_handler_reported () =
  let src = {|
class Object { }
class Err extends Object { }
class Main {
  static method main/0 () { var c, x; catch (Err) c; x = new Object; }
}
entry Main::main/0;
|} in
  let r = Analysis.run_plain (parse src) insens in
  let handlers = Exns.handlers r.solution in
  check Alcotest.int "handler listed" 1 (List.length handlers);
  check Alcotest.int "never reached" 0 (List.length (List.hd handlers).objects)

let test_callgraph_export () =
  let r = Analysis.run_plain (parse poly_src) insens in
  let edges = Cg.to_edges r.solution in
  (* main -> A::go, main -> B::go *)
  check Alcotest.int "two collapsed edges" 2 (List.length edges);
  let dot = Cg.to_dot r.solution in
  check Alcotest.bool "dot header" true (contains dot "digraph callgraph");
  check Alcotest.bool "entry marked" true (contains dot "Main::main/0\" [style=filled");
  check Alcotest.bool "edge present" true (contains dot "\"Main::main/0\" -> \"A::go/0\";");
  let path = Filename.temp_file "ipa_cg" ".dot" in
  Cg.write_dot r.solution ~path;
  let content = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  check Alcotest.string "file matches" dot content

let test_compare () =
  let p = parse Ipa_testlib.boxes_src in
  let coarse = Analysis.run_plain p insens in
  let fine = Analysis.run_plain p obj2 in
  let d = Ipa_clients.Compare.diff coarse.solution fine.solution in
  check Alcotest.int "one cast proven safe" 1 (List.length d.casts_proven_safe);
  check Alcotest.int "no casts lost" 0 (List.length d.casts_lost);
  check Alcotest.int "nothing devirtualized" 0 (List.length d.devirtualized);
  check Alcotest.int "no unreachable delta" 0 (List.length d.newly_unreachable);
  check Alcotest.int "no exception delta" 0 d.uncaught_delta;
  (* reflexive diff is empty *)
  let d0 = Ipa_clients.Compare.diff coarse.solution coarse.solution in
  check Alcotest.int "reflexive" 0
    (List.length d0.casts_proven_safe + List.length d0.casts_lost
    + List.length d0.devirtualized
    + List.length d0.newly_unreachable);
  (* the anti-refinement direction is reported, not hidden *)
  let d_rev = Ipa_clients.Compare.diff fine.solution coarse.solution in
  check Alcotest.int "reverse reports lost" 1 (List.length d_rev.casts_lost);
  (* different programs rejected *)
  let other = Analysis.run_plain (parse Ipa_testlib.boxes_src) insens in
  match Ipa_clients.Compare.diff coarse.solution other.solution with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_compare_poly_and_reach () =
  let p = parse poly_src in
  let coarse = Analysis.run_plain p insens in
  let fine = Analysis.run_plain p obj2 in
  let d = Ipa_clients.Compare.diff coarse.solution fine.solution in
  (* x still points to A and B under any context here: no devirt delta *)
  check Alcotest.int "still poly" 0 (List.length d.devirtualized);
  check Alcotest.int "no reach delta" 0 (List.length d.newly_unreachable)

let test_diagnostics () =
  let spec = Option.get (Ipa_synthetic.Dacapo.find "hsqldb") in
  let p = Ipa_synthetic.Dacapo.build ~scale:0.1 spec in
  let r = Analysis.run_plain p obj2 in
  let top = Diag.top_methods ~limit:3 r.solution in
  check Alcotest.int "three rows" 3 (List.length top);
  (* hotspots must be sorted and dominated by the hub users *)
  (match top with
  | a :: b :: _ ->
    check Alcotest.bool "sorted" true (a.Diag.vpt_tuples >= b.Diag.vpt_tuples);
    let name = P.meth_full_name p a.Diag.meth in
    check Alcotest.bool "hub user hottest" true
      (contains name "HubUser" || contains name "main")
  | _ -> Alcotest.fail "missing rows");
  let objs = Diag.top_objects ~limit:5 r.solution in
  check Alcotest.int "five object rows" 5 (List.length objs);
  (match objs with
  | a :: b :: _ -> check Alcotest.bool "objects sorted" true (a.Diag.pointed_by_nodes >= b.Diag.pointed_by_nodes)
  | _ -> Alcotest.fail "missing object rows");
  (* totals agree with solution stats *)
  let d = Diag.compute r.solution in
  let total = List.fold_left (fun acc (row : Diag.meth_row) -> acc + row.vpt_tuples) 0 d.methods in
  check Alcotest.int "tuples accounted" (Ipa_core.Solution.stats r.solution).vpt_tuples total

let test_printers_smoke () =
  (* The report printers must run on a representative solution (output is
     captured by the test harness; this guards against exceptions in the
     formatting paths). *)
  let p = parse exn_src in
  let r = Analysis.run_plain p insens in
  Exns.print r.solution;
  Diag.print ~limit:5 r.solution;
  Ipa_clients.Compare.print r.solution r.solution;
  let boxes_p = parse Ipa_testlib.boxes_src in
  Ipa_clients.Compare.print
    (Analysis.run_plain boxes_p insens).solution
    (Analysis.run_plain boxes_p obj2).solution

(* ---------- value-flow graph ---------- *)

module VF = Ipa_core.Value_flow
module Taint = Ipa_clients.Taint

let var_named p name =
  let rec go v =
    if v >= P.n_vars p then Alcotest.failf "no var named %s" name
    else if P.var_full_name p v = name then v
    else go (v + 1)
  in
  go 0

let test_value_flow_boxes () =
  let r = Analysis.run_plain (parse Ipa_testlib.boxes_src) insens in
  let g = VF.build r.solution in
  check Alcotest.bool "has nodes" true (VF.n_nodes g > 0);
  check Alcotest.bool "has edges" true (VF.n_edges g > 0);
  let v name = VF.var_node g (var_named r.solution.program name) in
  (match VF.kind g (v "Main::main/0$oa") with
  | VF.Var _ -> ()
  | _ -> Alcotest.fail "var node decodes to Var");
  (* oa flows through Box::set into the val slot and out through Box::get;
     the collapsed graph conflates the two boxes via the shared accessors,
     so both readers are reached. *)
  let reach = VF.reachable g ~seeds:[ v "Main::main/0$oa" ] in
  check Alcotest.bool "ra reached" true (Ipa_support.Int_set.mem reach (v "Main::main/0$ra"));
  check Alcotest.bool "rb reached" true (Ipa_support.Int_set.mem reach (v "Main::main/0$rb"));
  (match VF.find_path g ~seeds:[ v "Main::main/0$oa" ] ~target:(v "Main::main/0$ra") with
  | None -> Alcotest.fail "no witness path"
  | Some path ->
    check Alcotest.int "path starts at the seed" (v "Main::main/0$oa") (List.hd path);
    check Alcotest.int "path ends at the target" (v "Main::main/0$ra")
      (List.nth path (List.length path - 1)));
  (* blocking the field plane cuts the flow entirely *)
  let blocked n = match VF.kind g n with VF.Fld _ -> true | _ -> false in
  check Alcotest.bool "blocked field cuts flow" false
    (Ipa_support.Int_set.mem
       (VF.reachable ~blocked g ~seeds:[ v "Main::main/0$oa" ])
       (v "Main::main/0$ra"))

(* ---------- taint ---------- *)

let taint_direct_src = {|
class Object { }
class Secret { }
class TaintWell { static method mkSecret/0 () { var s; s = new Secret; return s; } }
class Sink { static method consume/1 (x) { } }
class Main {
  static method idf/1 (p) { return p; }
  static method main/0 () {
    var a, b, c;
    a = TaintWell::mkSecret();
    b = Main::idf(a);
    c = b;
    Sink::consume(c);
  }
}
entry Main::main/0;
|}

let test_taint_direct () =
  let r = Analysis.run_plain (parse taint_direct_src) insens in
  let t = Taint.analyze r.solution in
  (* the ret var of mkSecret and the Secret allocation target *)
  check Alcotest.int "seeds" 2 t.n_seeds;
  check Alcotest.int "one finding" 1 (List.length t.findings);
  let f = List.hd t.findings in
  check Alcotest.int "arg index" 0 f.arg;
  check Alcotest.string "resolved sink" "Sink::consume/1"
    (P.meth_full_name r.solution.program f.sink);
  (* witness runs from a seed to the tainted actual, through the identity
     helper's param/return edges *)
  let g = Option.get t.vfg in
  check Alcotest.bool "path nonempty" true (f.path <> []);
  check Alcotest.int "witness ends at the actual"
    (VF.var_node g (var_named r.solution.program "Main::main/0$c"))
    (List.nth f.path (List.length f.path - 1));
  check Alcotest.int "count agrees" 1 (Taint.tainted_sink_count r.solution)

let taint_heap_src = {|
class Object { }
class Secret { }
class TaintWell { static method mkSecret/0 () { var s; s = new Secret; return s; } }
class Sink { static method consume/1 (x) { } }
class Box {
  field val;
  method put/1 (x) { this.val = x; }
  method get/0 () { var t; t = this.val; return t; }
}
class Globals { static field cache; }
class Main {
  static method main/0 () {
    var s, b, o, g;
    s = TaintWell::mkSecret();
    b = new Box;
    b.put(s);
    o = b.get();
    Sink::consume(o);
    Globals::cache = s;
    g = Globals::cache;
    Sink::consume(g);
  }
}
entry Main::main/0;
|}

let test_taint_through_heap () =
  (* Taint crosses instance-field and static-field indirections. *)
  let r = Analysis.run_plain (parse taint_heap_src) insens in
  let t = Taint.analyze r.solution in
  check Alcotest.int "both sinks tainted" 2 (List.length t.findings);
  let g = Option.get t.vfg in
  let kinds f =
    List.map (fun n -> VF.kind g n) f.Taint.path
  in
  let has pred f = List.exists pred (kinds f) in
  check Alcotest.bool "one witness crosses a field slot" true
    (List.exists (has (function VF.Fld _ -> true | _ -> false)) t.findings);
  check Alcotest.bool "one witness crosses the static field" true
    (List.exists (has (function VF.Static_fld _ -> true | _ -> false)) t.findings)

let taint_sanitizer_src = {|
class Object { }
class Secret { }
class TaintWell { static method mkSecret/0 () { var s; s = new Secret; return s; } }
class Scrubber { static method scrub/1 (x) { return x; } }
class Sink { static method consume/1 (x) { } }
class Main {
  static method main/0 () {
    var s, w;
    s = TaintWell::mkSecret();
    w = Scrubber::scrub(s);
    Sink::consume(w);
  }
}
entry Main::main/0;
|}

let test_taint_sanitizer () =
  let r = Analysis.run_plain (parse taint_sanitizer_src) insens in
  check Alcotest.int "scrubbed flow is cut" 0 (Taint.tainted_sink_count r.solution);
  (* the cut is the sanitizer, not a missing edge: dropping the sanitizer
     pattern resurrects the finding *)
  let spec = { Taint.default_spec with sanitizers = [] } in
  check Alcotest.int "without sanitizers it flows" 1
    (Taint.tainted_sink_count ~spec r.solution)

let test_taint_no_source_fast_path () =
  let r = Analysis.run_plain (parse poly_src) insens in
  let t = Taint.analyze r.solution in
  check Alcotest.int "no seeds" 0 t.n_seeds;
  check Alcotest.int "no findings" 0 (List.length t.findings);
  check Alcotest.bool "no graph built" true (t.vfg = None)

(* Two pipeline clients share one handler-box allocation site inside a
   static factory (the examples/taint_demo.jir shape, reduced). Only the
   hot client's payload is a secret; context-insensitively the handler read
   back conflates across clients. *)
let taint_separable_src = {|
class Object { }
class Secret { }
class CleanData { }
class TaintSink { method consume/1 (x) { } }
class TaintWell { static method mkSecret/0 () { var s; s = new Secret; return s; } }
interface Deliverable { method deliver/1; }
class HandBox {
  field slot;
  method hput/1 (x) { this.slot = x; }
  method hget/0 () { var t; t = this.slot; return t; }
}
class PipeFactory {
  static method mkBox/0 () { var b; b = new HandBox; return b; }
}
class HotHandler extends Object implements Deliverable {
  method deliver/1 (x) { var snk; snk = new TaintSink; snk.consume(x); }
}
class ColdHandler extends Object implements Deliverable {
  method deliver/1 (x) { var snk; snk = new TaintSink; snk.consume(x); }
}
class HotClient {
  method run/0 () {
    var b, h, g, p;
    b = PipeFactory::mkBox();
    h = new HotHandler;
    b.hput(h);
    g = b.hget();
    p = TaintWell::mkSecret();
    g.deliver(p);
  }
}
class ColdClient {
  method run/0 () {
    var b, h, g, p;
    b = PipeFactory::mkBox();
    h = new ColdHandler;
    b.hput(h);
    g = b.hget();
    p = new CleanData;
    g.deliver(p);
  }
}
class Launcher {
  static method main/0 () {
    var a, l;
    a = new HotClient;
    a.run();
    l = new ColdClient;
    l.run();
  }
}
entry Launcher::main/0;
|}

let test_taint_context_precision () =
  let p = parse taint_separable_src in
  let coarse = Analysis.run_plain p insens in
  let fine = Analysis.run_plain p obj2 in
  (* insens conflates the handlers read back from the shared box allocation
     site, so the secret reaches both consume sites; 2objH keys the box by
     its client and pins the secret to the hot handler. *)
  check Alcotest.int "insens conflates" 2 (Taint.tainted_sink_count coarse.solution);
  check Alcotest.int "2objH separates" 1 (Taint.tainted_sink_count fine.solution);
  let t = Taint.analyze fine.solution in
  let f = List.hd t.findings in
  check Alcotest.string "the hot sink" "TaintSink::consume/1"
    (P.meth_full_name p f.sink);
  check Alcotest.string "at the hot handler's call site" "HotHandler::deliver/1"
    (P.meth_full_name p (P.invo_info p f.invo).invo_owner)

let test_taint_spec_parsing () =
  let text = {|
# a comment line
source *::getSecret/0
source-class Evil*   # trailing comment
sink *::emit/1
sink *::emit/2
sanitizer *::wash/1
|} in
  (match Taint.spec_of_string text with
  | Error e -> Alcotest.failf "unexpected parse error: %s" e
  | Ok spec ->
    check (Alcotest.list Alcotest.string) "sources" [ "*::getSecret/0" ] spec.sources;
    check (Alcotest.list Alcotest.string) "source classes" [ "Evil*" ] spec.source_classes;
    check (Alcotest.list Alcotest.string) "sinks" [ "*::emit/1"; "*::emit/2" ] spec.sinks;
    check (Alcotest.list Alcotest.string) "sanitizers" [ "*::wash/1" ] spec.sanitizers);
  (* round trip *)
  (match Taint.spec_of_string (Taint.spec_to_string Taint.default_spec) with
  | Ok spec -> check Alcotest.bool "round trip" true (spec = Taint.default_spec)
  | Error e -> Alcotest.failf "round trip failed: %s" e);
  (* errors carry the line number *)
  (match Taint.spec_of_string "source *::ok/0\nbogus *::x/1" with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error e -> check Alcotest.bool "line number" true (contains e "line 2"));
  match Taint.spec_of_string "source" with
  | Ok _ -> Alcotest.fail "expected an error for missing pattern"
  | Error _ -> ()

let test_taint_glob () =
  let m pat s = Taint.glob_match ~pat s in
  check Alcotest.bool "exact" true (m "Sink::consume/1" "Sink::consume/1");
  check Alcotest.bool "prefix star" true (m "*::consume/1" "TaintSink::consume/1");
  check Alcotest.bool "class prefix" true (m "Secret*" "SecretKey");
  check Alcotest.bool "star matches empty" true (m "Secret*" "Secret");
  check Alcotest.bool "anchored" false (m "Secret*" "MySecret");
  check Alcotest.bool "arity distinguishes" false (m "*::consume/1" "Sink::consume/2");
  check Alcotest.bool "multi star" true (m "a*b*c" "aXXbYYc");
  check Alcotest.bool "multi star needs all parts" false (m "a*b*c" "ac");
  check Alcotest.bool "lone star" true (m "*" "anything")

(* ---------- Datalog surface-language export ---------- *)

let test_dl_export_matches_native () =
  (* The exported .dl program's vpt/cg/reach must equal the native
     context-insensitive results (on exception-free programs — the export
     omits exception flow). *)
  let programs =
    [
      parse Ipa_testlib.boxes_src;
      parse poly_src;
      (let w = Ipa_synthetic.World.create () in
       Ipa_synthetic.Motifs.factory_boxes w ~n:4;
       Ipa_synthetic.Motifs.chains w ~n:3 ~depth:3;
       Ipa_synthetic.Motifs.mega_hub w ~items:10 ~users:4 ~chain:2;
       Ipa_synthetic.World.finish w);
    ]
  in
  List.iter
    (fun p ->
      let script = Ipa_clients.Dl_export.script p in
      let dl = Result.get_ok (Ipa_datalog.Dl.parse script) in
      let outputs = Result.get_ok (Ipa_datalog.Dl.run dl) in
      let dl_rel name =
        List.sort_uniq compare
          (List.map
             (fun tup ->
               String.concat " "
                 (List.map
                    (function Ipa_datalog.Dl.Sym s -> s | Int n -> string_of_int n)
                    tup))
             (List.assoc name outputs))
      in
      let r = Analysis.run_plain p insens in
      let s = r.solution in
      let native_vpt = ref [] in
      Array.iteri
        (fun v set ->
          Ipa_support.Int_set.iter
            (fun h ->
              native_vpt :=
                (P.var_full_name p v ^ " " ^ P.heap_full_name p h) :: !native_vpt)
            set)
        (Ipa_core.Solution.collapsed_var_pts s);
      check (Alcotest.list Alcotest.string) "vpt agrees"
        (List.sort_uniq compare !native_vpt)
        (dl_rel "vpt");
      let native_cg = ref [] in
      Hashtbl.iter
        (fun invo targets ->
          Ipa_support.Int_set.iter
            (fun meth ->
              native_cg :=
                ((P.invo_info p invo).invo_name ^ " " ^ P.meth_full_name p meth)
                :: !native_cg)
            targets)
        (Ipa_core.Solution.call_targets s);
      check (Alcotest.list Alcotest.string) "cg agrees"
        (List.sort_uniq compare !native_cg)
        (dl_rel "cg");
      let native_reach =
        List.sort_uniq compare
          (Ipa_support.Int_set.fold
             (fun m acc -> P.meth_full_name p m :: acc)
             (Ipa_core.Solution.reachable_meths s) [])
      in
      check (Alcotest.list Alcotest.string) "reach agrees" native_reach (dl_rel "reach"))
    programs

let () =
  Alcotest.run "clients"
    [
      ( "precision verdicts",
        [
          Alcotest.test_case "vcalls" `Quick test_vcalls;
          Alcotest.test_case "casts" `Quick test_casts;
        ] );
      ( "exceptions",
        [
          Alcotest.test_case "uncaught and handlers" `Quick test_exception_report;
          Alcotest.test_case "dead handler" `Quick test_dead_handler_reported;
        ] );
      ("callgraph", [ Alcotest.test_case "dot export" `Quick test_callgraph_export ]);
      ( "compare",
        [
          Alcotest.test_case "boxes delta" `Quick test_compare;
          Alcotest.test_case "poly and reach" `Quick test_compare_poly_and_reach;
        ] );
      ("diagnostics", [ Alcotest.test_case "hotspots" `Quick test_diagnostics ]);
      ("printers", [ Alcotest.test_case "smoke" `Quick test_printers_smoke ]);
      ( "value flow",
        [ Alcotest.test_case "boxes graph" `Quick test_value_flow_boxes ] );
      ( "taint",
        [
          Alcotest.test_case "direct flow" `Quick test_taint_direct;
          Alcotest.test_case "heap flow" `Quick test_taint_through_heap;
          Alcotest.test_case "sanitizer" `Quick test_taint_sanitizer;
          Alcotest.test_case "no-source fast path" `Quick test_taint_no_source_fast_path;
          Alcotest.test_case "context precision" `Quick test_taint_context_precision;
          Alcotest.test_case "spec parsing" `Quick test_taint_spec_parsing;
          Alcotest.test_case "glob" `Quick test_taint_glob;
        ] );
      ( "dl export",
        [ Alcotest.test_case "matches native insens" `Quick test_dl_export_matches_native ] );
    ]

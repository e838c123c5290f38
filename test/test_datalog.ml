(* Tests for the generic Datalog engine: relations, rule validation,
   semi-naive evaluation, negation, external functions, guards, aggregation,
   and budgets. *)

module Relation = Ipa_datalog.Relation
module Rule = Ipa_datalog.Rule
module Engine = Ipa_datalog.Engine
module Aggregate = Ipa_datalog.Aggregate

let check = Alcotest.check
let v i = Rule.Var i
let c x = Rule.Const x

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ---------- Relation ---------- *)

let test_relation_basic () =
  let r = Relation.create ~name:"r" ~arity:2 in
  check Alcotest.bool "add new" true (Relation.add r [| 1; 2 |]);
  check Alcotest.bool "add dup" false (Relation.add r [| 1; 2 |]);
  check Alcotest.bool "mem" true (Relation.mem r [| 1; 2 |]);
  check Alcotest.bool "not mem" false (Relation.mem r [| 2; 1 |]);
  check Alcotest.int "size" 1 (Relation.size r);
  check Alcotest.string "name" "r" (Relation.name r);
  check Alcotest.int "arity" 2 (Relation.arity r);
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Relation.add: r expects arity 2, got 3") (fun () ->
      ignore (Relation.add r [| 1; 2; 3 |]))

let test_relation_ranges_and_indexes () =
  let r = Relation.create ~name:"r" ~arity:2 in
  for i = 0 to 9 do
    ignore (Relation.add r [| i mod 3; i |])
  done;
  let seen = ref 0 in
  Relation.iter_range (fun _ -> incr seen) r ~lo:2 ~hi:5;
  check Alcotest.int "range width" 3 !seen;
  let hits = ref [] in
  Relation.iter_matching r ~cols:[ 0 ] ~key:[| 1 |] ~lo:0 ~hi:100 (fun t ->
      hits := t.(1) :: !hits);
  check (Alcotest.slist Alcotest.int compare) "index matches" [ 1; 4; 7 ] !hits;
  (* index stays correct for tuples added after creation *)
  ignore (Relation.add r [| 1; 99 |]);
  let hits = ref [] in
  Relation.iter_matching r ~cols:[ 0 ] ~key:[| 1 |] ~lo:0 ~hi:100 (fun t ->
      hits := t.(1) :: !hits);
  check (Alcotest.slist Alcotest.int compare) "incremental index" [ 1; 4; 7; 99 ] !hits;
  Relation.clear r;
  check Alcotest.int "cleared" 0 (Relation.size r)

(* ---------- Rule validation ---------- *)

let test_rule_validation () =
  let r = Relation.create ~name:"r" ~arity:2 in
  let s = Relation.create ~name:"s" ~arity:1 in
  let expect_invalid what f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "arity" (fun () ->
      Rule.make ~n_vars:1 ~heads:[ (s, [| v 0 |]) ] ~body:[ (r, [| v 0 |]) ] ());
  expect_invalid "unbound head" (fun () ->
      Rule.make ~n_vars:2 ~heads:[ (s, [| v 1 |]) ] ~body:[ (r, [| v 0; v 0 |]) ] ());
  expect_invalid "var range" (fun () ->
      Rule.make ~n_vars:1 ~heads:[ (s, [| v 5 |]) ] ~body:[ (r, [| v 5; v 5 |]) ] ());
  expect_invalid "no heads" (fun () ->
      Rule.make ~n_vars:1 ~heads:[] ~body:[ (r, [| v 0; v 0 |]) ] ());
  expect_invalid "unbound negation" (fun () ->
      Rule.make ~n_vars:2 ~heads:[ (s, [| v 0 |]) ]
        ~body:[ (r, [| v 0; v 0 |]) ]
        ~neg:[ (r, [| v 0; v 1 |]) ]
        ());
  (* a let binds a variable, making it usable in the head *)
  ignore
    (Rule.make ~n_vars:2 ~heads:[ (s, [| v 1 |]) ] ~body:[ (r, [| v 0; v 0 |]) ]
       ~lets:[ (1, fun env -> env.(0) + 1) ]
       ())

(* ---------- Engine: transitive closure ---------- *)

let tc_rules edge path =
  [
    Rule.make ~n_vars:2 ~heads:[ (path, [| v 0; v 1 |]) ]
      ~body:[ (edge, [| v 0; v 1 |]) ] ();
    Rule.make ~n_vars:3 ~heads:[ (path, [| v 0; v 2 |]) ]
      ~body:[ (edge, [| v 0; v 1 |]); (path, [| v 1; v 2 |]) ] ();
  ]

let test_tc_chain () =
  let edge = Relation.create ~name:"edge" ~arity:2 in
  let path = Relation.create ~name:"path" ~arity:2 in
  for i = 0 to 9 do
    ignore (Relation.add edge [| i; i + 1 |])
  done;
  ignore (Engine.fixpoint (tc_rules edge path));
  check Alcotest.int "path count" (11 * 10 / 2) (Relation.size path);
  check Alcotest.bool "0->10" true (Relation.mem path [| 0; 10 |]);
  check Alcotest.bool "no back" false (Relation.mem path [| 10; 0 |])

let test_tc_cycle () =
  let edge = Relation.create ~name:"edge" ~arity:2 in
  let path = Relation.create ~name:"path" ~arity:2 in
  ignore (Relation.add edge [| 0; 1 |]);
  ignore (Relation.add edge [| 1; 2 |]);
  ignore (Relation.add edge [| 2; 0 |]);
  ignore (Engine.fixpoint (tc_rules edge path));
  check Alcotest.int "complete digraph" 9 (Relation.size path)

(* Reference transitive closure for the property test. *)
let reference_tc edges n =
  let reach = Array.make_matrix n n false in
  List.iter (fun (a, b) -> reach.(a).(b) <- true) edges;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if reach.(i).(k) && reach.(k).(j) then reach.(i).(j) <- true
      done
    done
  done;
  reach

let prop_tc_matches_reference =
  qtest "TC matches Floyd-Warshall"
    QCheck2.Gen.(list_size (int_bound 30) (pair (int_bound 7) (int_bound 7)))
    (fun edges ->
      let n = 8 in
      let edge = Relation.create ~name:"edge" ~arity:2 in
      let path = Relation.create ~name:"path" ~arity:2 in
      List.iter (fun (a, b) -> ignore (Relation.add edge [| a; b |])) edges;
      ignore (Engine.fixpoint (tc_rules edge path));
      let reach = reference_tc edges n in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if reach.(i).(j) <> Relation.mem path [| i; j |] then ok := false
        done
      done;
      !ok)

(* ---------- same-variable patterns ---------- *)

let test_repeated_variable () =
  let edge = Relation.create ~name:"edge" ~arity:2 in
  let loop = Relation.create ~name:"loop" ~arity:1 in
  ignore (Relation.add edge [| 1; 1 |]);
  ignore (Relation.add edge [| 1; 2 |]);
  ignore (Relation.add edge [| 2; 2 |]);
  let rule =
    Rule.make ~n_vars:1 ~heads:[ (loop, [| v 0 |]) ] ~body:[ (edge, [| v 0; v 0 |]) ] ()
  in
  ignore (Engine.fixpoint [ rule ]);
  check Alcotest.int "self loops" 2 (Relation.size loop)

let test_constants_in_atoms () =
  let edge = Relation.create ~name:"edge" ~arity:2 in
  let from_one = Relation.create ~name:"from1" ~arity:1 in
  ignore (Relation.add edge [| 1; 5 |]);
  ignore (Relation.add edge [| 2; 6 |]);
  ignore (Relation.add edge [| 1; 7 |]);
  let rule =
    Rule.make ~n_vars:1 ~heads:[ (from_one, [| v 0 |]) ] ~body:[ (edge, [| c 1; v 0 |]) ] ()
  in
  ignore (Engine.fixpoint [ rule ]);
  check Alcotest.int "selected" 2 (Relation.size from_one);
  check Alcotest.bool "5 in" true (Relation.mem from_one [| 5 |]);
  check Alcotest.bool "6 out" false (Relation.mem from_one [| 6 |])

(* ---------- negation (stratified) ---------- *)

let test_negation () =
  let node = Relation.create ~name:"node" ~arity:1 in
  let edge = Relation.create ~name:"edge" ~arity:2 in
  let reach = Relation.create ~name:"reach" ~arity:1 in
  let unreached = Relation.create ~name:"unreached" ~arity:1 in
  List.iter (fun n -> ignore (Relation.add node [| n |])) [ 0; 1; 2; 3; 4 ];
  ignore (Relation.add edge [| 0; 1 |]);
  ignore (Relation.add edge [| 1; 2 |]);
  ignore (Relation.add reach [| 0 |]);
  let stratum1 =
    [
      Rule.make ~n_vars:2 ~heads:[ (reach, [| v 1 |]) ]
        ~body:[ (reach, [| v 0 |]); (edge, [| v 0; v 1 |]) ]
        ();
    ]
  in
  let stratum2 =
    [
      Rule.make ~n_vars:1 ~heads:[ (unreached, [| v 0 |]) ] ~body:[ (node, [| v 0 |]) ]
        ~neg:[ (reach, [| v 0 |]) ]
        ();
    ]
  in
  ignore (Engine.run_strata [ stratum1; stratum2 ]);
  check Alcotest.int "reached" 3 (Relation.size reach);
  check Alcotest.int "unreached" 2 (Relation.size unreached);
  check Alcotest.bool "3 unreached" true (Relation.mem unreached [| 3 |])

(* ---------- lets and guards ---------- *)

let test_lets_and_guards () =
  let seed = Relation.create ~name:"seed" ~arity:1 in
  let below = Relation.create ~name:"below" ~arity:1 in
  ignore (Relation.add seed [| 0 |]);
  (* below(x+1) <- below(x), x+1 <= 5; seeded from seed(x). *)
  let rules =
    [
      Rule.make ~n_vars:1 ~heads:[ (below, [| v 0 |]) ] ~body:[ (seed, [| v 0 |]) ] ();
      Rule.make ~n_vars:2 ~heads:[ (below, [| v 1 |]) ] ~body:[ (below, [| v 0 |]) ]
        ~lets:[ (1, fun env -> env.(0) + 1) ]
        ~guards:[ (fun env -> env.(1) <= 5) ]
        ();
    ]
  in
  ignore (Engine.fixpoint rules);
  check Alcotest.int "0..5" 6 (Relation.size below);
  check Alcotest.bool "5 in" true (Relation.mem below [| 5 |]);
  check Alcotest.bool "6 out" false (Relation.mem below [| 6 |])

let test_multi_head () =
  let edge = Relation.create ~name:"edge" ~arity:2 in
  let src = Relation.create ~name:"src" ~arity:1 in
  let dst = Relation.create ~name:"dst" ~arity:1 in
  ignore (Relation.add edge [| 3; 4 |]);
  let rule =
    Rule.make ~n_vars:2
      ~heads:[ (src, [| v 0 |]); (dst, [| v 1 |]) ]
      ~body:[ (edge, [| v 0; v 1 |]) ]
      ()
  in
  ignore (Engine.fixpoint [ rule ]);
  check Alcotest.bool "src" true (Relation.mem src [| 3 |]);
  check Alcotest.bool "dst" true (Relation.mem dst [| 4 |])

let test_empty_body_rule () =
  let facts = Relation.create ~name:"facts" ~arity:1 in
  let rule = Rule.make ~n_vars:0 ~heads:[ (facts, [| c 7 |]) ] ~body:[] () in
  let derived = Engine.fixpoint [ rule ] in
  check Alcotest.int "one fact" 1 (Relation.size facts);
  check Alcotest.int "one derivation" 1 derived

let test_budget () =
  let edge = Relation.create ~name:"edge" ~arity:2 in
  let path = Relation.create ~name:"path" ~arity:2 in
  for i = 0 to 99 do
    ignore (Relation.add edge [| i; i + 1 |])
  done;
  match Engine.fixpoint ~budget:50 (tc_rules edge path) with
  | _ -> Alcotest.fail "expected Out_of_budget"
  | exception Engine.Out_of_budget -> ()

let test_derivation_count () =
  let edge = Relation.create ~name:"edge" ~arity:2 in
  let path = Relation.create ~name:"path" ~arity:2 in
  ignore (Relation.add edge [| 0; 1 |]);
  ignore (Relation.add edge [| 1; 2 |]);
  let n = Engine.fixpoint (tc_rules edge path) in
  check Alcotest.int "derivations = inserted tuples" 3 n

(* ---------- aggregation ---------- *)

let test_aggregate_count () =
  let r = Relation.create ~name:"r" ~arity:2 in
  List.iter
    (fun t -> ignore (Relation.add r t))
    [ [| 1; 10 |]; [| 1; 11 |]; [| 2; 10 |] ];
  let out = Relation.create ~name:"out" ~arity:2 in
  Aggregate.count r ~group_by:[ 0 ] ~into:out;
  check Alcotest.bool "count 1" true (Relation.mem out [| 1; 2 |]);
  check Alcotest.bool "count 2" true (Relation.mem out [| 2; 1 |]);
  check Alcotest.int "groups" 2 (Relation.size out)

let test_aggregate_sum_max () =
  let r = Relation.create ~name:"r" ~arity:2 in
  List.iter
    (fun t -> ignore (Relation.add r t))
    [ [| 1; 10 |]; [| 1; 11 |]; [| 2; 5 |] ];
  let sum = Relation.create ~name:"sum" ~arity:2 in
  Aggregate.sum r ~group_by:[ 0 ] ~value:1 ~into:sum;
  check Alcotest.bool "sum 1" true (Relation.mem sum [| 1; 21 |]);
  check Alcotest.bool "sum 2" true (Relation.mem sum [| 2; 5 |]);
  let mx = Relation.create ~name:"max" ~arity:2 in
  Aggregate.max_ r ~group_by:[ 0 ] ~value:1 ~into:mx;
  check Alcotest.bool "max 1" true (Relation.mem mx [| 1; 11 |])

let test_aggregate_validation () =
  let r = Relation.create ~name:"r" ~arity:2 in
  let bad = Relation.create ~name:"bad" ~arity:3 in
  (match Aggregate.count r ~group_by:[ 0 ] ~into:bad with
  | _ -> Alcotest.fail "expected arity error"
  | exception Invalid_argument _ -> ());
  match Aggregate.count r ~group_by:[ 5 ] ~into:(Relation.create ~name:"o" ~arity:2) with
  | _ -> Alcotest.fail "expected column error"
  | exception Invalid_argument _ -> ()

(* ---------- the textual Datalog front-end ---------- *)

module Dl = Ipa_datalog.Dl

let dl_parse_err src fragment =
  match Dl.parse src with
  | Ok _ -> Alcotest.failf "expected parse error (%s)" fragment
  | Error msg ->
    let contains s sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      m = 0 || go 0
    in
    if not (contains msg fragment) then Alcotest.failf "error %S lacks %S" msg fragment

let dl_run src =
  match Dl.parse src with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok p -> (
    match Dl.run p with
    | Error msg -> Alcotest.failf "run failed: %s" msg
    | Ok outputs -> outputs)

let test_dl_transitive_closure () =
  let outputs =
    dl_run
      {|
.decl edge(2)
.decl path(2)
edge(1, 2). edge(2, 3). edge(3, 1).
path(X, Y) :- edge(X, Y).
path(X, Z) :- edge(X, Y), path(Y, Z).
.output path
|}
  in
  match outputs with
  | [ ("path", tuples) ] -> check Alcotest.int "complete digraph" 9 (List.length tuples)
  | _ -> Alcotest.fail "unexpected outputs"

let test_dl_symbols_and_negation () =
  let outputs =
    dl_run
      {|
.decl person(1)
.decl parent(2)
.decl has_child(1)
.decl childless(1)
person("alice"). person("bob"). person("carol").
parent("alice", "bob").
has_child(X) :- parent(X, _).
childless(X) :- person(X), !has_child(X).
.output childless
|}
  in
  match outputs with
  | [ ("childless", tuples) ] ->
    check Alcotest.int "two childless" 2 (List.length tuples);
    check Alcotest.bool "bob childless" true (List.mem [ Dl.Sym "bob" ] tuples)
  | _ -> Alcotest.fail "unexpected outputs"

let test_dl_multilevel_strata () =
  (* negation of a relation that itself uses negation: three strata *)
  let outputs =
    dl_run
      {|
.decl a(1)
.decl b(1)
.decl c(1)
.decl d(1)
a(1). a(2). b(2).
c(X) :- a(X), !b(X).
d(X) :- a(X), !c(X).
.output c
.output d
|}
  in
  match outputs with
  | [ ("c", cs); ("d", ds) ] ->
    check Alcotest.bool "c = {1}" true (cs = [ [ Dl.Int 1 ] ]);
    check Alcotest.bool "d = {2}" true (ds = [ [ Dl.Int 2 ] ])
  | _ -> Alcotest.fail "unexpected outputs"

let test_dl_errors () =
  dl_parse_err ".decl a(1)\nb(1)." "undeclared relation b";
  dl_parse_err ".decl a(2)\na(1)." "expects 2 arguments";
  dl_parse_err ".decl a(1)\na(X)." "facts must be ground";
  dl_parse_err ".decl a(1)\n.decl b(1)\nb(X) :- a(Y)." "not bound";
  dl_parse_err ".decl a(1)\n.decl b(1)\nb(X) :- a(X), !a(Z)." "not bound";
  dl_parse_err ".decl a(1)\n.decl b(1)\nb(X) :- a(X), !a(_)." "'_' is not allowed";
  dl_parse_err
    ".decl u(1)\n.decl a(1)\n.decl b(1)\nu(1).\na(X) :- u(X), !b(X).\nb(X) :- u(X), !a(X)."
    "negation through recursion";
  dl_parse_err ".decl a(1)\n.output zap" ".output of undeclared relation";
  dl_parse_err ".decl a(1)\na(1) junk" "expected '.' or ':-'";
  dl_parse_err "a(1" "expected ')'"

let test_dl_run_to_string () =
  let p =
    Result.get_ok
      (Dl.parse {|
.decl e(2)
e(1, 2). e(3, "x").
.output e
|})
  in
  check (Alcotest.result Alcotest.string Alcotest.string) "rendered"
    (Ok "e(1, 2).\ne(3, \"x\").\n")
    (Dl.run_to_string p)

let test_dl_budget () =
  let p =
    Result.get_ok
      (Dl.parse
         {|
.decl edge(2)
.decl path(2)
edge(1, 2). edge(2, 3). edge(3, 4). edge(4, 5). edge(5, 6).
path(X, Y) :- edge(X, Y).
path(X, Z) :- edge(X, Y), path(Y, Z).
.output path
|})
  in
  match Dl.run ~budget:3 p with
  | Error msg -> check Alcotest.bool "budget error" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "expected budget exhaustion"

let () =
  Alcotest.run "datalog"
    [
      ( "relation",
        [
          Alcotest.test_case "basic" `Quick test_relation_basic;
          Alcotest.test_case "ranges and indexes" `Quick test_relation_ranges_and_indexes;
        ] );
      ("rule", [ Alcotest.test_case "validation" `Quick test_rule_validation ]);
      ( "engine",
        [
          Alcotest.test_case "tc chain" `Quick test_tc_chain;
          Alcotest.test_case "tc cycle" `Quick test_tc_cycle;
          prop_tc_matches_reference;
          Alcotest.test_case "repeated variable" `Quick test_repeated_variable;
          Alcotest.test_case "constants" `Quick test_constants_in_atoms;
          Alcotest.test_case "negation" `Quick test_negation;
          Alcotest.test_case "lets and guards" `Quick test_lets_and_guards;
          Alcotest.test_case "multi-head" `Quick test_multi_head;
          Alcotest.test_case "empty body" `Quick test_empty_body_rule;
          Alcotest.test_case "budget" `Quick test_budget;
          Alcotest.test_case "derivation count" `Quick test_derivation_count;
        ] );
      ( "dl frontend",
        [
          Alcotest.test_case "transitive closure" `Quick test_dl_transitive_closure;
          Alcotest.test_case "symbols and negation" `Quick test_dl_symbols_and_negation;
          Alcotest.test_case "multilevel strata" `Quick test_dl_multilevel_strata;
          Alcotest.test_case "errors" `Quick test_dl_errors;
          Alcotest.test_case "run_to_string" `Quick test_dl_run_to_string;
          Alcotest.test_case "budget" `Quick test_dl_budget;
        ] );
      ( "aggregate",
        [
          Alcotest.test_case "count" `Quick test_aggregate_count;
          Alcotest.test_case "sum and max" `Quick test_aggregate_sum_max;
          Alcotest.test_case "validation" `Quick test_aggregate_validation;
        ] );
    ]

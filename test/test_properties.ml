(* Randomized property tests across the stack:
   - the semi-naive Datalog engine against a naive reference evaluator on
     randomly generated rule/fact instances;
   - subtyping on random hierarchies against graph reachability;
   - catch-chain routing against its first-match specification;
   - context-table algebra;
   - facts-dump diffing;
   - solver determinism and budget monotonicity, and budget-truncated
     solves against the complete fixpoint;
   - the native solver against the Datalog oracle, on random and on
     field-heavy programs;
   - parser robustness on truncated inputs. *)

module P = Ipa_ir.Program
module B = Ipa_ir.Builder
module Ctx = Ipa_core.Ctx
module Relation = Ipa_datalog.Relation
module Rule = Ipa_datalog.Rule
module Engine = Ipa_datalog.Engine
module Splitmix = Ipa_support.Splitmix

let check = Alcotest.check

let qtest ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ---------- Datalog engine vs naive reference ---------- *)

(* Mini rule representation shared by the engine encoding and the naive
   evaluator: three binary relations r0..r2; a rule derives into one of them
   from up to two body atoms. *)
type mini_term = V of int | C of int
type mini_rule = { head : int * mini_term array; body : (int * mini_term array) list }

let naive_eval (facts : (int * (int * int)) list) (rules : mini_rule list) =
  let tuples = Array.make 3 [] in
  List.iter (fun (r, t) -> if not (List.mem t tuples.(r)) then tuples.(r) <- t :: tuples.(r)) facts;
  let lookup env = function V i -> env.(i) | C c -> c in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun { head = hrel, hterms; body } ->
        (* enumerate all bindings of up to 3 variables over the body *)
        let rec go env = function
          | [] ->
            let tup = (lookup env hterms.(0), lookup env hterms.(1)) in
            if not (List.mem tup tuples.(hrel)) then begin
              tuples.(hrel) <- tup :: tuples.(hrel);
              changed := true
            end
          | (brel, bterms) :: rest ->
            List.iter
              (fun (x, y) ->
                let bind env t value =
                  match t with
                  | C c -> if c = value then Some env else None
                  | V i ->
                    if env.(i) = -1 then begin
                      let env' = Array.copy env in
                      env'.(i) <- value;
                      Some env'
                    end
                    else if env.(i) = value then Some env
                    else None
                in
                match bind env bterms.(0) x with
                | None -> ()
                | Some env -> (
                  match bind env bterms.(1) y with
                  | None -> ()
                  | Some env -> go env rest))
              tuples.(brel)
        in
        go (Array.make 3 (-1)) body)
      rules
  done;
  Array.map (List.sort_uniq compare) tuples

let engine_eval facts rules =
  let rels = Array.init 3 (fun i -> Relation.create ~name:(Printf.sprintf "r%d" i) ~arity:2) in
  List.iter (fun (r, (x, y)) -> ignore (Relation.add rels.(r) [| x; y |])) facts;
  let term = function V i -> Rule.Var i | C c -> Rule.Const c in
  let conv (r, ts) = (rels.(r), Array.map term ts) in
  let engine_rules =
    List.map
      (fun { head; body } -> Rule.make ~n_vars:3 ~heads:[ conv head ] ~body:(List.map conv body) ())
      rules
  in
  ignore (Engine.fixpoint engine_rules);
  Array.map
    (fun rel ->
      List.sort_uniq compare (List.map (fun t -> (t.(0), t.(1))) (Relation.to_list rel)))
    rels

(* Random mini-rule whose head variables are all bound by the body. *)
let gen_mini_rule rng =
  let gen_term () = if Splitmix.chance rng 0.2 then C (Splitmix.int rng 4) else V (Splitmix.int rng 3) in
  let gen_atom () = (Splitmix.int rng 3, [| gen_term (); gen_term () |]) in
  let body = List.init (1 + Splitmix.int rng 2) (fun _ -> gen_atom ()) in
  let bound = Array.make 3 false in
  List.iter
    (fun (_, ts) -> Array.iter (function V i -> bound.(i) <- true | C _ -> ()) ts)
    body;
  let head_term () =
    let candidates = List.filter (fun i -> bound.(i)) [ 0; 1; 2 ] in
    if candidates = [] || Splitmix.chance rng 0.15 then C (Splitmix.int rng 4)
    else V (List.nth candidates (Splitmix.int rng (List.length candidates)))
  in
  { head = (Splitmix.int rng 3, [| head_term (); head_term () |]); body }

let test_engine_vs_naive () =
  for seed = 1 to 120 do
    let rng = Splitmix.create (9000 + seed) in
    let facts =
      List.init (2 + Splitmix.int rng 8) (fun _ ->
          (Splitmix.int rng 3, (Splitmix.int rng 4, Splitmix.int rng 4)))
    in
    let rules = List.init (1 + Splitmix.int rng 3) (fun _ -> gen_mini_rule rng) in
    let expected = naive_eval facts rules in
    let got = engine_eval facts rules in
    for r = 0 to 2 do
      if expected.(r) <> got.(r) then
        Alcotest.failf "seed %d relation %d: naive %d tuples, engine %d" seed r
          (List.length expected.(r))
          (List.length got.(r))
    done
  done

(* ---------- subtyping vs reachability ---------- *)

let test_random_hierarchy_subtype () =
  for seed = 1 to 40 do
    let rng = Splitmix.create (7000 + seed) in
    let n = 4 + Splitmix.int rng 10 in
    let b = B.create () in
    let root = B.add_class b "Root" in
    let ids = Array.make (n + 1) root in
    let parent = Array.make (n + 1) 0 in
    for i = 1 to n do
      let super_idx = Splitmix.int rng i in
      parent.(i) <- super_idx;
      ids.(i) <- B.add_class b ~super:ids.(super_idx) (Printf.sprintf "K%d" i)
    done;
    let main = B.add_method b ~owner:root ~name:"main" ~static:true ~params:[] () in
    B.add_entry b main;
    let p = B.finish b in
    (* reference: walk parent pointers *)
    let rec ancestor sub sup = sub = sup || (sub <> 0 && ancestor parent.(sub) sup) in
    for i = 0 to n do
      for j = 0 to n do
        if P.subtype p ~sub:ids.(i) ~super:ids.(j) <> ancestor i j then
          Alcotest.failf "seed %d: subtype(%d, %d) disagrees" seed i j
      done
    done
  done

(* ---------- catch routing ---------- *)

let test_catch_route_spec () =
  for seed = 1 to 40 do
    let rng = Splitmix.create (6000 + seed) in
    let b = B.create () in
    let root = B.add_class b "Root" in
    let classes =
      Array.init 8 (fun i ->
          B.add_class b
            ~super:(if i = 0 || Splitmix.bool rng then root else root)
            (Printf.sprintf "E%d" i))
    in
    (* chain a few subclass relationships *)
    let sub1 = B.add_class b ~super:classes.(0) "Sub1" in
    let sub2 = B.add_class b ~super:sub1 "Sub2" in
    let all = Array.append classes [| root; sub1; sub2 |] in
    let m = B.add_method b ~owner:root ~name:"m" ~static:true ~params:[] () in
    let n_clauses = 1 + Splitmix.int rng 4 in
    let clause_types =
      Array.init n_clauses (fun i ->
          let cls = Splitmix.choose rng all in
          let v = B.add_var b m (Printf.sprintf "c%d" i) in
          B.add_catch b m ~cls ~var:v;
          cls)
    in
    B.add_entry b m;
    let p = B.finish b in
    Array.iter
      (fun thrown ->
        let expected =
          let rec first i =
            if i >= n_clauses then None
            else if P.subtype p ~sub:thrown ~super:clause_types.(i) then Some i
            else first (i + 1)
          in
          first 0
        in
        if P.catch_route p m thrown <> expected then
          Alcotest.failf "seed %d: route disagrees for class %d" seed thrown)
      all
  done

(* ---------- context algebra ---------- *)

let prop_ctx_push_trunc =
  qtest "push_trunc keeps a bounded prefix"
    QCheck2.Gen.(pair (list (int_bound 50)) (int_range 1 4))
    (fun (elems, keep) ->
      let t = Ctx.create () in
      let final =
        List.fold_left
          (fun ctx e -> Ctx.push_trunc t ctx ~elem:(Ctx.Elem.heap e) ~keep)
          Ctx.empty elems
      in
      let got = Array.to_list (Array.map Ctx.Elem.id (Ctx.elems t final)) in
      let expected =
        let rev = List.rev elems in
        List.filteri (fun i _ -> i < keep) rev
      in
      got = expected)

let prop_ctx_intern_stable =
  qtest "intern is injective on element sequences"
    QCheck2.Gen.(pair (list_size (int_bound 4) (int_bound 100)) (list_size (int_bound 4) (int_bound 100)))
    (fun (a, b) ->
      let t = Ctx.create () in
      let ia = Ctx.intern t (Array.of_list (List.map Ctx.Elem.invo a)) in
      let ib = Ctx.intern t (Array.of_list (List.map Ctx.Elem.invo b)) in
      (ia = ib) = (a = b))

(* ---------- facts dump ---------- *)

let prop_facts_diff =
  let module FD = Ipa_clients.Facts_dump in
  qtest "diff of sorted unique lists is set difference"
    QCheck2.Gen.(pair (list (int_bound 30)) (list (int_bound 30)))
    (fun (a, b) ->
      let sa = List.sort_uniq compare (List.map string_of_int a) in
      let sb = List.sort_uniq compare (List.map string_of_int b) in
      let only_a, only_b = FD.diff sa sb in
      only_a = List.filter (fun x -> not (List.mem x sb)) sa
      && only_b = List.filter (fun x -> not (List.mem x sa)) sb)

let test_facts_dump_engines_agree () =
  (* The collapsed dump of the native solver equals nothing missing vs the
     solution's own accessors, and dumps are stable across runs. *)
  for seed = 400 to 404 do
    let p = Ipa_testlib.random_program seed in
    let r1 = Ipa_core.Analysis.run_plain p Ipa_core.Flavors.Insensitive in
    let r2 = Ipa_core.Analysis.run_plain p Ipa_core.Flavors.Insensitive in
    check (Alcotest.list Alcotest.string)
      (Printf.sprintf "stable %d" seed)
      (Ipa_clients.Facts_dump.full_lines r1.solution)
      (Ipa_clients.Facts_dump.full_lines r2.solution)
  done

(* ---------- solver determinism and budget ---------- *)

let test_budget_monotone () =
  let p = Ipa_testlib.parse_exn Ipa_testlib.boxes_src in
  let full = Ipa_core.Analysis.run_plain p Ipa_core.Flavors.Insensitive in
  let total = full.solution.derivations in
  (* any budget >= total completes with identical results *)
  let again = Ipa_core.Analysis.run_plain ~budget:total p Ipa_core.Flavors.Insensitive in
  check Alcotest.bool "exact budget completes" false again.timed_out;
  check (Alcotest.list Alcotest.string) "same result"
    (Ipa_testlib.canon_native full.solution)
    (Ipa_testlib.canon_native again.solution);
  (* any smaller budget times out at exactly budget+1 derivations *)
  for b = 1 to min 20 (total - 1) do
    let r = Ipa_core.Analysis.run_plain ~budget:b p Ipa_core.Flavors.Insensitive in
    check Alcotest.bool "times out" true r.timed_out;
    check Alcotest.int "deterministic cutoff" (b + 1) r.solution.derivations
  done

(* ---------- the native solver against the Datalog oracle ---------- *)

let oracle_flavors =
  Ipa_core.Flavors.
    [
      Insensitive;
      Object_sens { depth = 2; heap = 1 };
      Type_sens { depth = 2; heap = 1 };
      Call_site { depth = 2; heap = 1 };
    ]

(* Every configuration the analysis runs on [p], named: the plain solve of
   each flavor and, for each context-sensitive one, the second pass of both
   introspective heuristics. *)
let production_configs p =
  let base = Ipa_core.Analysis.run_plain p Ipa_core.Flavors.Insensitive in
  let metrics = Ipa_core.Introspection.compute base.solution in
  List.concat_map
    (fun flavor ->
      let name = Ipa_core.Flavors.to_string flavor in
      let plain = (name, Ipa_core.Solver.plain p (Ipa_core.Flavors.strategy p flavor)) in
      if flavor = Ipa_core.Flavors.Insensitive then [ plain ]
      else
        plain
        :: List.map
             (fun heuristic ->
               let refine = Ipa_core.Heuristics.select base.solution metrics heuristic in
               ( name ^ "-" ^ Ipa_core.Heuristics.name heuristic,
                 Ipa_core.Analysis.second_pass_config p flavor refine ))
             [ Ipa_core.Heuristics.default_a; Ipa_core.Heuristics.default_b ])
    oracle_flavors

(* Both renderings are sorted and duplicate-free: walk them together to the
   first tuple only one side has. *)
let rec first_difference ours theirs =
  match (ours, theirs) with
  | [], [] -> None
  | t :: _, [] -> Some ("the oracle does not derive " ^ t)
  | [], t :: _ -> Some ("the solver misses " ^ t)
  | a :: ours', b :: theirs' ->
    let c = compare a b in
    if c = 0 then first_difference ours' theirs'
    else if c < 0 then Some ("the oracle does not derive " ^ a)
    else Some ("the solver misses " ^ b)

(* [Datalog_backend] runs the paper's Figure 3 rules verbatim and shares no
   code with the solver's worklist, cycle collapse, dispatch or
   materialization. [Solver.run] must pass its own soundness self-check and
   compute exactly the oracle's relations. Returns the native solution and
   the first disagreement, if any. *)
let against_oracle p (config : Ipa_core.Solver.config) =
  let native = Ipa_core.Solver.run p config in
  let verdict =
    match Ipa_core.Solution.self_check native with
    | err :: _ -> Some ("self_check: " ^ err)
    | [] ->
      let oracle =
        Ipa_core.Datalog_backend.run p ~default:config.default_strategy
          ~refined:config.refined_strategy ~refine:config.refine ()
      in
      first_difference (Ipa_testlib.canon_native native) (Ipa_testlib.canon_datalog p oracle)
  in
  (native, verdict)

(* Every production configuration of the program a seed generates
   against the oracle. *)
let oracle_property ~count ~name seeds program =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name ~print:string_of_int seeds (fun seed ->
         let p = program seed in
         List.iter
           (fun (name, config) ->
             match snd (against_oracle p config) with
             | None -> ()
             | Some err -> QCheck2.Test.fail_reportf "seed %d %s: %s" seed name err)
           (production_configs p);
         true))

let prop_oracle =
  oracle_property ~count:40 ~name:"Solver.run agrees with the Datalog oracle"
    (QCheck2.Gen.int_range 700 899) Ipa_testlib.random_program

(* Field points-to and merged copy cycles, which [random_program] seldom
   yields. *)
let prop_oracle_field_heavy =
  oracle_property ~count:30 ~name:"Solver.run agrees with the Datalog oracle, field-heavy"
    (QCheck2.Gen.int_range 0 9999) Ipa_testlib.field_heavy_program

(* Every production configuration of [p] against the oracle; returns the
   native solutions by configuration name. *)
let all_against_oracle what p =
  List.map
    (fun (name, config) ->
      match against_oracle p config with
      | native, None -> (name, native)
      | _, Some err -> Alcotest.failf "%s, %s: %s" what name err)
    (production_configs p)

let benchmark name scale =
  Ipa_synthetic.Dacapo.build ~scale (Option.get (Ipa_synthetic.Dacapo.find name))

let test_oracle_jython () =
  let solved = all_against_oracle "jython at scale 0.02" (benchmark "jython" 0.02) in
  (* the interpreter's feedback cycles make the solver actually merge nodes,
     so the check covers collapsed solves, not just trivial ones *)
  let merged = (List.assoc "2callH" solved).counters.nodes_merged in
  check Alcotest.bool "2callH merges cycles" true (merged > 0)

let test_oracle_chart () =
  ignore (all_against_oracle "chart at scale 0.03" (benchmark "chart" 0.03))

(* Copy cycles closed before any object arrives, through variables that are
   the bases of loads, stores and a virtual call, plus a cycle through a
   cast: objects reach the merged nodes only while the worklist drains, so
   the merged-away members' uses must fire on the representative's batches,
   and the cast edge must keep filtering inside its cycle. *)
let cycle_src = {|
class Object { }
class A extends Object { }
class Cell extends Object {
  field f;
  method run/0 () { var t; t = new A; this.f = t; }
}
class Main {
  static method main/0 () {
    var a, c, d, x, y, z, u, v;
    x = y;
    y = x;
    u = x.f;
    v = y.f;
    y.run();
    x.f = d;
    z = (Cell) x;
    x = z;
    c = new Cell;
    d = new Cell;
    a = new A;
    x = c;
    y = a;
  }
}
entry Main::main/0;
|}

let test_oracle_cycles () =
  List.iter
    (fun (name, (native : Ipa_core.Solution.t)) ->
      check Alcotest.bool (name ^ " merges the copy cycle") true
        (native.counters.nodes_merged > 0))
    (all_against_oracle "copy cycles" (Ipa_testlib.parse_exn cycle_src))

(* The field-heavy generator yields what [random_program] seldom does:
   objects with two non-empty fields, and solves that merge copy cycles. *)
let test_field_heavy_coverage () =
  let two_fields = ref 0 and merged = ref 0 in
  for seed = 0 to 19 do
    let p = Ipa_testlib.field_heavy_program seed in
    let base = Ipa_core.Analysis.run_plain p Ipa_core.Flavors.Insensitive in
    let metrics = Ipa_core.Introspection.compute base.solution in
    Array.iteri
      (fun h total -> if total > metrics.obj_max_field.(h) then incr two_fields)
      metrics.obj_total_field;
    List.iter
      (fun (_, config) ->
        if (Ipa_core.Solver.run p config).counters.nodes_merged > 0 then incr merged)
      (production_configs p)
  done;
  check Alcotest.bool "objects with two non-empty fields" true (!two_fields > 0);
  check Alcotest.bool "solves that merge nodes" true (!merged > 0)

(* The first tuple of sorted, duplicate-free [sub] that [sup] lacks. *)
let rec first_extra sub sup =
  match (sub, sup) with
  | [], _ -> None
  | t :: _, [] -> Some t
  | a :: sub', b :: sup' ->
    let c = compare a b in
    if c = 0 then first_extra sub' sup' else if c > 0 then first_extra sub sup' else Some a

(* Where a budget stops a solve depends on the order the worklist drains,
   but whatever it derived by then is sound: every tuple of a truncated
   solve belongs to the complete fixpoint. Compared by entity names, since
   the two solves intern different contexts and objects. *)
let prop_truncated_subset =
  qtest ~count:40 "a budget-truncated solve holds only fixpoint facts"
    QCheck2.Gen.(int_range 0 9999)
    (fun seed ->
      let p =
        if seed mod 2 = 0 then Ipa_testlib.random_program seed
        else Ipa_testlib.field_heavy_program seed
      in
      let rng = Splitmix.create seed in
      List.iter
        (fun (name, (config : Ipa_core.Solver.config)) ->
          let full = Ipa_core.Solver.run p config in
          if full.derivations > 1 then begin
            let budget = 1 + Splitmix.int rng (full.derivations - 1) in
            let cut = Ipa_core.Solver.run p { config with budget } in
            if cut.outcome <> Ipa_core.Solution.Budget_exceeded then
              QCheck2.Test.fail_reportf "seed %d %s: budget %d of %d did not truncate" seed name
                budget full.derivations;
            match first_extra (Ipa_testlib.canon_native cut) (Ipa_testlib.canon_native full) with
            | None -> ()
            | Some t ->
              QCheck2.Test.fail_reportf "seed %d %s, budget %d: %s is no fixpoint fact" seed name
                budget t
          end)
        (production_configs p);
      true)

let config_with p flavor ~field_sensitive : Ipa_core.Solver.config =
  { (Ipa_core.Solver.plain p (Ipa_core.Flavors.strategy p flavor)) with field_sensitive }

let test_field_based_coarser () =
  (* The field-based degradation must over-approximate the field-sensitive
     result: every field-sensitive var fact also holds field-based. *)
  for seed = 520 to 526 do
    let p = Ipa_testlib.random_program seed in
    let flavor = Ipa_core.Flavors.Insensitive in
    let fs =
      Ipa_core.Solver.run p (config_with p flavor ~field_sensitive:true)
    in
    let fb =
      Ipa_core.Solver.run p (config_with p flavor ~field_sensitive:false)
    in
    let collapse (s : Ipa_core.Solution.t) =
      let tbl = Hashtbl.create 64 in
      Ipa_core.Solution.iter_var_pts s (fun ~var ~ctx:_ ~heap ~hctx:_ ->
          Hashtbl.replace tbl (var, heap) ());
      tbl
    in
    let precise = collapse fs and coarse = collapse fb in
    Hashtbl.iter
      (fun k () ->
        if not (Hashtbl.mem coarse k) then
          Alcotest.failf "seed %d: field-based lost a fact" seed)
      precise
  done;
  (* and it must actually be coarser somewhere: the boxes program conflates *)
  let p = Ipa_testlib.parse_exn Ipa_testlib.boxes_src in
  let flavor = Ipa_core.Flavors.Object_sens { depth = 2; heap = 1 } in
  let fs = Ipa_core.Solver.run p (config_with p flavor ~field_sensitive:true) in
  let fb = Ipa_core.Solver.run p (config_with p flavor ~field_sensitive:false) in
  let count (s : Ipa_core.Solution.t) = (Ipa_core.Solution.stats s).vpt_tuples in
  check Alcotest.bool "field-based is coarser on boxes" true (count fb > count fs)

(* ---------- taint monotonicity ---------- *)

let test_taint_monotone () =
  (* Every edge of the collapsed value-flow graph is derived monotonically
     from the solution's collapsed relations (points-to, call graph,
     reachability), so a more context-sensitive flavor must never report
     MORE tainted sinks than the insensitive analysis of the same program.
     The spec speaks the random-program generator's vocabulary: anything
     returned by an m0/0 method is a source, every m1/1 argument a sink,
     and statics are sanitizers (cutting some but not all flows). *)
  let flavors =
    Ipa_core.Flavors.
      [
        Object_sens { depth = 2; heap = 1 };
        Call_site { depth = 2; heap = 1 };
        Type_sens { depth = 2; heap = 1 };
        Hybrid { depth = 2; heap = 1 };
      ]
  in
  let total_coarse = ref 0 in
  let assert_monotone what spec p =
    let base = Ipa_core.Analysis.run_plain p Ipa_core.Flavors.Insensitive in
    check Alcotest.bool (what ^ " insens completes") false base.timed_out;
    let coarse = Ipa_clients.Taint.tainted_sink_count ~spec base.solution in
    total_coarse := !total_coarse + coarse;
    List.iter
      (fun flavor ->
        let fine = Ipa_core.Analysis.run_plain p flavor in
        if not fine.timed_out then begin
          let n = Ipa_clients.Taint.tainted_sink_count ~spec fine.solution in
          if n > coarse then
            Alcotest.failf "%s %s: %d tainted sinks > insens %d" what
              (Ipa_core.Flavors.to_string flavor)
              n coarse
        end)
      flavors
  in
  (* random programs with a spec in the generator's vocabulary: m0/0 returns
     and every allocation are sources, the Main statics and m1/1 arguments
     sinks, m2/2 methods sanitizers (cutting some flows, not all) *)
  let random_spec : Ipa_clients.Taint.spec =
    {
      sources = [ "*::m0/0" ];
      source_classes = [ "*" ];
      sinks = [ "Main::s*/1"; "*::m1/1" ];
      sanitizers = [ "*::m2/2" ];
    }
  in
  for seed = 700 to 719 do
    assert_monotone (Printf.sprintf "seed %d" seed) random_spec
      (Ipa_testlib.random_program seed)
  done;
  (* random flows are sparse, so also exercise the structured motif (under
     its native default spec), where flows are guaranteed at every size *)
  List.iter
    (fun (n, sanitized) ->
      let w = Ipa_synthetic.World.create () in
      Ipa_synthetic.Motifs.taint_pipes ~sanitized w ~n;
      Ipa_synthetic.Motifs.ballast w ~n:2;
      assert_monotone
        (Printf.sprintf "taint_pipes n=%d" n)
        Ipa_clients.Taint.default_spec
        (Ipa_synthetic.World.finish w))
    [ (3, 1); (5, 2); (8, 3) ];
  (* the property must not hold vacuously: the workloads have real flows *)
  check Alcotest.bool "some tainted sinks across seeds" true (!total_coarse > 0)

(* ---------- parser robustness ---------- *)

let test_parser_truncation_fuzz () =
  let spec = Option.get (Ipa_synthetic.Dacapo.find "antlr") in
  let src = Ipa_ir.Pretty.program (Ipa_synthetic.Dacapo.build ~scale:0.02 spec) in
  let n = String.length src in
  let rng = Splitmix.create 4242 in
  for _ = 1 to 200 do
    let cut = Splitmix.int rng n in
    let mutated = String.sub src 0 cut in
    (* must return, never raise *)
    match Ipa_frontend.Jir.parse_string mutated with
    | Ok _ | Error _ -> ()
  done;
  (* random single-character corruption *)
  for _ = 1 to 200 do
    let i = Splitmix.int rng n in
    let ch = Splitmix.choose rng [| '{'; '}'; ';'; ':'; '('; 'x'; '9'; '.'; '$' |] in
    let mutated = Bytes.of_string src in
    Bytes.set mutated i ch;
    match Ipa_frontend.Jir.parse_string (Bytes.to_string mutated) with
    | Ok _ | Error _ -> ()
  done

let () =
  Alcotest.run "properties"
    [
      ( "datalog",
        [ Alcotest.test_case "engine vs naive reference" `Slow test_engine_vs_naive ] );
      ( "hierarchy",
        [
          Alcotest.test_case "random subtyping" `Quick test_random_hierarchy_subtype;
          Alcotest.test_case "catch routing spec" `Quick test_catch_route_spec;
        ] );
      ("ctx", [ prop_ctx_push_trunc; prop_ctx_intern_stable ]);
      ( "facts",
        [
          prop_facts_diff;
          Alcotest.test_case "dump stability" `Quick test_facts_dump_engines_agree;
        ] );
      ( "solver",
        [
          Alcotest.test_case "budget determinism" `Quick test_budget_monotone;
          prop_truncated_subset;
          prop_oracle;
          prop_oracle_field_heavy;
          Alcotest.test_case "field-heavy programs cover fields and merges" `Quick
            test_field_heavy_coverage;
          Alcotest.test_case "Datalog oracle, jython" `Quick test_oracle_jython;
          Alcotest.test_case "Datalog oracle, chart" `Quick test_oracle_chart;
          Alcotest.test_case "Datalog oracle, merged copy cycles" `Quick test_oracle_cycles;
          Alcotest.test_case "field-based coarser" `Quick test_field_based_coarser;
        ] );
      ( "taint",
        [ Alcotest.test_case "monotone in precision" `Slow test_taint_monotone ] );
      ("parser", [ Alcotest.test_case "truncation fuzz" `Slow test_parser_truncation_fuzz ]);
    ]

(* Demand-driven solving: the slice answer contract.

   - Property: on random programs, under every context-sensitivity flavor,
     every demand-eligible query answered through Demand.eval renders
     byte-identical to the same query against a full unbudgeted solve.
   - Property: a slice depends on the program's content only. Slicing a
     program, an edit of it and re-parsed copies of both, interleaved,
     gives the same marks, counts and pruned bodies by name, and the
     pruned program keeps its original's hierarchy and entries.
   - The slice memo: repeated demands hit; distinct root sets miss.
   - The cache layer: a second Demand value sharing the same on-disk cache
     serves its first demand from the published slice snapshot. *)

module P = Ipa_ir.Program
module Flavors = Ipa_core.Flavors
module Demand = Ipa_query.Demand
module Engine = Ipa_query.Engine
module Query = Ipa_query.Query

let check = Alcotest.check

let qtest ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let flavors =
  Flavors.
    [
      Insensitive;
      Object_sens { depth = 2; heap = 1 };
      Type_sens { depth = 2; heap = 1 };
      Call_site { depth = 2; heap = 1 };
    ]

(* Every eligible query form the program's entities can instantiate, with
   per-form caps so a property iteration stays fast. *)
let eligible_queries p =
  let take cap n of_i = List.init (min cap n) of_i in
  let var v = P.var_full_name p v in
  let meth m = P.meth_full_name p m in
  let entry = meth (List.hd (P.entries p)) in
  List.concat
    [
      take 12 (P.n_vars p) (fun v -> Query.Pts (var v));
      take 6 (P.n_heaps p) (fun h -> Query.Pointed_by (P.heap_full_name p h));
      take 6 (max 0 (P.n_vars p - 1)) (fun v -> Query.Alias (var v, var (v + 1)));
      take 6 (P.n_invos p) (fun i -> Query.Callees (P.invo_info p i).invo_name);
      take 4 (P.n_meths p) (fun m -> Query.Callers (meth m));
      take 4 (P.n_meths p) (fun m -> Query.Reach (entry, meth m));
      take 6
        (min (P.n_heaps p) (P.n_fields p))
        (fun i -> Query.Fieldpts (P.heap_full_name p i, P.field_full_name p i));
    ]

let demand_for p flavor =
  Demand.create ~program:p
    ~label:(Flavors.to_string flavor)
    (Ipa_core.Solver.plain p (Flavors.strategy p flavor))

(* ---------- demand answers == full-solve answers ---------- *)

let test_demand_matches_full =
  qtest ~count:6 "demand answers equal the full solve, all flavors"
    (QCheck2.Gen.int_range 2100 2199)
    (fun seed ->
      let p = Ipa_testlib.random_program seed in
      let queries = eligible_queries p in
      List.iter
        (fun flavor ->
          let full = Ipa_core.Analysis.run_plain p flavor in
          let full_engine = Engine.create full.solution in
          let demand = demand_for p flavor in
          List.iter
            (fun q ->
              if not (Demand.eligible q) then
                QCheck2.Test.fail_reportf "%s not eligible" (Query.to_string q);
              match Demand.eval demand q with
              | None ->
                QCheck2.Test.fail_reportf "eval returned None for %s" (Query.to_string q)
              | Some served ->
                let expected = Engine.render_text q (Engine.eval full_engine q) in
                let got = Engine.render_text q served.Demand.result in
                if got <> expected then
                  QCheck2.Test.fail_reportf
                    "seed %d %s: demand diverged on %s\n  full:   %s\n  demand: %s" seed
                    (Flavors.to_string flavor) (Query.to_string q) expected got)
            queries)
        flavors;
      true)

(* Two domains share one warm Demand value and ask every eligible query,
   in opposite orders: forms meet slice engines first on either domain,
   and every answer must still equal the full solve's. *)
let test_shared_across_domains =
  qtest ~count:4 "shared warm demand across domains equals the full solve"
    (QCheck2.Gen.int_range 2200 2299)
    (fun seed ->
      let p = Ipa_testlib.random_program seed in
      let queries = eligible_queries p in
      let flavor = Flavors.Object_sens { depth = 2; heap = 1 } in
      let full_engine = Engine.create (Ipa_core.Analysis.run_plain p flavor).solution in
      let expected = List.map (fun q -> Engine.render_text q (Engine.eval full_engine q)) queries in
      let demand =
        Demand.create ~warm:true ~program:p ~label:"2objH"
          (Ipa_core.Solver.plain p (Flavors.strategy p flavor))
      in
      let answer q = Engine.render_text q (Option.get (Demand.eval demand q)).Demand.result in
      (* [rev_map] over the reversed list asks the last query first *)
      let other = Domain.spawn (fun () -> List.rev_map answer (List.rev queries)) in
      let here = List.map answer queries in
      let there = Domain.join other in
      if here <> expected || there <> expected then
        QCheck2.Test.fail_reportf "seed %d: a shared demand answer diverged" seed;
      true)

let test_ineligible_forms () =
  let p = Ipa_testlib.parse_exn Ipa_testlib.boxes_src in
  let demand = demand_for p Flavors.Insensitive in
  List.iter
    (fun q ->
      check Alcotest.bool (Query.to_string q ^ " not eligible") false (Demand.eligible q);
      check Alcotest.bool (Query.to_string q ^ " eval is None") true
        (Demand.eval demand q = None))
    [ Query.Taint None; Query.Stats ];
  check Alcotest.int "no counters moved" 0 (Demand.stats demand).Demand.demand_queries

(* ---------- slices are a function of the program's content ---------- *)

module Demand_solver = Ipa_core.Demand_solver
module Edits = Ipa_synthetic.Edits

(* A slice rendered by entity names, so that slices of programs numbered
   differently (a re-parsed copy) compare equal when they mean the same.
   Allocation and call sites are rendered by what they do, not by their
   names: the frontend renames the sites an edit added. *)
let slice_by_names (sl : Demand_solver.t) =
  let p = sl.Demand_solver.pruned in
  let marked name flags =
    List.sort compare
      (List.concat (List.mapi (fun i b -> if b then [ name i ] else []) (Array.to_list flags)))
  in
  let var = P.var_full_name p and field = P.field_full_name p in
  let instr (i : P.instr) =
    match i with
    | Alloc { target; heap } ->
      Printf.sprintf "%s = new %s" (var target) (P.class_name p (P.heap_info p heap).heap_class)
    | Move { target; source } -> Printf.sprintf "%s = %s" (var target) (var source)
    | Cast { target; source; cast_to } ->
      Printf.sprintf "%s = (%s) %s" (var target) (P.class_name p cast_to) (var source)
    | Load { target; base; field = f } ->
      Printf.sprintf "%s = %s.%s" (var target) (var base) (field f)
    | Store { base; field = f; source } ->
      Printf.sprintf "%s.%s = %s" (var base) (field f) (var source)
    | Load_static { target; field = f } -> Printf.sprintf "%s = %s" (var target) (field f)
    | Store_static { field = f; source } -> Printf.sprintf "%s = %s" (field f) (var source)
    | Call i ->
      let ii = P.invo_info p i in
      let callee =
        match ii.call with
        | Virtual { base; signature } ->
          let si = P.sig_info p signature in
          Printf.sprintf "%s.%s/%d" (var base) si.sig_name si.arity
        | Static { callee } -> P.meth_full_name p callee
      in
      Printf.sprintf "%s = %s(%s)"
        (match ii.recv with Some r -> var r | None -> "_")
        callee
        (String.concat ", " (List.map var (Array.to_list ii.actuals)))
    | Return { source } -> "return " ^ var source
    | Throw { source } -> "throw " ^ var source
  in
  let bodies =
    List.sort compare
      (List.init (P.n_meths p) (fun m ->
           ( P.meth_full_name p m,
             List.map instr (Array.to_list (P.meth_info p m).body) )))
  in
  ( (marked var sl.relevant_vars, marked field sl.relevant_fields),
    (sl.slice_nodes, sl.kept_instrs, sl.total_instrs),
    bodies )

let reparse p = Ipa_testlib.parse_exn (Ipa_ir.Pretty.program p)

(* The roots of [roots] (ids of [p]) renamed into [q], a re-parsed copy. *)
let roots_in p q (roots : Demand_solver.roots) =
  let find n name_of id =
    let target = name_of p id in
    List.find (fun i -> name_of q i = target) (List.init n Fun.id)
  in
  {
    Demand_solver.root_vars = List.map (find (P.n_vars q) P.var_full_name) roots.root_vars;
    root_fields = List.map (find (P.n_fields q) P.field_full_name) roots.root_fields;
  }

(* The pruned program answers the hierarchy the way its original does,
   and a method that lost nothing keeps its record. *)
let same_hierarchy what (sl : Demand_solver.t) =
  let p = sl.Demand_solver.original and q = sl.pruned in
  if P.entries q <> P.entries p then QCheck2.Test.fail_reportf "%s: entries differ" what;
  for m = 0 to P.n_meths p - 1 do
    let a = P.meth_info p m and b = P.meth_info q m in
    if Array.length a.body = Array.length b.body && a != b then
      QCheck2.Test.fail_reportf "%s: unpruned method %d not shared" what m
  done;
  for c = 0 to P.n_classes p - 1 do
    for s = 0 to P.n_sigs p - 1 do
      if P.dispatch q c s <> P.dispatch p c s then
        QCheck2.Test.fail_reportf "%s: dispatch %d %d differs" what c s
    done;
    for d = 0 to P.n_classes p - 1 do
      if P.subtype q ~sub:c ~super:d <> P.subtype p ~sub:c ~super:d then
        QCheck2.Test.fail_reportf "%s: subtype %d %d differs" what c d
    done
  done

let test_slice_reparse_invariant =
  qtest ~count:80 "slice equals the slice of a re-parsed copy"
    QCheck2.Gen.(
      triple (int_range 2300 2399) (list_size (int_bound 4) nat) (list_size (int_bound 2) nat))
    (fun (seed, var_picks, field_picks) ->
      let p = Ipa_testlib.random_program seed in
      let pick n picks = if n = 0 then [] else List.map (fun i -> i mod n) picks in
      let roots =
        {
          Demand_solver.root_vars = pick (P.n_vars p) var_picks;
          root_fields = pick (P.n_fields p) field_picks;
        }
      in
      let edited =
        match Edits.pick ~seed ~n:1 p with
        | e :: _ -> Edits.apply p e
        | [] -> p
      in
      let agree what a b =
        let marks_a, counts_a, bodies_a = slice_by_names a
        and marks_b, counts_b, bodies_b = slice_by_names b in
        if marks_a <> marks_b then
          QCheck2.Test.fail_reportf "seed %d: %s: relevant vars or fields differ" seed what;
        if counts_a <> counts_b then
          QCheck2.Test.fail_reportf "seed %d: %s: slice_nodes, kept or total differ" seed what;
        if bodies_a <> bodies_b then
          QCheck2.Test.fail_reportf "seed %d: %s: pruned bodies differ" seed what
      in
      (* interleave programs so a slice reusing another program's index shows *)
      let first = Demand_solver.slice p roots in
      let of_edit = Demand_solver.slice edited roots in
      let r = reparse p in
      agree "original vs re-parsed" first (Demand_solver.slice r (roots_in p r roots));
      let re = reparse edited in
      agree "edited vs re-parsed edit" of_edit
        (Demand_solver.slice re (roots_in edited re roots));
      agree "original, sliced again" first (Demand_solver.slice p roots);
      same_hierarchy "original" first;
      same_hierarchy "edited" of_edit;
      true)

(* ---------- the slice memo ---------- *)

let test_memo_hit_rate () =
  let p = Ipa_testlib.parse_exn Ipa_testlib.boxes_src in
  let demand = demand_for p (Flavors.Object_sens { depth = 2; heap = 1 }) in
  let q = Query.Pts "Main::main/0$ra" in
  ignore (Option.get (Demand.eval demand q));
  let s1 = Demand.stats demand in
  check Alcotest.int "first demand solves" 0 s1.Demand.slice_hits;
  check Alcotest.int "one demand query" 1 s1.Demand.demand_queries;
  check Alcotest.bool "slice is non-empty" true (s1.Demand.slice_nodes > 0);
  ignore (Option.get (Demand.eval demand q));
  let s2 = Demand.stats demand in
  check Alcotest.int "repeat hits the memo" 1 s2.Demand.slice_hits;
  check Alcotest.int "hit adds no slice nodes" s1.Demand.slice_nodes s2.Demand.slice_nodes;
  (* same root set through a different form still hits *)
  ignore (Option.get (Demand.eval demand (Query.Alias ("Main::main/0$ra", "Main::main/0$ra"))));
  check Alcotest.int "same roots, different form: hit" 2
    (Demand.stats demand).Demand.slice_hits;
  (* a different root set misses and solves its own slice *)
  ignore (Option.get (Demand.eval demand (Query.Pts "Main::main/0$rb")));
  let s3 = Demand.stats demand in
  check Alcotest.int "new roots miss" 2 s3.Demand.slice_hits;
  check Alcotest.int "four demand queries" 4 s3.Demand.demand_queries

(* ---------- cache round-trip ---------- *)

let test_cache_round_trip () =
  Ipa_testlib.with_temp_dir (fun dir ->
      let p = Ipa_testlib.parse_exn Ipa_testlib.boxes_src in
      let flavor = Flavors.Object_sens { depth = 2; heap = 1 } in
      let config = Ipa_core.Solver.plain p (Flavors.strategy p flavor) in
      let q = Query.Pts "Main::main/0$rb" in
      let cache1 = Ipa_harness.Cache.create ~dir () in
      let d1 = Demand.create ~cache:cache1 ~program:p ~label:"2objH" config in
      let served1 = Option.get (Demand.eval d1 q) in
      check Alcotest.bool "first instance solves" false served1.Demand.hit;
      (* a fresh Demand value over a fresh cache handle on the same directory
         must find the published slice snapshot instead of solving *)
      let cache2 = Ipa_harness.Cache.create ~dir () in
      let d2 = Demand.create ~cache:cache2 ~program:p ~label:"2objH" config in
      let served2 = Option.get (Demand.eval d2 q) in
      check Alcotest.bool "second instance hits the disk cache" true served2.Demand.hit;
      check Alcotest.int "hit counted" 1 (Demand.stats d2).Demand.slice_hits;
      let full = Ipa_core.Analysis.run_plain p flavor in
      let expected = Engine.render_text q (Engine.eval (Engine.create full.solution) q) in
      check Alcotest.string "cached answer identical" expected
        (Engine.render_text q served2.Demand.result))

let () =
  Alcotest.run "demand"
    [
      ( "answers",
        [
          test_demand_matches_full;
          test_shared_across_domains;
          Alcotest.test_case "ineligible forms" `Quick test_ineligible_forms;
        ] );
      ("slice", [ test_slice_reparse_invariant ]);
      ("memo", [ Alcotest.test_case "hit rate" `Quick test_memo_hit_rate ]);
      ("cache", [ Alcotest.test_case "round trip" `Quick test_cache_round_trip ]);
    ]

(* Differential tests for incremental solving:
   - a warm re-solve chained across random monotone edits must be
     byte-identical to a cold solve of the final program (modulo the phase
     accounting: counters and the derivation count measure the edit), and
     must agree with the Datalog encoding of Fig. 3;
   - the dirty set after an edit is exactly the edited component plus its
     transitive callers;
   - each fallback (budgeted config, truncated baseline, non-monotone edit)
     reports its reason and returns exactly the cold solve;
   - a reparsed edited program realigns onto the baseline's ids;
   - edit picking is deterministic in its seed (the CLI's --seed). *)

module B = Ipa_ir.Builder
module Program = Ipa_ir.Program
module Solution = Ipa_core.Solution
module Solver = Ipa_core.Solver
module Snapshot = Ipa_core.Snapshot
module Summary = Ipa_core.Summary
module Comp = Ipa_core.Compositional_solver
module Flavors = Ipa_core.Flavors
module Datalog_backend = Ipa_core.Datalog_backend
module Edits = Ipa_synthetic.Edits

let check = Alcotest.check

let qtest ?(count = 25) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let snapshot_bytes p (s : Solution.t) =
  Snapshot.encode
    {
      Snapshot.key = "incr-test";
      program_digest = Snapshot.digest_program p;
      label = "incr-test";
      seconds = 0.0;
      solution = s;
      metrics = None;
    }

(* Snapshot bytes with the propagation counters and the derivation count
   zeroed: what "identical solution" means for a warm solve, which
   re-asserts the baseline without counting it. *)
let warm_bytes p (s : Solution.t) =
  snapshot_bytes p { s with Solution.counters = Solution.zero_counters; derivations = 0 }

let config p flavor = Solver.plain p (Flavors.strategy p flavor)

let flavors =
  [ Flavors.Insensitive; Flavors.Type_sens { depth = 2; heap = 1 } ]

(* ---------- warm chain over monotone edits == cold ---------- *)

let prop_warm_chain (seed, n_edits) =
  let p0 = Ipa_testlib.random_program seed in
  let edits = Edits.pick ~kinds:Edits.monotone_kinds ~seed ~n:n_edits p0 in
  List.iter
    (fun flavor ->
      let name = Flavors.to_string flavor in
      let s0 = Solver.run p0 (config p0 flavor) in
      let pf, sf =
        List.fold_left
          (fun (p, s) e ->
            let p' = Edits.apply p e in
            let s', report =
              Comp.solve_incremental ~base_program:p ~base_solution:s p'
                (config p' flavor)
            in
            (match report.Comp.fallback with
            | None -> ()
            | Some reason ->
              QCheck2.Test.fail_reportf "%s: %s fell back cold: %s" name
                (Edits.describe p e) reason);
            (p', s'))
          (p0, s0) edits
      in
      let cold = Solver.run pf (config pf flavor) in
      if not (String.equal (warm_bytes pf sf) (warm_bytes pf cold)) then
        QCheck2.Test.fail_reportf
          "%s: warm solve after %d edit(s) differs from the cold solve" name
          (List.length edits);
      (* The oracle leg: the warm fixpoint must also be Fig. 3's, as the
         Datalog encoding computes it — not just agree with [Solver.run]. *)
      let oracle = Datalog_backend.run_plain pf (Flavors.strategy pf flavor) in
      if Ipa_testlib.canon_native sf <> Ipa_testlib.canon_datalog pf oracle then
        QCheck2.Test.fail_reportf "%s: warm solve after %d edit(s) differs from the Datalog oracle"
          name (List.length edits))
    flavors;
  true

let test_warm_chain =
  qtest ~count:20 "warm re-solve chain == cold (insens, 2typeH)"
    QCheck2.Gen.(pair (int_range 400 599) (int_range 1 3))
    prop_warm_chain

(* ---------- dirty-set minimality ---------- *)

(* main -> a -> b -> c, plus main -> d when [with_d]. *)
let chain_program ~with_d =
  let b = B.create () in
  let obj = B.add_class b "Object" in
  let cls = B.add_class b ~super:obj "K" in
  let mk name = B.add_method b ~owner:cls ~name ~static:true ~params:[] () in
  let main = mk "main" in
  let am = mk "a" in
  let bm = mk "b" in
  let cm = mk "c" in
  ignore (B.scall b main ~callee:am ~actuals:[] ());
  if with_d then begin
    let dm = mk "d" in
    ignore (B.scall b main ~callee:dm ~actuals:[] ());
    let dv = B.add_var b dm "x" in
    ignore (B.alloc b dm ~target:dv ~cls)
  end;
  ignore (B.scall b am ~callee:bm ~actuals:[] ());
  ignore (B.scall b bm ~callee:cm ~actuals:[] ());
  let cv = B.add_var b cm "x" in
  ignore (B.alloc b cm ~target:cv ~cls);
  B.return_ b cm cv;
  B.add_entry b main;
  B.finish b

let meth_named p name =
  let rec go m = if (Program.meth_info p m).meth_name = name then m else go (m + 1) in
  go 0

(* Editing c must dirty exactly the call chain above it ({c, b, a, main});
   the sibling d stays out of the dirty set. *)
let test_dirty_minimality () =
  let base = chain_program ~with_d:true in
  let m = meth_named base in
  let edited = Edits.apply base { Edits.kind = Edits.Add_alloc; meth = m "c"; salt = 0 } in
  let s0 = Solver.run base (config base Flavors.Insensitive) in
  let warm, report =
    Comp.solve_incremental ~base_program:base ~base_solution:s0 edited
      (config edited Flavors.Insensitive)
  in
  check Alcotest.int "five components" 5 report.Comp.n_sccs;
  check Alcotest.(option string) "warm path taken" None report.Comp.fallback;
  let cond = Summary.condense edited in
  let scc_of name = cond.Summary.scc_of_meth.(m name) in
  let expected = List.sort compare (List.map scc_of [ "main"; "a"; "b"; "c" ]) in
  check (Alcotest.list Alcotest.int) "dirty = edited chain" expected report.Comp.dirty_sccs;
  check Alcotest.bool "sibling d stays clean" false
    (List.mem (scc_of "d") report.Comp.dirty_sccs);
  let cold = Solver.run edited (config edited Flavors.Insensitive) in
  check Alcotest.bool "warm == cold" true
    (String.equal (warm_bytes edited warm) (warm_bytes edited cold))

(* ---------- cold fallbacks ---------- *)

(* Each refusal of the warm path must name its reason and hand back exactly
   what [Solver.run] computes — counters and derivation count included. *)
let check_fallback name ~reason ~base_program ~base_solution p cfg =
  let sol, report = Comp.solve_incremental ~base_program ~base_solution p cfg in
  check Alcotest.(option string) (name ^ ": reason") (Some reason) report.Comp.fallback;
  check Alcotest.(list int) (name ^ ": no dirty set") [] report.Comp.dirty_sccs;
  check Alcotest.bool (name ^ ": bytes = Solver.run") true
    (String.equal (snapshot_bytes p sol) (snapshot_bytes p (Solver.run p cfg)))

let test_fallbacks () =
  let p0 = Ipa_testlib.random_program 5 in
  let flavor = Flavors.Type_sens { depth = 2; heap = 1 } in
  let s0 = Solver.run p0 (config p0 flavor) in
  check Alcotest.bool "complete baseline" true (s0.Solution.outcome = Solution.Complete);
  let edit = List.hd (Edits.pick ~kinds:Edits.monotone_kinds ~seed:5 ~n:1 p0) in
  let p1 = Edits.apply p0 edit in
  check_fallback "budgeted config" ~reason:"budgeted" ~base_program:p0 ~base_solution:s0 p1
    (Solver.plain p1 ~budget:1_000_000 (Flavors.strategy p1 flavor));
  let truncated = Solver.run p0 (Solver.plain p0 ~budget:10 (Flavors.strategy p0 flavor)) in
  check Alcotest.bool "truncated baseline" true
    (truncated.Solution.outcome = Solution.Budget_exceeded);
  check_fallback "truncated baseline" ~reason:"partial baseline" ~base_program:p0
    ~base_solution:truncated p1 (config p1 flavor);
  let rewrite = List.hd (Edits.pick ~kinds:[ Edits.Rewrite_body ] ~seed:5 ~n:1 p0) in
  let p2 = Edits.apply p0 rewrite in
  check Alcotest.bool "rewrite is not an extension" false
    (Summary.extends ~old_p:p0 ~new_p:p2);
  check_fallback "rewrite-body edit" ~reason:"non-monotone delta" ~base_program:p0
    ~base_solution:s0 p2 (config p2 flavor)

(* ---------- realignment of reparsed programs ---------- *)

let reparse p = Ipa_testlib.parse_exn (Ipa_ir.Pretty.program p)

(* The CLI's incremental path: base and edited program both come from text,
   so the frontend numbers the edited one in file order and an inserted
   instruction shifts later ids. [align] must restore the baseline's ids so
   that [extends] holds and the warm solve equals the cold one. *)
let test_align_reparsed () =
  let realigned = ref 0 in
  for seed = 600 to 609 do
    let p0 = Ipa_testlib.random_program seed in
    let edits = Edits.pick ~kinds:Edits.monotone_kinds ~seed ~n:2 p0 in
    let base = reparse p0 in
    let edited = reparse (Edits.apply_all p0 edits) in
    if not (Summary.extends ~old_p:base ~new_p:edited) then incr realigned;
    match Summary.align ~old_p:base ~new_p:edited with
    | None -> Alcotest.failf "seed %d: a monotone edit did not realign" seed
    | Some aligned ->
      check Alcotest.bool (Printf.sprintf "seed %d: extends after align" seed) true
        (Summary.extends ~old_p:base ~new_p:aligned);
      List.iter
        (fun flavor ->
          let s0 = Solver.run base (config base flavor) in
          let warm, report =
            Comp.solve_incremental ~base_program:base ~base_solution:s0 aligned
              (config aligned flavor)
          in
          check Alcotest.(option string) "warm path taken" None report.Comp.fallback;
          let cold = Solver.run aligned (config aligned flavor) in
          check Alcotest.bool
            (Printf.sprintf "seed %d %s: warm == cold" seed (Flavors.to_string flavor))
            true
            (String.equal (warm_bytes aligned warm) (warm_bytes aligned cold)))
        flavors
  done;
  check Alcotest.bool "some reparsed edit needed realignment" true (!realigned > 0)

let test_align_deletion () =
  let base = chain_program ~with_d:true in
  let smaller = chain_program ~with_d:false in
  check Alcotest.bool "deleted method does not align" true
    (Summary.align ~old_p:base ~new_p:smaller = None)

(* ---------- seeded edit picking ---------- *)

let test_pick_deterministic () =
  let p = Ipa_testlib.random_program 7 in
  let d es = List.map (Edits.describe p) es in
  let a = d (Edits.pick ~seed:42 ~n:4 p) in
  let b = d (Edits.pick ~seed:42 ~n:4 p) in
  check (Alcotest.list Alcotest.string) "same seed, same edits" a b;
  (* Pinned: the CLI's --seed must keep meaning the same edit script. *)
  let monotone = d (Edits.pick ~kinds:Edits.monotone_kinds ~seed:42 ~n:2 p) in
  check (Alcotest.list Alcotest.string) "pinned seed-42 picks"
    [ "add-call C2::m1/1"; "add-call C4::m2/2" ]
    monotone;
  List.iter
    (fun e ->
      match e.Edits.kind with
      | Edits.Add_alloc | Edits.Add_call -> ()
      | Edits.Rewrite_body -> Alcotest.fail "monotone pick returned rewrite-body")
    (Edits.pick ~kinds:Edits.monotone_kinds ~seed:42 ~n:8 p)

let () =
  Alcotest.run "incremental"
    [
      ("warm", [ test_warm_chain ]);
      ( "dirty",
        [ Alcotest.test_case "minimal dirty set" `Quick test_dirty_minimality ] );
      (* The longest suite name sets the column width, and with it where
         Alcotest truncates long test names: keep it at 13 characters so
         the printed names stay stable. *)
      ( "warm-fallback",
        [ Alcotest.test_case "budget, truncated baseline, rewrite" `Quick test_fallbacks ] );
      ( "align",
        [
          Alcotest.test_case "reparsed edit realigns" `Quick test_align_reparsed;
          Alcotest.test_case "deletion gives None" `Quick test_align_deletion;
        ] );
      ( "edits",
        [ Alcotest.test_case "seeded picking pinned" `Quick test_pick_deterministic ] );
    ]

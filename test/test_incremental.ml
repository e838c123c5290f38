(* Differential tests for incremental solving:
   - a warm re-solve chained across random monotone edits must be
     byte-identical to a cold solve of the final program (modulo the phase
     accounting: counters and the derivation count measure the edit), and
     must agree with the Datalog encoding of Fig. 3;
   - the dirty set after an edit is exactly the edited component plus its
     transitive callers, and on every Dacapo spec the component count and
     dirty ids agree with naive reachability;
   - a 2typeH configuration built for the base program solves an edited
     one (its merge reads the program being solved);
   - each fallback (budgeted config, truncated baseline, non-monotone edit,
     a baseline solved under another configuration, a baseline of another
     program) reports its reason and returns exactly the cold solve; over
     random pairs of configurations, a warm solve falls back or equals the
     cold solve;
   - installing an unchanged program's fixpoint derives nothing, and an
     edit that adds a return variable reaches a clean caller;
   - deltas that do not come from [Edits] are either refused or solve to
     the cold fixpoint and the Datalog oracle's;
   - a warm solve never writes into the baseline's sets it borrows, also
     when equal sets are one object (materialized or decoded), and lays
     out every set as the cold solve does;
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
module Splitmix = Ipa_support.Splitmix

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

(* ---------- resuming the previous warm solve's state ---------- *)

let all_flavors =
  [
    Flavors.Insensitive;
    Flavors.Object_sens { depth = 2; heap = 1 };
    Flavors.Call_site { depth = 2; heap = 1 };
    Flavors.Type_sens { depth = 2; heap = 1 };
  ]

(* A monotone delta [Edits] never makes: [k] instructions appended to one
   method over its own variables, among them loads, stores and virtual
   calls on variables that may already point somewhere (new uses of old
   variables) and throws. A virtual call gets a fresh invocation site.
   [None] when [p] has no method with variables. *)
let append_uses p ~salt ~k =
  let rng = Splitmix.create salt in
  let hosts =
    List.filter
      (fun m ->
        (not (Program.meth_info p m).is_abstract)
        && List.exists
             (fun v -> (Program.var_info p v).var_owner = m)
             (List.init (Program.n_vars p) Fun.id))
      (List.init (Program.n_meths p) Fun.id)
  in
  let inst_fields =
    Array.of_list
      (List.filter
         (fun f -> not (Program.field_info p f).is_static_field)
         (List.init (Program.n_fields p) Fun.id))
  in
  match hosts with
  | [] -> None
  | hosts ->
    let m = Splitmix.choose rng (Array.of_list hosts) in
    let locals =
      Array.of_list
        (List.filter
           (fun v -> (Program.var_info p v).var_owner = m)
           (List.init (Program.n_vars p) Fun.id))
    in
    let local () = Splitmix.choose rng locals in
    let invos = ref (Array.init (Program.n_invos p) (Program.invo_info p)) in
    let instr () : Program.instr =
      match Splitmix.int rng 5 with
      | 0 when Array.length inst_fields > 0 ->
        Load { target = local (); base = local (); field = Splitmix.choose rng inst_fields }
      | 1 when Array.length inst_fields > 0 ->
        Store { base = local (); field = Splitmix.choose rng inst_fields; source = local () }
      | 2 when Program.n_sigs p > 0 ->
        let signature = Splitmix.int rng (Program.n_sigs p) in
        let arity = (Program.sig_info p signature).arity in
        let i = Array.length !invos in
        invos :=
          Array.append !invos
            [|
              {
                Program.call = Virtual { base = local (); signature };
                actuals = Array.init arity (fun _ -> local ());
                recv = (if Splitmix.int rng 2 = 0 then Some (local ()) else None);
                invo_owner = m;
                invo_name = Printf.sprintf "appended%d" i;
              };
            |];
        Call i
      | 3 -> Throw { source = local () }
      | _ -> Move { target = local (); source = local () }
    in
    let appended = Array.init k (fun _ -> instr ()) in
    let meths =
      Array.init (Program.n_meths p) (fun m' ->
          let mi = Program.meth_info p m' in
          if m' = m then { mi with body = Array.append mi.body appended } else mi)
    in
    Some
      (Program.make
         ~classes:(Array.init (Program.n_classes p) (Program.class_info p))
         ~fields:(Array.init (Program.n_fields p) (Program.field_info p))
         ~sigs:(Array.init (Program.n_sigs p) (Program.sig_info p))
         ~meths
         ~vars:(Array.init (Program.n_vars p) (Program.var_info p))
         ~heaps:(Array.init (Program.n_heaps p) (Program.heap_info p))
         ~invos:!invos ~entries:(Program.entries p) ())

let digest p s = Digest.to_hex (Digest.string (snapshot_bytes p s))

(* Every tuple of a solution: a cold solve derives each exactly once. *)
let facts (s : Solution.t) =
  let st = Solution.stats s in
  st.vpt_tuples + st.fpt_tuples + st.exc_tuples + st.cg_edges + st.reach_pairs

(* A chain of monotone steps, each an [Edits] edit or appended uses, solved
   warm with every step's base the previous warm result. The first step
   installs its cold base; every later one must resume. Each result must
   equal the cold solve and the Datalog oracle and leave every earlier
   solution's bytes unchanged, and derive exactly the tuples its base
   lacks. A second warm solve from the same base (whose handle the first
   claimed) must install and equal the first, deriving exactly as much. *)
let prop_resume_chain (seed, n_steps) =
  let p0 = Ipa_testlib.random_program seed in
  let rng = Splitmix.create (seed + 1) in
  let steps =
    List.fold_left
      (fun acc i ->
        let p = match acc with [] -> p0 | p :: _ -> p in
        let next =
          if Splitmix.int rng 2 = 0 then
            match Edits.pick ~kinds:Edits.monotone_kinds ~seed:(seed + i) ~n:1 p with
            | [ e ] -> Some (Edits.apply p e)
            | _ -> None
          else append_uses p ~salt:(seed + i) ~k:(1 + Splitmix.int rng 4)
        in
        match next with Some p' -> p' :: acc | None -> acc)
      [] (List.init n_steps Fun.id)
    |> List.rev
  in
  List.iter
    (fun flavor ->
      let name = Flavors.to_string flavor in
      let s0 = Solver.run p0 (config p0 flavor) in
      let history = ref [ (p0, s0, digest p0 s0) ] in
      List.iteri
        (fun i p' ->
          let p, s, _ = List.hd !history in
          let warm, report =
            Comp.solve_incremental ~base_program:p ~base_solution:s p' (config p' flavor)
          in
          (match report.Comp.fallback with
          | None -> ()
          | Some reason -> QCheck2.Test.fail_reportf "%s step %d fell back: %s" name i reason);
          if report.Comp.resumed <> (i > 0) then
            QCheck2.Test.fail_reportf "%s step %d: resumed = %b" name i report.Comp.resumed;
          let cold = Solver.run p' (config p' flavor) in
          if not (String.equal (warm_bytes p' warm) (warm_bytes p' cold)) then
            QCheck2.Test.fail_reportf "%s step %d: warm differs from cold" name i;
          let oracle = Datalog_backend.run_plain p' (Flavors.strategy p' flavor) in
          if Ipa_testlib.canon_native warm <> Ipa_testlib.canon_datalog p' oracle then
            QCheck2.Test.fail_reportf "%s step %d: warm differs from the Datalog oracle" name i;
          if warm.Solution.derivations <> facts warm - facts s then
            QCheck2.Test.fail_reportf "%s step %d: %d derivations for %d new tuples" name i
              warm.Solution.derivations (facts warm - facts s);
          let installed, again =
            Comp.solve_incremental ~base_program:p ~base_solution:s p' (config p' flavor)
          in
          if again.Comp.resumed || again.Comp.fallback <> None then
            QCheck2.Test.fail_reportf "%s step %d: a second solve from one base did not install"
              name i;
          if not (String.equal (warm_bytes p' installed) (warm_bytes p' warm)) then
            QCheck2.Test.fail_reportf "%s step %d: the install differs from the resume" name i;
          if installed.Solution.derivations <> warm.Solution.derivations then
            QCheck2.Test.fail_reportf "%s step %d: %d derivations, an install derives %d" name i
              warm.Solution.derivations installed.Solution.derivations;
          List.iter
            (fun (p, s, d) ->
              if digest p s <> d then
                QCheck2.Test.fail_reportf "%s step %d: an earlier solution changed" name i)
            !history;
          history := (p', warm, digest p' warm) :: !history)
        steps)
    all_flavors;
  true

let test_resume_chain =
  qtest ~count:40 "resume chain == cold == oracle (4 flavors)"
    QCheck2.Gen.(pair (int_range 700 999) (int_range 2 5))
    prop_resume_chain

(* Chains the property rarely draws, pinned: in these a resumed step
   appends the first use of a variable whose node an earlier step merged
   into a copy cycle, so the resume must enlist it with its
   representative and recount the class's members. *)
let test_resume_chain_pinned () =
  List.iter (fun seed -> ignore (prop_resume_chain (seed, 3))) [ 768; 830; 880 ]

(* The resume-path twin of [test_install_new_return]: main reads r = m()
   and copies it to s; m gains a fresh return variable in an edit solved
   by resuming, so every old call-graph edge into m needs its return edge
   added by the resume itself. *)
let test_resume_new_return () =
  let b = B.create () in
  let obj = B.add_class b "Object" in
  let cls = B.add_class b ~super:obj "K" in
  let main = B.add_method b ~owner:cls ~name:"main" ~static:true ~params:[] () in
  let m = B.add_method b ~owner:cls ~name:"m" ~static:true ~params:[] () in
  let other = B.add_method b ~owner:cls ~name:"other" ~static:true ~params:[] () in
  let r = B.add_var b main "r" in
  let s = B.add_var b main "s" in
  ignore (B.scall b main ~callee:m ~actuals:[] ~recv:r ());
  ignore (B.scall b main ~callee:other ~actuals:[] ());
  B.move b main ~target:s ~source:r;
  ignore (B.alloc b m ~target:(B.add_var b m "x") ~cls);
  ignore (B.alloc b other ~target:(B.add_var b other "y") ~cls);
  B.add_entry b main;
  let p0 = B.finish b in
  (* The first edit only makes a warm base; the second gives m its return. *)
  let p1 = Edits.apply p0 { Edits.kind = Edits.Add_alloc; meth = other; salt = 0 } in
  let p2 = Edits.apply p1 { Edits.kind = Edits.Add_alloc; meth = m; salt = 0 } in
  check Alcotest.bool "m gains a return variable" true
    ((Program.meth_info p1 m).ret_var = None && (Program.meth_info p2 m).ret_var <> None);
  List.iter
    (fun flavor ->
      let name = Flavors.to_string flavor in
      let s0 = Solver.run p0 (config p0 flavor) in
      let s1, r1 =
        Comp.solve_incremental ~base_program:p0 ~base_solution:s0 p1 (config p1 flavor)
      in
      check Alcotest.bool (name ^ ": first edit installs") false r1.Comp.resumed;
      let warm, report =
        Comp.solve_incremental ~base_program:p1 ~base_solution:s1 p2 (config p2 flavor)
      in
      check Alcotest.(option string) (name ^ ": no fallback") None report.Comp.fallback;
      check Alcotest.bool (name ^ ": resumed") true report.Comp.resumed;
      check Alcotest.(pair int int) (name ^ ": nothing installed") (0, 0)
        (report.Comp.installed_facts, report.Comp.installed_edges);
      let reaches v =
        let hit = ref false in
        Solution.iter_var_pts warm (fun ~var ~ctx:_ ~heap ~hctx:_ ->
            if var = v && heap >= Program.n_heaps p1 then hit := true);
        !hit
      in
      check Alcotest.bool (name ^ ": new object reaches r") true (reaches r);
      check Alcotest.bool (name ^ ": and s") true (reaches s);
      let cold = Solver.run p2 (config p2 flavor) in
      check Alcotest.bool (name ^ ": warm == cold") true
        (String.equal (warm_bytes p2 warm) (warm_bytes p2 cold)))
    flavors

(* Handles that must not resume: each solve installs or falls back, no
   handle resumes twice, and every result equals the cold solve. *)
let test_stale_handles () =
  let p0 = Ipa_testlib.random_program 5 in
  let edits = Edits.pick ~kinds:Edits.monotone_kinds ~seed:5 ~n:3 p0 in
  let p1 = Edits.apply p0 (List.nth edits 0) in
  let p2 = Edits.apply p1 (List.nth edits 1) in
  let p3 = Edits.apply p2 (List.nth edits 2) in
  let type2 = Flavors.Type_sens { depth = 2; heap = 1 } in
  let cold p flavor = warm_bytes p (Solver.run p (config p flavor)) in
  let solve ~base_program ~base p flavor =
    Comp.solve_incremental ~base_program ~base_solution:base p (config p flavor)
  in
  let path (report : Comp.report) =
    match report.fallback with
    | Some reason -> "cold: " ^ reason
    | None -> if report.resumed then "resumed" else "installed"
  in
  let expect what want p flavor (sol, report) =
    check Alcotest.string (what ^ ": path") want (path report);
    check Alcotest.bool (what ^ ": == cold") true (String.equal (warm_bytes p sol) (cold p flavor))
  in
  (* A copy and its original share one handle: the first claims it. *)
  let w1, _ = solve ~base_program:p0 ~base:(Solver.run p0 (config p0 type2)) p1 type2 in
  let copy = { w1 with Solution.counters = Solution.zero_counters } in
  expect "copy" "resumed" p2 type2 (solve ~base_program:p1 ~base:copy p2 type2);
  expect "original after the copy" "installed" p2 type2 (solve ~base_program:p1 ~base:w1 p2 type2);
  expect "copy again" "installed" p2 type2 (solve ~base_program:p1 ~base:copy p2 type2);
  (* Another flavor's warm result: refused without claiming its handle,
     which its own flavor then resumes. *)
  let i0, _ =
    solve ~base_program:p0 ~base:(Solver.run p0 (config p0 Flavors.Insensitive)) p0
      Flavors.Insensitive
  in
  expect "insens base, 2typeH solve" "cold: baseline of another configuration" p0 type2
    (solve ~base_program:p0 ~base:i0 p0 type2);
  expect "insens base, insens solve" "resumed" p1 Flavors.Insensitive
    (solve ~base_program:p0 ~base:i0 p1 Flavors.Insensitive);
  (* A resume that raises leaves its state claimed for good. *)
  let f1, _ = solve ~base_program:p0 ~base:(Solver.run p0 (config p0 type2)) p1 type2 in
  (match Solver.warm ~base_program:p1 ~changed:[||] f1 p2 (config p2 type2) with
  | _ -> Alcotest.fail "a resume with a malformed mask returned"
  | exception Invalid_argument _ -> ());
  expect "after a failed resume" "installed" p2 type2 (solve ~base_program:p1 ~base:f1 p2 type2);
  (* Another program value, equal to the one solved: install. *)
  let i2, _ =
    solve ~base_program:p1 ~base:(Solver.run p1 (config p1 Flavors.Insensitive)) p2
      Flavors.Insensitive
  in
  let p2' = Edits.apply p1 (List.nth edits 1) in
  expect "equal but other base program" "installed" p3 Flavors.Insensitive
    (solve ~base_program:p2' ~base:i2 p3 Flavors.Insensitive);
  (* A handle resumes once, even where the state it left is still the
     base program's fixpoint (an unchanged program solved warm). *)
  let u0, _ = solve ~base_program:p0 ~base:(Solver.run p0 (config p0 type2)) p0 type2 in
  expect "unchanged" "resumed" p0 type2 (solve ~base_program:p0 ~base:u0 p0 type2);
  expect "edit from a used handle" "installed" p1 type2 (solve ~base_program:p0 ~base:u0 p1 type2);
  (* Two domains resuming one base at once: one resumes, one installs. *)
  let spec = Option.get (Ipa_synthetic.Dacapo.find "antlr") in
  let q0 = Ipa_synthetic.Dacapo.build ~scale:0.02 spec in
  let qs = Edits.pick ~kinds:Edits.monotone_kinds ~seed:9 ~n:2 q0 in
  let q1 = Edits.apply q0 (List.nth qs 0) in
  let q2 = Edits.apply q1 (List.nth qs 1) in
  let v1, _ = solve ~base_program:q0 ~base:(Solver.run q0 (config q0 type2)) q1 type2 in
  let ready = Atomic.make 0 in
  let racer () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    solve ~base_program:q1 ~base:v1 q2 type2
  in
  let results = List.map Domain.join (List.init 2 (fun _ -> Domain.spawn racer)) in
  check Alcotest.(list string) "two domains: one resume" [ "installed"; "resumed" ]
    (List.sort compare (List.map (fun (_, r) -> path r) results));
  List.iter (fun res -> expect "two domains" (path (snd res)) q2 type2 res) results

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

(* Component ids in the order Tarjan closes them over the CHA call graph,
   the numbering [Summary.dirty_components] reports. *)
let close_order_ids p =
  let targets = Summary.call_targets p in
  let n = Program.n_meths p in
  let comp_of = Array.make n (-1) and n_comps = ref 0 in
  Ipa_support.Tarjan.components ~n
    ~root:(fun _ -> true)
    ~degree:(fun m -> Array.length targets.(m))
    ~succ:(fun m i -> targets.(m).(i))
    (fun comp ->
      List.iter (fun m -> comp_of.(m) <- !n_comps) comp;
      incr n_comps);
  comp_of

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
  let comp_of = close_order_ids edited in
  let scc_of name = comp_of.(m name) in
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
  check Alcotest.(pair int int) (name ^ ": nothing installed") (0, 0)
    (report.Comp.installed_facts, report.Comp.installed_edges);
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
    (Summary.delta ~old_p:p0 ~new_p:p2 <> None);
  check_fallback "rewrite-body edit" ~reason:"non-monotone delta" ~base_program:p0
    ~base_solution:s0 p2 (config p2 flavor)

(* A baseline solved under another flavor is not a fixpoint of this
   configuration: the solution records the configuration it was solved
   under, and the warm path refuses it before installing anything. *)
let test_stale_baseline () =
  let p0 = Ipa_testlib.random_program 5 in
  let type2 = Flavors.Type_sens { depth = 2; heap = 1 } in
  let insens = Solver.run p0 (config p0 Flavors.Insensitive) in
  check_fallback "insens baseline, 2typeH solve" ~reason:"baseline of another configuration"
    ~base_program:p0 ~base_solution:insens p0 (config p0 type2);
  (* A snapshot decoded without naming its configuration records none. *)
  let s0 = Solver.run p0 (config p0 type2) in
  (match Snapshot.decode ~program:p0 (snapshot_bytes p0 s0) with
  | Error e -> Alcotest.failf "decode: %s" (Snapshot.error_to_string e)
  | Ok snap ->
    check_fallback "decoded, no configuration named"
      ~reason:"baseline of another configuration" ~base_program:p0
      ~base_solution:snap.solution p0 (config p0 type2));
  (* Of the right configuration but another program: solved before the
     first of two edits, passed as the once-edited program's. Only
     installing can tell: rebuilding the once-edited program's state, the
     first edit's method derives what the baseline lacks. *)
  let q0 = Ipa_testlib.random_program 12 in
  match Edits.pick ~kinds:Edits.monotone_kinds ~seed:12 ~n:2 q0 with
  | [ e1; e2 ] ->
    let q1 = Edits.apply q0 e1 in
    let q2 = Edits.apply q1 e2 in
    check_fallback "a baseline of the program before" ~reason:"stale baseline: new object"
      ~base_program:q1 ~base_solution:(Solver.run q0 (config q0 type2)) q2 (config q2 type2)
  | _ -> Alcotest.fail "expected two edits"

(* A configuration built for the base program, reused for an edited one
   whose new objects its type-sensitive merge must place: the merge reads
   the program being solved, so the warm solve returns the cold bytes. *)
let test_config_of_base () =
  let p0 = Ipa_synthetic.Dacapo.build ~scale:0.05 (Option.get (Ipa_synthetic.Dacapo.find "jython")) in
  let type2 = Flavors.Type_sens { depth = 2; heap = 1 } in
  let cfg = config p0 type2 in
  let base = Solver.run p0 cfg in
  let p1 = Edits.apply_all p0 (Edits.pick ~seed:29 ~n:3 ~kinds:Edits.monotone_kinds p0) in
  let warm, report = Comp.solve_incremental ~base_program:p0 ~base_solution:base p1 cfg in
  check Alcotest.(option string) "warm path taken" None report.Comp.fallback;
  check Alcotest.bool "warm == cold" true
    (String.equal (warm_bytes p1 warm) (warm_bytes p1 (Solver.run p1 (config p1 type2))))

(* The configurations a pair is drawn from: the four flavors plain, two
   introspective 2objH second passes whose refine sets skip different
   random heaps and call sites of [p0] (ids every monotone extension
   keeps), and the field-based insensitive ablation. *)
let config_variants p0 ~salt =
  let rng = Splitmix.create salt in
  let cg = Solver.run p0 (config p0 Flavors.Insensitive) in
  let refine () =
    let skip_objects = Ipa_support.Int_set.create () in
    let skip_sites = Ipa_support.Int_set.create () in
    for h = 0 to Program.n_heaps p0 - 1 do
      if Splitmix.chance rng 0.3 then ignore (Ipa_support.Int_set.add skip_objects h)
    done;
    Solution.iter_cg cg (fun ~invo ~caller:_ ~meth ~callee:_ ->
        if Splitmix.chance rng 0.3 then
          ignore (Ipa_support.Int_set.add skip_sites (Ipa_core.Refine.pack_site ~invo ~meth)));
    Ipa_core.Refine.All_except { skip_objects; skip_sites }
  in
  let second_pass name =
    let r = refine () in
    ( name,
      fun p ->
        Ipa_core.Analysis.second_pass_config p (Flavors.Object_sens { depth = 2; heap = 1 }) r )
  in
  List.map (fun f -> (Flavors.to_string f, fun p -> config p f)) all_flavors
  @ [
      second_pass "2objH, random refine sets (a)";
      second_pass "2objH, random refine sets (b)";
      ( "insens field-based",
        fun p -> { (config p Flavors.Insensitive) with Solver.field_sensitive = false } );
    ]

let n_config_variants = List.length all_flavors + 3

(* A base solved under configuration [a] of the once-edited program, then
   a warm solve under [b] of the twice-edited one: it must fall back or
   equal the cold solve, and it falls back for the configuration exactly
   when [a] and [b] differ. *)
let prop_other_config (seed, a, b) =
  let p0 = Ipa_testlib.random_program seed in
  match Edits.pick ~kinds:Edits.monotone_kinds ~seed ~n:2 p0 with
  | [ e1; e2 ] ->
    let p1 = Edits.apply p0 e1 in
    let p2 = Edits.apply p1 e2 in
    let variants = Array.of_list (config_variants p0 ~salt:seed) in
    let name_a, cfg_a = variants.(a) in
    let name_b, cfg_b = variants.(b) in
    let base = Solver.run p1 (cfg_a p1) in
    let warm, report =
      Comp.solve_incremental ~base_program:p1 ~base_solution:base p2 (cfg_b p2)
    in
    let refused = report.Comp.fallback = Some "baseline of another configuration" in
    if refused <> (a <> b) then
      QCheck2.Test.fail_reportf "%s base, %s solve: refused for the configuration: %b" name_a
        name_b refused;
    if report.Comp.fallback = None then begin
      let cold = Solver.run p2 (cfg_b p2) in
      if not (String.equal (warm_bytes p2 warm) (warm_bytes p2 cold)) then
        QCheck2.Test.fail_reportf "%s base, %s solve: warm differs from cold" name_a name_b
    end;
    true
  | _ -> true

let test_other_config =
  qtest ~count:100 "another configuration: fall back or equal cold"
    QCheck2.Gen.(
      triple (int_range 0 199) (int_range 0 (n_config_variants - 1))
        (int_range 0 (n_config_variants - 1)))
    prop_other_config

(* ---------- installing the baseline ---------- *)

let total_facts (s : Solution.t) =
  let n = ref 0 in
  Ipa_support.Dynarr.iter
    (function None -> () | Some set -> n := !n + Ipa_support.Int_set.cardinal set)
    s.Solution.pts;
  !n

(* Re-solving an unchanged program installs every fact of the cold
   fixpoint and derives nothing. *)
let test_install_unchanged () =
  List.iter
    (fun flavor ->
      let name = Flavors.to_string flavor in
      let p = Ipa_testlib.random_program 11 in
      let cold = Solver.run p (config p flavor) in
      let warm, report =
        Comp.solve_incremental ~base_program:p ~base_solution:cold p (config p flavor)
      in
      check Alcotest.(option string) (name ^ ": no fallback") None report.Comp.fallback;
      check Alcotest.int (name ^ ": no derivations") 0 warm.Solution.derivations;
      check Alcotest.(list int) (name ^ ": nothing dirty") [] report.Comp.dirty_sccs;
      check Alcotest.int (name ^ ": installed = cold facts") (total_facts cold)
        report.Comp.installed_facts;
      check Alcotest.bool (name ^ ": edges installed") true (report.Comp.installed_edges > 0);
      check Alcotest.bool (name ^ ": warm == cold") true
        (String.equal (warm_bytes p warm) (warm_bytes p cold)))
    flavors

(* main: r = m(); s = r. m returns nothing until the edit appends
   [ev = new K; return ev], which gives m a fresh return variable. main's
   body is unchanged and the installed call edge into m has no return
   edge yet, so the warm solve must add it; the object must still reach r
   and s. *)
let test_install_new_return () =
  let b = B.create () in
  let obj = B.add_class b "Object" in
  let cls = B.add_class b ~super:obj "K" in
  let main = B.add_method b ~owner:cls ~name:"main" ~static:true ~params:[] () in
  let m = B.add_method b ~owner:cls ~name:"m" ~static:true ~params:[] () in
  let r = B.add_var b main "r" in
  let s = B.add_var b main "s" in
  ignore (B.scall b main ~callee:m ~actuals:[] ~recv:r ());
  B.move b main ~target:s ~source:r;
  ignore (B.alloc b m ~target:(B.add_var b m "x") ~cls);
  B.add_entry b main;
  let base = B.finish b in
  let edited = Edits.apply base { Edits.kind = Edits.Add_alloc; meth = m; salt = 0 } in
  check Alcotest.bool "m gains a return variable" true
    ((Program.meth_info base m).ret_var = None && (Program.meth_info edited m).ret_var <> None);
  List.iter
    (fun flavor ->
      let name = Flavors.to_string flavor in
      let s0 = Solver.run base (config base flavor) in
      let warm, report =
        Comp.solve_incremental ~base_program:base ~base_solution:s0 edited (config edited flavor)
      in
      check Alcotest.(option string) (name ^ ": no fallback") None report.Comp.fallback;
      let reaches v =
        let hit = ref false in
        Solution.iter_var_pts warm (fun ~var ~ctx:_ ~heap ~hctx:_ ->
            if var = v && heap >= Program.n_heaps base then hit := true);
        !hit
      in
      check Alcotest.bool (name ^ ": new object reaches r") true (reaches r);
      check Alcotest.bool (name ^ ": and s") true (reaches s);
      let cold = Solver.run edited (config edited flavor) in
      check Alcotest.bool (name ^ ": warm == cold") true
        (String.equal (warm_bytes edited warm) (warm_bytes edited cold)))
    flavors

(* ---------- adversarial deltas ---------- *)

(* Program changes that [Edits] never makes. Each must be refused as a
   non-monotone delta, or be accepted and solve warm to exactly the cold
   fixpoint and the Datalog oracle's, with no stale-baseline fallback: a
   hole in [Summary.delta] would otherwise drop facts silently. *)
type delta =
  | Swap  (** two different instructions of a body trade places *)
  | Retarget  (** a static call names another callee of the same arity *)
  | Drop_last  (** a body loses its last instruction *)
  | Resuper  (** a class gets another superclass *)
  | Override
      (** a new subclass of an old class overrides a method it inherits,
          and an old method allocates it *)
  | Old_var_return  (** a method without a return variable returns an old local *)

let deltas = [| Swap; Retarget; Drop_last; Resuper; Override; Old_var_return |]

let delta_name = function
  | Swap -> "swap"
  | Retarget -> "retarget"
  | Drop_last -> "drop-last"
  | Resuper -> "resuper"
  | Override -> "override"
  | Old_var_return -> "old-var-return"

(* [apply_delta p d salt] is the changed program, or [None] when [p] offers
   no site for [d]. *)
let apply_delta p d salt =
  let rng = Splitmix.create salt in
  let classes = Array.init (Program.n_classes p) (Program.class_info p) in
  let meths = Array.init (Program.n_meths p) (Program.meth_info p) in
  let vars = ref (Array.init (Program.n_vars p) (Program.var_info p)) in
  let heaps = ref (Array.init (Program.n_heaps p) (Program.heap_info p)) in
  let invos = Array.init (Program.n_invos p) (Program.invo_info p) in
  let new_classes = ref [||] and new_meths = ref [||] in
  let pick l = match l with [] -> None | l -> Some (Splitmix.choose rng (Array.of_list l)) in
  let ids n keep = List.filter keep (List.init n Fun.id) in
  let fresh_var owner name =
    vars := Array.append !vars [| { Program.var_name = name; var_owner = owner } |];
    Array.length !vars - 1
  in
  let fresh_heap owner cls =
    let h = Array.length !heaps in
    heaps :=
      Array.append !heaps
        [|
          { Program.heap_name = Printf.sprintf "adv%d" h; heap_class = cls; heap_owner = owner };
        |];
    h
  in
  (* Surface locals of [m]: not [this], not the return variable. *)
  let locals m =
    let mi = meths.(m) in
    ids (Program.n_vars p) (fun v ->
        let vi = Program.var_info p v in
        vi.var_owner = m && Some v <> mi.this_var && Some v <> mi.ret_var)
  in
  let changed =
    match d with
    | Swap -> (
      let pairs m =
        let body = meths.(m).body in
        List.concat_map
          (fun i ->
            List.filter_map
              (fun j -> if body.(i) <> body.(j) then Some (m, i, j) else None)
              (ids (Array.length body) (fun j -> j > i)))
          (ids (Array.length body) (fun _ -> true))
      in
      match pick (List.concat_map pairs (ids (Array.length meths) (fun _ -> true))) with
      | None -> false
      | Some (m, i, j) ->
        let body = Array.copy meths.(m).body in
        let t = body.(i) in
        body.(i) <- body.(j);
        body.(j) <- t;
        meths.(m) <- { (meths.(m)) with body };
        true)
    | Retarget -> (
      let static_of_arity n =
        ids (Array.length meths) (fun m ->
            meths.(m).is_static_meth && (not meths.(m).is_abstract)
            && Array.length meths.(m).formals = n)
      in
      let sites =
        List.concat_map
          (fun i ->
            match invos.(i).call with
            | Static { callee } ->
              List.filter_map
                (fun c -> if c <> callee then Some (i, c) else None)
                (static_of_arity (Array.length invos.(i).actuals))
            | Virtual _ -> [])
          (ids (Array.length invos) (fun _ -> true))
      in
      match pick sites with
      | None -> false
      | Some (i, callee) ->
        invos.(i) <- { (invos.(i)) with call = Static { callee } };
        true)
    | Drop_last -> (
      match pick (ids (Array.length meths) (fun m -> Array.length meths.(m).body > 0)) with
      | None -> false
      | Some m ->
        let body = meths.(m).body in
        meths.(m) <- { (meths.(m)) with body = Array.sub body 0 (Array.length body - 1) };
        true)
    | Resuper -> (
      (* Supers precede their subclasses in id order, so any earlier class
         keeps the hierarchy acyclic. *)
      let moves =
        List.concat_map
          (fun c ->
            List.filter_map
              (fun s ->
                if (not classes.(s).is_interface) && Some s <> classes.(c).super then Some (c, s)
                else None)
              (ids c (fun _ -> true)))
          (ids (Array.length classes) (fun c -> not classes.(c).is_interface))
      in
      match pick moves with
      | None -> false
      | Some (c, s) ->
        classes.(c) <- { (classes.(c)) with super = Some s };
        true)
    | Override -> (
      let inherited =
        List.concat_map
          (fun c ->
            List.filter_map
              (fun s ->
                match Program.dispatch p c s with
                | Some m0 when not meths.(m0).is_static_meth -> Some (c, s)
                | _ -> None)
              (ids (Program.n_sigs p) (fun _ -> true)))
          (ids (Array.length classes) (fun c -> not classes.(c).is_interface))
      in
      let hosts = ids (Array.length meths) (fun m -> locals m <> []) in
      match (pick inherited, pick hosts) with
      | None, _ | _, None -> false
      | Some (c, s), Some host ->
        let sub = Array.length classes in
        let m' = Array.length meths in
        let si = Program.sig_info p s in
        let this = fresh_var m' "this" in
        let formals = Array.init si.arity (fun k -> fresh_var m' (Printf.sprintf "p%d" k)) in
        let a = fresh_var m' "a" in
        let ret = fresh_var m' "$ret" in
        let inner = fresh_heap m' sub in
        new_classes :=
          [|
            {
              Program.class_name = "Adv";
              super = Some c;
              interfaces = [];
              is_interface = false;
              declared = [ (s, m') ];
            };
          |];
        new_meths :=
          [|
            {
              Program.meth_name = si.sig_name;
              meth_owner = sub;
              meth_sig = s;
              is_static_meth = false;
              is_abstract = false;
              this_var = Some this;
              formals;
              ret_var = Some ret;
              catches = [||];
              body = [| Alloc { target = a; heap = inner }; Return { source = a } |];
            };
          |];
        let target = Splitmix.choose rng (Array.of_list (locals host)) in
        let outer = fresh_heap host sub in
        meths.(host) <-
          {
            (meths.(host)) with
            body = Array.append meths.(host).body [| Alloc { target; heap = outer } |];
          };
        true)
    | Old_var_return -> (
      (* Aim where a wrong answer would show: a local that an allocation
         fills, in a method some call site reads a result from. *)
      let read_from m =
        Array.exists
          (fun (ii : Program.invo_info) ->
            ii.recv <> None
            &&
            match ii.call with
            | Static { callee } -> callee = m
            | Virtual { signature; _ } -> signature = meths.(m).meth_sig)
          invos
      in
      let allocated m v =
        Array.exists
          (function Program.Alloc { target; _ } -> target = v | _ -> false)
          meths.(m).body
      in
      let sites =
        List.concat_map
          (fun m ->
            List.filter_map (fun v -> if allocated m v then Some (m, v) else None) (locals m))
          (ids (Array.length meths) (fun m ->
               meths.(m).ret_var = None && (not meths.(m).is_abstract) && read_from m))
      in
      match pick sites with
      | None -> false
      | Some (m, v) ->
        meths.(m) <-
          {
            (meths.(m)) with
            ret_var = Some v;
            body = Array.append meths.(m).body [| Return { source = v } |];
          };
        true)
  in
  if not changed then None
  else
    Some
      (Program.make
         ~classes:(Array.append classes !new_classes)
         ~fields:(Array.init (Program.n_fields p) (Program.field_info p))
         ~sigs:(Array.init (Program.n_sigs p) (Program.sig_info p))
         ~meths:(Array.append meths !new_meths) ~vars:!vars ~heaps:!heaps ~invos
         ~entries:(Program.entries p) ())

(* [true] when the warm path took the delta; fails unless it was refused
   as non-monotone or solved to the cold and oracle fixpoints. *)
let delta_accepted d p0 p1 flavor =
  let what = Printf.sprintf "%s delta, %s" (delta_name d) (Flavors.to_string flavor) in
  let s0 = Solver.run p0 (config p0 flavor) in
  let warm, report =
    Comp.solve_incremental ~base_program:p0 ~base_solution:s0 p1 (config p1 flavor)
  in
  match report.Comp.fallback with
  | Some "non-monotone delta" -> false
  | Some reason -> QCheck2.Test.fail_reportf "%s: accepted, then fell back: %s" what reason
  | None ->
    let cold = Solver.run p1 (config p1 flavor) in
    if not (String.equal (warm_bytes p1 warm) (warm_bytes p1 cold)) then
      QCheck2.Test.fail_reportf "%s: warm differs from cold" what;
    let oracle = Datalog_backend.run_plain p1 (Flavors.strategy p1 flavor) in
    if Ipa_testlib.canon_native warm <> Ipa_testlib.canon_datalog p1 oracle then
      QCheck2.Test.fail_reportf "%s: warm differs from the Datalog oracle" what;
    true

let prop_adversarial (seed, d, salt) =
  let p0 = Ipa_testlib.random_program seed in
  (match apply_delta p0 deltas.(d) salt with
  | None -> ()
  | Some p1 -> List.iter (fun flavor -> ignore (delta_accepted deltas.(d) p0 p1 flavor)) flavors);
  true

let test_adversarial =
  qtest ~count:300 "adversarial deltas: refused or warm == cold == oracle"
    QCheck2.Gen.(triple (int_range 700 999) (int_range 0 (Array.length deltas - 1)) nat)
    prop_adversarial

(* Two extensions the property must see taken, pinned: an override in a
   new subclass, and an old local promoted to a return variable, whose
   baseline facts cross the return edge the resume adds to every old call
   edge into its method. *)
let test_adversarial_pinned () =
  let count d =
    let n = ref 0 in
    for seed = 700 to 719 do
      let p0 = Ipa_testlib.random_program seed in
      match apply_delta p0 d seed with
      | Some p1 when delta_accepted d p0 p1 Flavors.Insensitive -> incr n
      | _ -> ()
    done;
    !n
  in
  check Alcotest.bool "some override is accepted" true (count Override > 0);
  check Alcotest.bool "some old-var return is accepted" true (count Old_var_return > 0)

(* ---------- the extension check against its reference ---------- *)

(* [Summary.delta] as it was before its dispatch check went linear: the
   same structural checks, then every old (class, signature) pair looked
   up in both programs. The reference the two-pass check must agree
   with, verdict and mask. *)
let reference_delta ~old_p ~new_p =
  let open Program in
  let n_old_meths = n_meths old_p in
  let mask = Array.init (n_meths new_p) (fun m -> m >= n_old_meths) in
  let ok =
    n_classes old_p <= n_classes new_p
    && n_fields old_p <= n_fields new_p
    && n_sigs old_p <= n_sigs new_p
    && n_old_meths <= n_meths new_p
    && n_vars old_p <= n_vars new_p
    && n_heaps old_p <= n_heaps new_p
    && n_invos old_p <= n_invos new_p
    && (let ok = ref true in
        for c = 0 to n_classes old_p - 1 do
          let a = class_info old_p c and b = class_info new_p c in
          if
            a.class_name <> b.class_name || a.super <> b.super || a.interfaces <> b.interfaces
            || a.is_interface <> b.is_interface
          then ok := false
        done;
        for f = 0 to n_fields old_p - 1 do
          if field_info old_p f <> field_info new_p f then ok := false
        done;
        for s = 0 to n_sigs old_p - 1 do
          if sig_info old_p s <> sig_info new_p s then ok := false
        done;
        for v = 0 to n_vars old_p - 1 do
          if var_info old_p v <> var_info new_p v then ok := false
        done;
        for h = 0 to n_heaps old_p - 1 do
          if heap_info old_p h <> heap_info new_p h then ok := false
        done;
        for i = 0 to n_invos old_p - 1 do
          if invo_info old_p i <> invo_info new_p i then ok := false
        done;
        for m = 0 to n_old_meths - 1 do
          let a = meth_info old_p m and b = meth_info new_p m in
          let body_prefix =
            Array.length a.body <= Array.length b.body
            && (let pre = ref true in
                Array.iteri (fun i ia -> if b.body.(i) <> ia then pre := false) a.body;
                !pre)
          in
          let ret_ok =
            match (a.ret_var, b.ret_var) with
            | None, None -> true
            | None, Some _ -> true
            | Some x, Some y -> x = y
            | Some _, None -> false
          in
          if
            not
              (a.meth_name = b.meth_name && a.meth_owner = b.meth_owner
             && a.meth_sig = b.meth_sig
              && a.is_static_meth = b.is_static_meth
              && a.is_abstract = b.is_abstract && a.this_var = b.this_var
              && a.formals = b.formals && a.catches = b.catches && ret_ok && body_prefix)
          then ok := false
          else if Array.length a.body < Array.length b.body || a.ret_var <> b.ret_var then
            mask.(m) <- true
        done;
        (if !ok then
           for c = 0 to n_classes old_p - 1 do
             for s = 0 to n_sigs old_p - 1 do
               if dispatch old_p c s <> dispatch new_p c s then ok := false
             done
           done);
        !ok)
    && List.for_all (fun e -> List.mem e (entries new_p)) (entries old_p)
  in
  if ok then Some mask else None

let verdict = function None -> "None" | Some _ -> "Some"

(* Both directions: an edit read backwards is a shrinking delta. *)
let check_same_verdict what old_p new_p =
  List.iter
    (fun (dir, old_p, new_p) ->
      let got = Summary.delta ~old_p ~new_p and want = reference_delta ~old_p ~new_p in
      if got <> want then
        QCheck2.Test.fail_reportf "%s (%s): delta gives %s, the reference %s" what dir
          (verdict got) (verdict want))
    [ ("forward", old_p, new_p); ("backward", new_p, old_p) ]

let prop_delta_reference_adversarial (seed, d, salt) =
  let p0 = Ipa_testlib.random_program seed in
  (match apply_delta p0 deltas.(d) salt with
  | None -> ()
  | Some p1 -> check_same_verdict (delta_name deltas.(d)) p0 p1);
  true

let prop_delta_reference_edits (seed, n_edits) =
  let p0 = Ipa_testlib.random_program seed in
  let edits = Edits.pick ~seed ~n:n_edits p0 in
  let last =
    List.fold_left
      (fun p e ->
        let p' = Edits.apply p e in
        check_same_verdict (Edits.describe p e) p p';
        p')
      p0 edits
  in
  check_same_verdict "whole chain" p0 last;
  true

let test_delta_reference_adversarial =
  qtest ~count:300 "delta == reference on adversarial deltas"
    QCheck2.Gen.(triple (int_range 700 999) (int_range 0 (Array.length deltas - 1)) nat)
    prop_delta_reference_adversarial

let test_delta_reference_edits =
  qtest ~count:50 "delta == reference on edit chains"
    QCheck2.Gen.(pair (int_range 400 599) (int_range 1 4))
    prop_delta_reference_edits

(* [with_override p ~c ~s ~leak] adds a new subclass [Adv] of [c] and a
   new method of [Adv] declaring [s]. With [leak], [c]'s own table lists
   that method too, so the old pair (c, s) dispatches to it. *)
let with_override p ~c ~s ~leak =
  let classes = Array.init (Program.n_classes p) (Program.class_info p) in
  let meths = Array.init (Program.n_meths p) (Program.meth_info p) in
  let n_vars = Program.n_vars p in
  let sub = Array.length classes and m' = Array.length meths in
  let si = Program.sig_info p s in
  let vars =
    Array.append
      (Array.init n_vars (Program.var_info p))
      (Array.init (si.arity + 1) (fun k ->
           { Program.var_name = Printf.sprintf "adv%d" k; var_owner = m' }))
  in
  if leak then classes.(c) <- { (classes.(c)) with declared = (s, m') :: classes.(c).declared };
  Program.make
    ~classes:
      (Array.append classes
         [|
           {
             Program.class_name = "Adv";
             super = Some c;
             interfaces = [];
             is_interface = false;
             declared = [ (s, m') ];
           };
         |])
    ~fields:(Array.init (Program.n_fields p) (Program.field_info p))
    ~sigs:(Array.init (Program.n_sigs p) (Program.sig_info p))
    ~meths:
      (Array.append meths
         [|
           {
             Program.meth_name = si.sig_name;
             meth_owner = sub;
             meth_sig = s;
             is_static_meth = false;
             is_abstract = false;
             this_var = Some n_vars;
             formals = Array.init si.arity (fun k -> n_vars + 1 + k);
             ret_var = None;
             catches = [||];
             body = [||];
           };
         |])
    ~vars
    ~heaps:(Array.init (Program.n_heaps p) (Program.heap_info p))
    ~invos:(Array.init (Program.n_invos p) (Program.invo_info p))
    ~entries:(Program.entries p) ()

(* A new subclass overriding an inherited method leaves every old dispatch
   alone and is an extension. The same override listed in the old class's
   table redirects the old pair (c, s): from the inherited target, or from
   no target at all. Both are refused, by the reference and by [delta]. *)
let test_delta_redirect () =
  let redirected = ref 0 and resolved = ref 0 in
  for seed = 700 to 719 do
    let p = Ipa_testlib.random_program seed in
    for c = 0 to Program.n_classes p - 1 do
      let ci = Program.class_info p c in
      for s = 0 to Program.n_sigs p - 1 do
        let declares = List.mem_assoc s ci.declared in
        let old_target = Program.dispatch p c s in
        if (not ci.is_interface) && not declares then begin
          let what = Printf.sprintf "seed %d class %d sig %d" seed c s in
          let extension = with_override p ~c ~s ~leak:false in
          check Alcotest.bool (what ^ ": subclass override extends") true
            (Summary.delta ~old_p:p ~new_p:extension <> None);
          check_same_verdict (what ^ ": subclass override") p extension;
          let leaked = with_override p ~c ~s ~leak:true in
          check Alcotest.bool (what ^ ": old dispatch changes") true
            (Program.dispatch leaked c s <> old_target);
          check Alcotest.bool (what ^ ": redirect refused") true
            (Summary.delta ~old_p:p ~new_p:leaked = None);
          check_same_verdict (what ^ ": redirect") p leaked;
          if old_target = None then incr resolved else incr redirected
        end
      done
    done
  done;
  check Alcotest.bool "an inherited target was redirected" true (!redirected > 0);
  check Alcotest.bool "an unresolved pair was newly resolved" true (!resolved > 0)

(* ---------- borrowed baseline sets ---------- *)

(* Chain [e] is [len] locals c0, .., c(len-1) of its host, created in
   that order, each allocating its own object, with the copies
   c1 -> c0 -> c2 -> .. -> c(len-1): every set strictly grows along the
   chain, and c0, the lowest node id, sits inside it. Closing chain [e]
   appends the move [c1 = c(len-1)] to its host, a dirty body: in the
   counted phase the new edge's walk finds the cycle and merges it onto
   c0, whose installed set lacks the objects of c2 .. c(len-1), so the
   merge copies the borrowed set before growing it. Chain [e > 0] also
   feeds chain [e - 1] through a static field (c0 of [e] into c1 of
   [e - 1]): closing [e] grows the group the previous edit merged, whose
   members all borrow one set. Programs differ only in how many chains
   are closed, so each is a monotone, id-stable extension of the
   previous. *)
let cycle_program ~hosts chains ~closed =
  let b = B.create () in
  let obj = B.add_class b "Object" in
  let cls = B.add_class b ~super:obj "K" in
  let main = B.add_method b ~owner:cls ~name:"main" ~static:true ~params:[] () in
  let host =
    Array.init hosts (fun i ->
        B.add_method b ~owner:cls ~name:(Printf.sprintf "h%d" i) ~static:true ~params:[] ())
  in
  Array.iter (fun h -> ignore (B.scall b main ~callee:h ~actuals:[] ())) host;
  let chains = Array.of_list chains in
  let locals =
    Array.mapi
      (fun e (h, len) ->
        Array.init len (fun i -> B.add_var b host.(h) (Printf.sprintf "c%d_%d" e i)))
      chains
  in
  Array.iteri
    (fun e (h, len) ->
      let c = locals.(e) in
      Array.iter (fun v -> ignore (B.alloc b host.(h) ~target:v ~cls)) c;
      B.move b host.(h) ~target:c.(0) ~source:c.(1);
      B.move b host.(h) ~target:c.(2) ~source:c.(0);
      for i = 3 to len - 1 do
        B.move b host.(h) ~target:c.(i) ~source:c.(i - 1)
      done;
      if e > 0 then begin
        let f = B.add_field b ~owner:cls ~static:true (Printf.sprintf "f%d" e) in
        B.store_static b host.(h) ~field:f ~source:c.(0);
        B.load_static b host.(fst chains.(e - 1)) ~target:locals.(e - 1).(1) ~field:f
      end)
    chains;
  Array.iteri
    (fun e (h, len) ->
      if e < closed then B.move b host.(h) ~target:locals.(e).(1) ~source:locals.(e).(len - 1))
    chains;
  B.add_entry b main;
  B.finish b

(* A warm solve starts from the baseline's own sets. However an edit grows
   them — an object added to an installed node, or a merge whose
   representative gains objects from the member it absorbs — the baseline,
   and every solution before it in the chain, must keep its bytes; the
   warm result must equal the cold solve and the Datalog oracle. *)
let prop_borrowed_untouched (hosts, raw_chains) =
  let chains = List.map (fun (h, len) -> (h mod hosts, len)) raw_chains in
  let program k = cycle_program ~hosts chains ~closed:k in
  List.iter
    (fun flavor ->
      let name = Flavors.to_string flavor in
      let p0 = program 0 in
      let s0 = Solver.run p0 (config p0 flavor) in
      let history = ref [ (p0, s0, digest p0 s0) ] in
      List.iteri
        (fun i _ ->
          let p, s, before = List.hd !history in
          let p' = program (i + 1) in
          let warm, report =
            Comp.solve_incremental ~base_program:p ~base_solution:s p' (config p' flavor)
          in
          (match report.Comp.fallback with
          | None -> ()
          | Some reason -> QCheck2.Test.fail_reportf "%s edit %d fell back: %s" name i reason);
          if warm.Solution.counters.Solution.cycles_collapsed = 0 then
            QCheck2.Test.fail_reportf "%s edit %d: the closed chain was not collapsed" name i;
          if digest p s <> before then
            QCheck2.Test.fail_reportf "%s edit %d: the warm solve wrote into its baseline" name i;
          let cold = Solver.run p' (config p' flavor) in
          if not (String.equal (warm_bytes p' warm) (warm_bytes p' cold)) then
            QCheck2.Test.fail_reportf "%s edit %d: warm differs from cold" name i;
          let oracle = Datalog_backend.run_plain p' (Flavors.strategy p' flavor) in
          if Ipa_testlib.canon_native warm <> Ipa_testlib.canon_datalog p' oracle then
            QCheck2.Test.fail_reportf "%s edit %d: warm differs from the Datalog oracle" name i;
          history := (p', warm, digest p' warm) :: !history)
        chains;
      List.iter
        (fun (p, s, d) ->
          if digest p s <> d then
            QCheck2.Test.fail_reportf "%s: a solution changed later in the chain" name)
        !history)
    flavors;
  true

let test_borrowed_untouched =
  qtest ~count:20 "baseline sets never written (insens, 2typeH)"
    QCheck2.Gen.(
      pair (int_range 1 3) (list_size (int_range 3 5) (pair (int_range 0 2) (int_range 3 5))))
    prop_borrowed_untouched

(* A solved or decoded base holds one set object per distinct content, so
   a warm solve borrows one object at many nodes, and its state keeps
   borrowing the objects its own result shares. Growing one node's set
   must copy it first: the warm solve from such a base, materialized or
   decoded, and the resume after it equal the cold solves, and every
   solution before still encodes to its bytes. *)
let prop_shared_base (seed, flavor) =
  let p0 = Ipa_testlib.random_program seed in
  match Edits.pick ~kinds:Edits.monotone_kinds ~seed ~n:2 p0 with
  | [ e1; e2 ] ->
    let p1 = Edits.apply p0 e1 in
    let p2 = Edits.apply p1 e2 in
    let name = Flavors.to_string flavor in
    let cfg = config p0 flavor in
    let base = Solver.run p0 cfg in
    let program_digest = Snapshot.digest_program p0 in
    let bytes =
      Snapshot.encode
        {
          Snapshot.key = Snapshot.config_key ~program_digest cfg;
          program_digest;
          label = name;
          seconds = 0.0;
          solution = base;
          metrics = None;
        }
    in
    let decoded =
      match Snapshot.decode ~program:p0 ~config:cfg bytes with
      | Ok snap -> snap.solution
      | Error e -> QCheck2.Test.fail_reportf "%s: decode: %s" name (Snapshot.error_to_string e)
    in
    let before = digest p0 base in
    let warm_step what ~base_program ~base p ~resumed =
      let sol, report =
        Comp.solve_incremental ~base_program ~base_solution:base p (config p flavor)
      in
      (match report.Comp.fallback with
      | None -> ()
      | Some reason -> QCheck2.Test.fail_reportf "%s, %s: fell back: %s" name what reason);
      if report.Comp.resumed <> resumed then
        QCheck2.Test.fail_reportf "%s, %s: resumed = %b" name what report.Comp.resumed;
      if not (String.equal (warm_bytes p sol) (warm_bytes p (Solver.run p (config p flavor))))
      then QCheck2.Test.fail_reportf "%s, %s: warm differs from cold" name what;
      sol
    in
    List.iter
      (fun (what, b) ->
        let w1 = warm_step what ~base_program:p0 ~base:b p1 ~resumed:false in
        let d1 = digest p1 w1 in
        ignore (warm_step (what ^ ", resumed") ~base_program:p1 ~base:w1 p2 ~resumed:true);
        if digest p1 w1 <> d1 then
          QCheck2.Test.fail_reportf "%s, %s: the resume wrote into its base" name what)
      [ ("materialized base", base); ("decoded base", decoded) ];
    if digest p0 base <> before then
      QCheck2.Test.fail_reportf "%s: a warm solve wrote into the materialized base" name;
    if digest p0 decoded <> before then
      QCheck2.Test.fail_reportf "%s: a warm solve wrote into the decoded base" name;
    true
  | _ -> true

let test_shared_base =
  qtest ~count:25 "content-shared base sets never written"
    QCheck2.Gen.(pair (int_range 0 499) (oneofl all_flavors))
    prop_shared_base

(* ---------- canonical set layout ---------- *)

(* Every slot's iteration order: what a hashed set's slot layout decides. *)
let layouts (s : Solution.t) =
  List.init (Ipa_support.Dynarr.length s.Solution.pts) (fun n ->
      Option.map
        (fun set -> Ipa_support.Int_set.fold (fun o acc -> o :: acc) set [])
        (Ipa_support.Dynarr.get s.Solution.pts n))

(* A materialized set's layout is a function of its elements: a warm chain
   must lay out every set exactly as the cold solve of the final program
   does, whether it handed a baseline set back or built a new one. *)
let test_layout_canonical () =
  let hashed = ref 0 in
  List.iter
    (fun (bench, seed) ->
      let spec = Option.get (Ipa_synthetic.Dacapo.find bench) in
      let p0 = Ipa_synthetic.Dacapo.build ~scale:0.02 spec in
      let edits = Edits.pick ~kinds:Edits.monotone_kinds ~seed ~n:3 p0 in
      List.iter
        (fun flavor ->
          let what = Printf.sprintf "%s seed %d %s" bench seed (Flavors.to_string flavor) in
          let pf, warm =
            List.fold_left
              (fun (p, s) e ->
                let p' = Edits.apply p e in
                let s', report =
                  Comp.solve_incremental ~base_program:p ~base_solution:s p' (config p' flavor)
                in
                check Alcotest.(option string) (what ^ ": warm path") None report.Comp.fallback;
                (p', s'))
              (p0, Solver.run p0 (config p0 flavor))
              edits
          in
          let cold = Solver.run pf (config pf flavor) in
          Ipa_support.Dynarr.iter
            (function
              | Some set when not (Ipa_support.Int_set.is_small set) -> incr hashed
              | _ -> ())
            cold.Solution.pts;
          check Alcotest.bool (what ^ ": warm == cold") true
            (String.equal (warm_bytes pf warm) (warm_bytes pf cold));
          check Alcotest.bool (what ^ ": same iteration order in every slot") true
            (layouts warm = layouts cold))
        flavors)
    [ ("jython", 1); ("jython", 3); ("antlr", 2); ("bloat", 4) ];
  check Alcotest.bool "hashed sets were compared" true (!hashed > 0)

(* ---------- call-graph components ---------- *)

(* A method's CHA targets, from scratch: a static call's callee, and for
   a virtual call whatever every class dispatches its signature to. *)
let naive_targets p m =
  List.concat_map
    (fun (i : Program.instr) ->
      match i with
      | Call invo -> (
        match (Program.invo_info p invo).call with
        | Static { callee } -> [ callee ]
        | Virtual { signature; _ } ->
          List.filter_map
            (fun c -> Program.dispatch p c signature)
            (List.init (Program.n_classes p) Fun.id))
      | _ -> [])
    (Array.to_list (Program.meth_info p m).body)

(* Every Dacapo spec's CHA graph at 0.02 ([naive_targets]) with its
   reflexive reachability: [reach.(v)] marks what [v] reaches. *)
let dacapo_reach =
  lazy
    (List.map
       (fun (spec : Ipa_synthetic.Dacapo.spec) ->
         let p = Ipa_synthetic.Dacapo.build ~scale:0.02 spec in
         let n = Program.n_meths p in
         let targets = Array.init n (naive_targets p) in
         let reach =
           Array.init n (fun v ->
               let seen = Array.make n false in
               let rec go u =
                 if not seen.(u) then begin
                   seen.(u) <- true;
                   List.iter go targets.(u)
                 end
               in
               go v;
               seen)
         in
         (spec.name, p, reach))
       Ipa_synthetic.Dacapo.all)

(* Against naive reachability: as many components as mutual-reachability
   classes, and dirty exactly the close-order ids of the classes that reach
   a masked method. *)
let test_dirty_components =
  qtest ~count:50 "dirty components = naive, Dacapo"
    QCheck2.Gen.(int_range 0 99_999)
    (fun seed ->
      let rng = Splitmix.create seed in
      List.iter
        (fun (name, p, reach) ->
          let n = Program.n_meths p in
          let density = [| 0.0; 0.002; 0.02; 0.2 |].(Splitmix.int rng 4) in
          let changed = Array.init n (fun _ -> Splitmix.chance rng density) in
          let n_comps, dirty = Summary.dirty_components p changed in
          let same_class v w = reach.(v).(w) && reach.(w).(v) in
          let classes =
            List.length
              (List.filter
                 (fun v -> not (List.exists (fun w -> same_class v w) (List.init v Fun.id)))
                 (List.init n Fun.id))
          in
          if n_comps <> classes then
            QCheck2.Test.fail_reportf "%s seed %d: %d components, %d classes" name seed n_comps
              classes;
          let comp_of = close_order_ids p in
          let expected =
            List.sort_uniq compare
              (List.filter_map
                 (fun v ->
                   if List.exists (fun w -> changed.(w) && reach.(v).(w)) (List.init n Fun.id)
                   then Some comp_of.(v)
                   else None)
                 (List.init n Fun.id))
          in
          if dirty <> expected then
            QCheck2.Test.fail_reportf "%s seed %d: dirty %s, naive %s" name seed
              (String.concat "," (List.map string_of_int dirty))
              (String.concat "," (List.map string_of_int expected)))
        (Lazy.force dacapo_reach);
      true)

(* [Summary.call_targets] as it was before it read implementations: every
   signature's targets collected by walking the whole dispatch table. *)
let walk_targets p =
  let sig_targets = Array.make (Program.n_sigs p) [] in
  Program.iter_dispatch p (fun _cls s m ->
      if not (List.mem m sig_targets.(s)) then sig_targets.(s) <- m :: sig_targets.(s));
  Array.init (Program.n_meths p) (fun m ->
      List.sort_uniq compare
        (List.concat_map
           (fun (i : Program.instr) ->
             match i with
             | Call invo -> (
               match (Program.invo_info p invo).call with
               | Static { callee } -> [ callee ]
               | Virtual { signature; _ } -> sig_targets.(signature))
             | _ -> [])
           (Array.to_list (Program.meth_info p m).body)))

let same_targets p = Summary.call_targets p = Array.map Array.of_list (walk_targets p)

let test_call_targets_dacapo () =
  List.iter
    (fun (spec : Ipa_synthetic.Dacapo.spec) ->
      check Alcotest.bool (spec.name ^ ": targets = dispatch walk") true
        (same_targets (Ipa_synthetic.Dacapo.build ~scale:0.02 spec)))
    Ipa_synthetic.Dacapo.all

let test_call_targets_random =
  qtest ~count:200 "call targets == dispatch walk, random programs"
    QCheck2.Gen.(int_range 0 9999)
    (fun seed -> same_targets (Ipa_testlib.random_program seed))

(* ---------- a large region made reachable by an edit ---------- *)

let ring_size = 300
let ring_degree = 8
let ring_pairs = 10

(* [big] holds a ring of [ring_size] locals, each copied into the next
   [ring_degree] (mod the size). Every cycle goes round the ring, far
   longer than the insertion-time walk explores, and every object reaches
   each local [ring_degree] times over. Each of [ring_pairs] locals also
   swaps with a partner, a two-cycle the walk finds. With [call], [main] ends by calling [big]; without, [big] is
   unreachable. The call is the last entity created, so the program with
   it is a monotone, id-stable extension of the one without. *)
let ring_program ~call =
  let b = B.create () in
  let obj = B.add_class b "Object" in
  let cls = B.add_class b ~super:obj "K" in
  let main = B.add_method b ~owner:cls ~name:"main" ~static:true ~params:[] () in
  let big = B.add_method b ~owner:cls ~name:"big" ~static:true ~params:[] () in
  ignore (B.alloc b main ~target:(B.add_var b main "x") ~cls);
  let v = Array.init ring_size (fun i -> B.add_var b big (Printf.sprintf "v%d" i)) in
  for i = 0 to 5 do
    ignore (B.alloc b big ~target:v.(i * ring_size / 6) ~cls)
  done;
  for i = 0 to ring_size - 1 do
    for d = 1 to ring_degree do
      B.move b big ~target:v.((i + d) mod ring_size) ~source:v.(i)
    done
  done;
  for i = 0 to ring_pairs - 1 do
    let w = B.add_var b big (Printf.sprintf "w%d" i) in
    let u = v.(i * ring_size / ring_pairs) in
    B.move b big ~target:w ~source:u;
    B.move b big ~target:u ~source:w
  done;
  if call then ignore (B.scall b main ~callee:big ~actuals:[] ());
  B.add_entry b main;
  B.finish b

let test_large_edit () =
  let base = ring_program ~call:false in
  let edited = ring_program ~call:true in
  List.iter
    (fun flavor ->
      let what = Flavors.to_string flavor in
      let s0 = Solver.run base (config base flavor) in
      let warm, report =
        Comp.solve_incremental ~base_program:base ~base_solution:s0 edited
          (config edited flavor)
      in
      check Alcotest.(option string) (what ^ ": warm path") None report.Comp.fallback;
      let counters = warm.Solution.counters in
      check Alcotest.bool (what ^ ": cycles collapsed") true
        (counters.Solution.cycles_collapsed > 0);
      let cold = Solver.run edited (config edited flavor) in
      check Alcotest.bool (what ^ ": warm == cold") true
        (String.equal (warm_bytes edited warm) (warm_bytes edited cold));
      check Alcotest.int (what ^ ": derivations = cold's") cold.Solution.derivations
        (warm.Solution.derivations + s0.Solution.derivations);
      let oracle = Datalog_backend.run_plain edited (Flavors.strategy edited flavor) in
      check Alcotest.bool (what ^ ": warm == Datalog oracle") true
        (Ipa_testlib.canon_native warm = Ipa_testlib.canon_datalog edited oracle))
    flavors

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
    if Summary.delta ~old_p:base ~new_p:edited = None then incr realigned;
    match Summary.align ~old_p:base ~new_p:edited with
    | None -> Alcotest.failf "seed %d: a monotone edit did not realign" seed
    | Some aligned ->
      check Alcotest.bool (Printf.sprintf "seed %d: extends after align" seed) true
        (Summary.delta ~old_p:base ~new_p:aligned <> None);
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

(* Printing an edited program and parsing the text back gives the same
   entities, for every edit kind: an edit that left one in the program but
   not in its text (a call site, heap or return variable no instruction
   names) would make the text another program. *)
let entity_counts p =
  Program.
    [ n_classes p; n_fields p; n_sigs p; n_meths p; n_vars p; n_heaps p; n_invos p ]

let test_edit_reparse =
  qtest ~count:100 "edited program reparses to the same entities" QCheck2.Gen.(int_range 0 499)
    (fun seed ->
      let p = Ipa_testlib.random_program seed in
      List.iter
        (fun kind ->
          (* The picks are applied in sequence, as [Edits.apply_all] does:
             an edit list picked against [p] must stay valid along it. *)
          ignore
            (List.fold_left
               (fun q e ->
                 let edited = Edits.apply q e in
                 if entity_counts (reparse edited) <> entity_counts edited then
                   QCheck2.Test.fail_reportf "seed %d: %s: the reparsed text has other entities"
                     seed (Edits.describe q e);
                 edited)
               p
               (Edits.pick ~kinds:[ kind ] ~seed ~n:3 p)))
        Edits.all_kinds;
      true)

let () =
  Alcotest.run "incremental"
    [
      ( "warm",
        [
          test_warm_chain;
          Alcotest.test_case "large cyclic region made reachable" `Quick test_large_edit;
          Alcotest.test_case "2typeH config of the base program" `Quick test_config_of_base;
        ] );
      ( "resume",
        [
          test_resume_chain;
          Alcotest.test_case "chains that merge, then use" `Quick test_resume_chain_pinned;
          Alcotest.test_case "new return var, old call edges" `Quick test_resume_new_return;
          Alcotest.test_case "stale handles install" `Quick test_stale_handles;
        ] );
      ( "dirty",
        [ Alcotest.test_case "minimal dirty set" `Quick test_dirty_minimality ] );
      (* The longest suite name sets the column width, and with it where
         Alcotest truncates long test names: keep it at 13 characters so
         the printed names stay stable. *)
      ( "warm-fallback",
        [
          Alcotest.test_case "budget, truncated baseline, rewrite" `Quick test_fallbacks;
          Alcotest.test_case "baseline of another flavor" `Quick test_stale_baseline;
          test_other_config;
        ] );
      ( "install",
        [
          Alcotest.test_case "unchanged program" `Quick test_install_unchanged;
          Alcotest.test_case "new return var, clean caller" `Quick test_install_new_return;
        ] );
      ( "borrow",
        [
          test_borrowed_untouched;
          test_shared_base;
          Alcotest.test_case "set layout: warm == cold" `Quick test_layout_canonical;
        ] );
      ( "extends",
        [
          test_adversarial;
          Alcotest.test_case "override and old-var return taken" `Quick
            test_adversarial_pinned;
          test_delta_reference_adversarial;
          test_delta_reference_edits;
          Alcotest.test_case "redirected old dispatch refused" `Quick test_delta_redirect;
        ] );
      ( "condense",
        [
          test_dirty_components;
          Alcotest.test_case "call targets = walk, Dacapo" `Quick test_call_targets_dacapo;
          test_call_targets_random;
        ] );
      ( "align",
        [
          Alcotest.test_case "reparsed edit realigns" `Quick test_align_reparsed;
          Alcotest.test_case "deletion gives None" `Quick test_align_deletion;
        ] );
      ( "edits",
        [
          Alcotest.test_case "seeded picking pinned" `Quick test_pick_deterministic;
          test_edit_reparse;
        ] );
    ]

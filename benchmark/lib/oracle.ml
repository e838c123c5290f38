(* Correctness references, all consulted outside the measured time:
   - the Datalog encoding of the paper's rules (Datalog_backend) against
     the native solver on small copies of the workload's programs;
   - solution fingerprints of the full-size passes, pinned for seed 0 in
     benchmark/expected/seed-0.json. *)

module Solution = Ipa_core.Solution
module Flavors = Ipa_core.Flavors
module P = Ipa_ir.Program
module Json = Ipa_support.Json

let oracle_scale = 0.02

let second_flavors =
  [ Flavors.Object_sens { depth = 2; heap = 1 }; Flavors.Call_site { depth = 2; heap = 1 } ]

let heuristics = [ Ipa_core.Heuristics.default_a; Ipa_core.Heuristics.default_b ]

let agrees p native dl = Ipa_testlib.canon_native native = Ipa_testlib.canon_datalog p dl

(* Insens plus every (flavor, heuristic) second pass on a small copy of
   each program, native against Datalog. Returns the passes compared. *)
let check_introspective names =
  List.fold_left
    (fun n name ->
      let p = Inputs.parse (Inputs.jir ~scale:oracle_scale name) in
      let insens = Flavors.strategy p Flavors.Insensitive in
      let base = Ipa_core.Solver.run p (Ipa_core.Solver.plain p insens) in
      Common.check
        (agrees p base (Ipa_core.Datalog_backend.run_plain p insens))
        "oracle: %s insens differs from the Datalog encoding" name;
      let metrics = Ipa_core.Introspection.compute base in
      List.fold_left
        (fun n flavor ->
          List.fold_left
            (fun n h ->
              let refine = Ipa_core.Heuristics.select base metrics h in
              let native =
                Ipa_core.Solver.run p (Ipa_core.Analysis.second_pass_config p flavor refine)
              in
              let dl =
                Ipa_core.Datalog_backend.run p ~default:insens
                  ~refined:(Flavors.strategy p flavor) ~refine ()
              in
              Common.check (agrees p native dl) "oracle: %s %s-%s differs from the Datalog encoding"
                name (Flavors.to_string flavor) (Ipa_core.Heuristics.name h);
              n + 1)
            n heuristics)
        (n + 1) second_flavors)
    0 names

(* Plain solves of [programs] under [flavors], native against Datalog. *)
let check_plain programs flavors =
  List.iter
    (fun (label, p) ->
      List.iter
        (fun flavor ->
          let strategy = Flavors.strategy p flavor in
          let native = Ipa_core.Solver.run p (Ipa_core.Solver.plain p strategy) in
          Common.check
            (agrees p native (Ipa_core.Datalog_backend.run_plain p strategy))
            "oracle: %s %s differs from the Datalog encoding" label (Flavors.to_string flavor))
        flavors)
    programs

(* ---------- fingerprints ---------- *)

(* A solution's identity that survives snapshot-format and solver-order
   changes: the derivation count, the relation sizes and an MD5 over the
   name-rendered context-insensitive projections. A budget-truncated
   solve keeps only its outcome and count — which facts a truncated
   fixpoint holds depends on the solver's visit order. *)
let fingerprint (s : Solution.t) =
  let base = [ ("derivations", Json.Int s.derivations) ] in
  match s.outcome with
  | Solution.Budget_exceeded -> Json.Obj (("outcome", Json.Str "budget-exceeded") :: base)
  | Solution.Complete ->
    let p = s.program in
    let buf = Buffer.create 65536 in
    let set names xs =
      List.iter
        (fun x ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf (names x))
        (Ipa_support.Int_set.to_sorted_list xs);
      Buffer.add_char buf '\n'
    in
    Array.iteri
      (fun v xs ->
        Buffer.add_string buf (P.var_full_name p v);
        set (P.heap_full_name p) xs)
      (Solution.collapsed_var_pts s);
    let fpt = Solution.collapsed_fld_pts s in
    List.iter
      (fun key ->
        Buffer.add_string buf (string_of_int key);
        set (P.heap_full_name p) (Hashtbl.find fpt key))
      (List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) fpt []));
    let targets = Solution.call_targets s in
    List.iter
      (fun invo ->
        Buffer.add_string buf (P.invo_info p invo).invo_name;
        set (P.meth_full_name p) (Hashtbl.find targets invo))
      (List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) targets []));
    let st = Solution.stats s in
    Json.Obj
      (("outcome", Json.Str "complete")
      :: base
      @ [
          ("vpt_tuples", Int st.vpt_tuples);
          ("fpt_tuples", Int st.fpt_tuples);
          ("cg_edges", Int st.cg_edges);
          ("reach_pairs", Int st.reach_pairs);
          ("contexts", Int st.n_contexts);
          ("objects", Int st.n_objects);
          ("md5", Str (Digest.to_hex (Digest.string (Buffer.contents buf))));
        ])

let expected_path = Filename.concat "benchmark" (Filename.concat "expected" "seed-0.json")

let read_json path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> Json.of_string text

(* Compare a workload's fingerprints with the pinned ones (seed 0 only). *)
let check_expected ~workload fps =
  match read_json expected_path with
  | Error msg -> Common.fail "expected fingerprints unreadable (%s): %s" expected_path msg
  | Ok json -> (
    match Json.member workload json with
    | None -> Common.fail "%s: no pinned fingerprints for %s" expected_path workload
    | Some pinned ->
      List.iter
        (fun (pass, fp) ->
          match Json.member pass pinned with
          | None -> Common.fail "%s: no pinned fingerprint for %s/%s" expected_path workload pass
          | Some want ->
            Common.check (want = fp) "%s %s: fingerprint %s, pinned %s" workload pass
              (Json.to_string fp) (Json.to_string want))
        fps)

(* Record a workload's fingerprints into [path], keeping other workloads'. *)
let record_expected ~path ~workload fps =
  let others =
    match read_json path with
    | Ok (Json.Obj kvs) -> List.filter (fun (k, _) -> k <> workload) kvs
    | _ -> []
  in
  let merged =
    List.filter_map
      (fun w ->
        if w = workload then Some (w, Json.Obj fps)
        else Option.map (fun v -> (w, v)) (List.assoc_opt w others))
      Catalog.workloads
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string ~pretty:true (Json.Obj merged));
      output_char oc '\n')

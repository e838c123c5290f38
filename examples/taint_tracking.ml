(* Taint-tracking client: context-sensitivity as a security precision win.

   The program is the synthetic [taint_pipes] motif: clients share one
   handler-box allocation site, each registers its own handler and delivers
   a payload to the handler it reads back; exactly one payload is a secret.
   A context-insensitive analysis conflates the handlers, so the secret
   appears to reach every client's sink; 2objH separates the boxes per
   client and only the genuinely hot sink stays tainted — the introspective
   variant keeps that precision at bounded cost.

   Run with: dune exec examples/taint_tracking.exe *)

module Taint = Ipa_clients.Taint
module Solution = Ipa_core.Solution

let report (r : Ipa_core.Analysis.result) =
  (* Every example run doubles as a soundness check of the solution. *)
  Solution.self_check_exn r.solution;
  let res = Taint.analyze r.solution in
  Printf.printf "--- %s (%.3fs) ---\n" r.label r.seconds;
  Printf.printf "tainted sinks: %d (from %d taint seeds)\n" (List.length res.findings)
    res.n_seeds;
  (match (res.findings, res.vfg) with
  | { path = _ :: _ as path; _ } :: _, Some vfg ->
    Printf.printf "witness: %s\n"
      (String.concat " -> " (List.map (Ipa_core.Value_flow.node_to_string vfg) path))
  | _ -> ());
  print_newline ();
  List.length res.findings

let () =
  let w = Ipa_synthetic.World.create () in
  Ipa_synthetic.Motifs.taint_pipes ~sanitized:2 w ~n:6;
  let p = Ipa_synthetic.World.finish w in
  let insens = report (Ipa_core.Analysis.run_plain p Ipa_core.Flavors.Insensitive) in
  let obj2 =
    report (Ipa_core.Analysis.run_plain p (Ipa_core.Flavors.Object_sens { depth = 2; heap = 1 }))
  in
  let intro =
    Ipa_core.Analysis.run_introspective p
      (Ipa_core.Flavors.Object_sens { depth = 2; heap = 1 })
      Ipa_core.Heuristics.default_a
  in
  let intro_n = report intro.second in
  Printf.printf "insens reports %d, 2objH %d, introspective-A %d:\n" insens obj2 intro_n;
  Printf.printf "context-sensitivity eliminates the %d spurious taint reports.\n" (insens - obj2)

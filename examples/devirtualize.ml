(* Devirtualization client: find virtual call sites with exactly one
   possible target, which a compiler could inline or call directly.

   Runs on a generated benchmark (the chart-like subject at reduced scale)
   and compares how many call sites each analysis devirtualizes — including
   the introspective variants, which get (nearly) the full benefit at a
   bounded cost.

   Run with: dune exec examples/devirtualize.exe *)

module Program = Ipa_ir.Program
module Flavors = Ipa_core.Flavors
module Precision = Ipa_core.Precision

type verdict = { mono : int; poly : int; dead : int }

(* Classify every virtual call site of the program under an analysis
   result: monomorphic (one target — devirtualizable), polymorphic, or
   unreachable. *)
let classify (r : Ipa_core.Analysis.result) =
  let vcalls = Precision.vcalls r.solution in
  let count pred = List.length (List.filter pred vcalls) in
  let targets n (v : Precision.vcall) = List.compare_length_with v.targets n = 0 in
  { mono = count (targets 1); poly = count Precision.polymorphic; dead = count (targets 0) }

let report (r : Ipa_core.Analysis.result) =
  if r.timed_out then Printf.printf "%-14s exceeded its budget\n" r.label
  else begin
    let { mono; poly; dead } = classify r in
    Printf.printf "%-14s %6.2fs   devirtualizable %4d   polymorphic %4d   unreachable %4d\n"
      r.label r.seconds mono poly dead
  end

let () =
  let spec = Option.get (Ipa_synthetic.Dacapo.find "chart") in
  let p = Ipa_synthetic.Dacapo.build ~scale:1.0 spec in
  Printf.printf "benchmark: chart (scale 1.0): %d classes, %d methods, %d virtual call sites\n\n"
    (Program.n_classes p) (Program.n_meths p)
    (let n = ref 0 in
     for i = 0 to Program.n_invos p - 1 do
       match (Program.invo_info p i).call with Virtual _ -> incr n | Static _ -> ()
     done;
     !n);
  let budget = 10_000_000 in
  report (Ipa_core.Analysis.run_plain ~budget p Flavors.Insensitive);
  let flavor = Flavors.Object_sens { depth = 2; heap = 1 } in
  let intro_a = Ipa_core.Analysis.run_introspective ~budget p flavor Ipa_core.Heuristics.default_a in
  report intro_a.second;
  let intro_b = Ipa_core.Analysis.run_introspective ~budget p flavor Ipa_core.Heuristics.default_b in
  report intro_b.second;
  report (Ipa_core.Analysis.run_plain ~budget p flavor)

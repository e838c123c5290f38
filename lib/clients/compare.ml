module Program = Ipa_ir.Program
module Int_set = Ipa_support.Int_set
module Solution = Ipa_core.Solution
module Precision = Ipa_core.Precision

type delta = {
  casts_proven_safe : (Program.meth_id * Program.class_id) list;
  casts_lost : (Program.meth_id * Program.class_id) list;
  devirtualized : Program.invo_id list;
  newly_unreachable : Program.meth_id list;
  uncaught_delta : int;
}

let diff (coarse : Solution.t) (fine : Solution.t) =
  if not (coarse.program == fine.program) then
    invalid_arg "Compare.diff: solutions analyze different programs";
  let unsafe s =
    List.filter_map
      (fun (c : Precision.cast) ->
        if Precision.may_fail c then Some (c.meth, c.source, c.target_type) else None)
      (Precision.casts s)
  in
  let coarse_unsafe = unsafe coarse and fine_unsafe = unsafe fine in
  let strip = List.map (fun (m, _, ty) -> (m, ty)) in
  let casts_proven_safe =
    strip (List.filter (fun k -> not (List.mem k fine_unsafe)) coarse_unsafe)
  in
  let casts_lost =
    strip (List.filter (fun k -> not (List.mem k coarse_unsafe)) fine_unsafe)
  in
  let poly s =
    List.filter_map
      (fun (v : Precision.vcall) -> if Precision.polymorphic v then Some v.site else None)
      (Precision.vcalls s)
  in
  let fine_poly = poly fine in
  let devirtualized = List.filter (fun site -> not (List.mem site fine_poly)) (poly coarse) in
  let newly_unreachable =
    Int_set.fold
      (fun m acc ->
        if Int_set.mem (Solution.reachable_meths fine) m then acc else m :: acc)
      (Solution.reachable_meths coarse)
      []
  in
  let uncaught s =
    List.fold_left
      (fun acc (u : Precision.uncaught) -> acc + List.length u.objects)
      0 (Precision.uncaught s)
  in
  {
    casts_proven_safe;
    casts_lost;
    devirtualized;
    newly_unreachable = List.sort compare newly_unreachable;
    uncaught_delta = uncaught coarse - uncaught fine;
  }

let print coarse fine =
  let p = coarse.Solution.program in
  let d = diff coarse fine in
  Printf.printf "casts proven safe: %d\n" (List.length d.casts_proven_safe);
  List.iter
    (fun (m, ty) ->
      Printf.printf "  %s: (%s)\n" (Program.meth_full_name p m) (Program.class_name p ty))
    d.casts_proven_safe;
  if d.casts_lost <> [] then begin
    Printf.printf "casts LOST (second analysis is not a refinement!): %d\n"
      (List.length d.casts_lost)
  end;
  Printf.printf "call sites devirtualized: %d\n" (List.length d.devirtualized);
  List.iter
    (fun site -> Printf.printf "  %s\n" (Program.invo_info p site).invo_name)
    d.devirtualized;
  Printf.printf "methods shown unreachable: %d\n" (List.length d.newly_unreachable);
  List.iter
    (fun m -> Printf.printf "  %s\n" (Program.meth_full_name p m))
    d.newly_unreachable;
  Printf.printf "uncaught-exception reduction: %d\n" d.uncaught_delta

module Program = Ipa_ir.Program
module Int_set = Ipa_support.Int_set
module Solution = Ipa_core.Solution
module Precision = Ipa_core.Precision

type handler = {
  meth : Program.meth_id;
  clause : int;
  catch_type : Program.class_id;
  objects : Program.heap_id list;
}

let handlers (s : Solution.t) =
  let p = s.program in
  let vpt = Solution.collapsed_var_pts s in
  let reachable = Solution.reachable_meths s in
  let out = ref [] in
  for m = Program.n_meths p - 1 downto 0 do
    if Int_set.mem reachable m then
      Array.iteri
        (fun i (clause : Program.catch_clause) ->
          out :=
            {
              meth = m;
              clause = i;
              catch_type = clause.catch_type;
              objects = Int_set.to_sorted_list vpt.(clause.catch_var);
            }
            :: !out)
        (Program.meth_info p m).catches
  done;
  !out

let print (s : Solution.t) =
  let p = s.program in
  let heaps hs = String.concat ", " (List.map (Program.heap_full_name p) hs) in
  (match Precision.uncaught s with
  | [] -> print_endline "no exceptions escape the entry points"
  | us ->
    List.iter
      (fun ({ entry; objects } : Precision.uncaught) ->
        Printf.printf "UNCAUGHT at %s: {%s}\n" (Program.meth_full_name p entry) (heaps objects))
      us);
  List.iter
    (fun { meth; clause; catch_type; objects } ->
      Printf.printf "%s catch[%d] (%s): %s\n" (Program.meth_full_name p meth) clause
        (Program.class_name p catch_type)
        (match objects with [] -> "(never reached)" | hs -> "{" ^ heaps hs ^ "}"))
    (handlers s)

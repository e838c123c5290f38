(* Solution-backed lint rules: findings grounded in a points-to solution.
   Rule ids IPA-P001 … IPA-P006. P001, P002 and P004 report the verdicts
   of Ipa_core.Precision (the casts and virtual calls behind the paper's
   metrics) site by site; P005 reuses the taint client.

   Monotonicity: rules P001 (may-fail cast), P004 (megamorphic call) and
   P005 (taint flow) report over-approximation artifacts, so their finding
   sets shrink (or stay equal) as context-sensitivity increases — the
   property the QCheck suite asserts. P002/P003/P006 report *emptiness*
   or *totality* facts that a more precise analysis can newly establish,
   so they are explicitly non-monotone. *)

module Program = Ipa_ir.Program
module Srcloc = Ipa_ir.Srcloc
module Diagnostic = Ipa_ir.Diagnostic
module Int_set = Ipa_support.Int_set
module Solution = Ipa_core.Solution
module Value_flow = Ipa_core.Value_flow
module Precision = Ipa_core.Precision
module Taint = Ipa_clients.Taint

let span_of p get =
  match Program.srcloc p with
  | None -> Diagnostic.no_span
  | Some sl -> Diagnostic.span_of_pos ~file:sl.Srcloc.file (get sl)

let instr_span p m k = span_of p (fun sl -> Srcloc.instr_pos sl m k)
let invo_span p i = span_of p (fun sl -> Srcloc.invo_pos sl i)
let meth_span p m = span_of p (fun sl -> Srcloc.meth_pos sl m)

let cast_entity p (c : Precision.cast) = Printf.sprintf "%s#%d" (Program.meth_full_name p c.meth) c.index

(* IPA-P001: casts the analysis cannot prove safe — at least one witness
   object fails the cast. The paper's "casts that may fail" metric as
   individual findings. Monotone. *)
let may_fail_cast (s : Solution.t) =
  let p = s.program in
  List.filter_map
    (fun (c : Precision.cast) ->
      if Precision.may_fail c then
        Some
          (Diagnostic.make ~rule:"IPA-P001" ~severity:Warning ~span:(instr_span p c.meth c.index)
             ~entity:(cast_entity p c)
             ~witnesses:(List.map (Program.heap_full_name p) c.witnesses)
             (Printf.sprintf "%s: cast of %s to %s may fail on %d of %d objects"
                (Program.meth_full_name p c.meth)
                (Program.var_info p c.source).var_name
                (Program.class_name p c.target_type)
                (List.length c.witnesses) c.total))
      else None)
    (Precision.casts s)

(* IPA-P002: casts guaranteed to fail — the points-to set is non-empty and
   every object in it fails. Non-monotone: a finer analysis can shrink a
   mixed set down to only failing objects. *)
let failing_cast (s : Solution.t) =
  let p = s.program in
  List.filter_map
    (fun (c : Precision.cast) ->
      if c.total > 0 && List.length c.witnesses = c.total then
        Some
          (Diagnostic.make ~rule:"IPA-P002" ~severity:Error ~span:(instr_span p c.meth c.index)
             ~entity:(cast_entity p c)
             ~witnesses:(List.map (Program.heap_full_name p) c.witnesses)
             (Printf.sprintf "%s: cast of %s to %s fails on every one of its %d objects"
                (Program.meth_full_name p c.meth)
                (Program.var_info p c.source).var_name
                (Program.class_name p c.target_type)
                c.total))
      else None)
    (Precision.casts s)

(* IPA-P003: dereferences (field load/store, virtual-call receiver) whose
   base has an empty points-to set in a reachable method: under the
   analysis the statement only executes with a null-like base. Non-monotone
   (precision can empty a set). *)
let empty_deref (s : Solution.t) =
  let p = s.program in
  let vpt = Solution.collapsed_var_pts s in
  let reachable = Solution.reachable_meths s in
  let out = ref [] in
  for m = Program.n_meths p - 1 downto 0 do
    if Int_set.mem reachable m then
      Array.iteri
        (fun k (i : Program.instr) ->
          let flag base what =
            if Int_set.cardinal vpt.(base) = 0 then begin
              let entity = Printf.sprintf "%s#%d" (Program.meth_full_name p m) k in
              out :=
                Diagnostic.make ~rule:"IPA-P003" ~severity:Warning ~span:(instr_span p m k)
                  ~entity
                  (Printf.sprintf "%s: %s %s has an empty points-to set"
                     (Program.meth_full_name p m) what
                     (Program.var_info p base).var_name)
                :: !out
            end
          in
          match i with
          | Load { base; _ } -> flag base "load base"
          | Store { base; _ } -> flag base "store base"
          | Call invo -> (
            match (Program.invo_info p invo).call with
            | Virtual { base; _ } -> flag base "call receiver"
            | Static _ -> ())
          | _ -> ())
        (Program.meth_info p m).body
  done;
  !out

(* IPA-P004: megamorphic virtual calls — at least [threshold] distinct
   targets. Dispatch overhead and a common symptom of precision loss.
   Monotone: target sets only shrink with precision. *)
let megamorphic_call ~threshold (s : Solution.t) =
  let p = s.program in
  List.filter_map
    (fun (v : Precision.vcall) ->
      if Precision.polymorphic v && List.compare_length_with v.targets threshold >= 0 then
        Some
          (Diagnostic.make ~rule:"IPA-P004" ~severity:Info ~span:(invo_span p v.site)
             ~entity:(Program.invo_info p v.site).invo_name
             ~witnesses:(List.map (Program.meth_full_name p) v.targets)
             (Printf.sprintf "%s: megamorphic call with %d targets"
                (Program.invo_info p v.site).invo_name (List.length v.targets)))
      else None)
    (Precision.vcalls s)

(* IPA-P005: taint-spec violations — a tainted value reaches a sink
   argument, witnessed by a value-flow path. Monotone (documented by the
   taint client: finer value-flow graphs are subgraphs). *)
let taint_flow ?spec (s : Solution.t) =
  let p = s.program in
  let r = Taint.analyze ?spec s in
  List.map
    (fun (f : Taint.finding) ->
      let ii = Program.invo_info p f.invo in
      let witnesses =
        match r.vfg with
        | Some vfg -> List.map (Value_flow.node_to_string vfg) f.path
        | None -> []
      in
      Diagnostic.make ~rule:"IPA-P005" ~severity:Error ~span:(invo_span p f.invo)
        ~entity:(Printf.sprintf "%s!%d" ii.invo_name f.arg)
        ~witnesses
        (Printf.sprintf "%s: argument %d of sink %s is tainted" ii.invo_name f.arg
           (Program.meth_full_name p f.sink)))
    r.findings

(* IPA-P006: concrete non-entry methods the *solution's* call graph never
   reaches — sharper than IPA-S001 (which over-approximates with
   name-and-arity dispatch) but analysis-dependent, hence non-monotone as
   a finding set keyed by entity. *)
let dead_method (s : Solution.t) =
  let p = s.program in
  let reachable = Solution.reachable_meths s in
  let entries = Program.entries p in
  let out = ref [] in
  for m = Program.n_meths p - 1 downto 0 do
    let mi = Program.meth_info p m in
    if (not (Int_set.mem reachable m)) && (not mi.is_abstract) && not (List.mem m entries) then
      out :=
        Diagnostic.make ~rule:"IPA-P006" ~severity:Info ~span:(meth_span p m)
          ~entity:(Program.meth_full_name p m)
          (Printf.sprintf "method %s is unreachable under this analysis"
             (Program.meth_full_name p m))
        :: !out
  done;
  !out

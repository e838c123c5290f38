(* Syntactic lint rules: facts derivable from the program text and class
   hierarchy alone, no points-to solution required. Rule ids IPA-S001 …
   IPA-S005; see the catalog in docs/jir-format.md. *)

module Program = Ipa_ir.Program
module Srcloc = Ipa_ir.Srcloc
module Diagnostic = Ipa_ir.Diagnostic
module Int_set = Ipa_support.Int_set

let span_of p get =
  match Program.srcloc p with
  | None -> Diagnostic.no_span
  | Some sl -> Diagnostic.span_of_pos ~file:sl.Srcloc.file (get sl)

let meth_span p m = span_of p (fun sl -> Srcloc.meth_pos sl m)
let field_span p f = span_of p (fun sl -> Srcloc.field_pos sl f)
let var_span p v = span_of p (fun sl -> Srcloc.var_pos sl v)
let instr_span p m k = span_of p (fun sl -> Srcloc.instr_pos sl m k)
let catch_span p m k = span_of p (fun sl -> Srcloc.catch_pos sl m k)

(* IPA-S001: methods the CHA call graph ([Program.cha_targets]) cannot reach
   from the entry points. It over-approximates any points-to call graph
   (every virtual call is assumed to reach every implementation of its
   signature), so a method flagged here is dead under every analysis
   flavor. *)
let unreachable_method p =
  let reached = Int_set.create () in
  let work = Queue.create () in
  let visit m = if Int_set.add reached m then Queue.add m work in
  List.iter visit (Program.entries p);
  while not (Queue.is_empty work) do
    let m = Queue.pop work in
    Array.iter
      (function Program.Call invo -> List.iter visit (Program.cha_targets p invo) | _ -> ())
      (Program.meth_info p m).body
  done;
  let out = ref [] in
  for m = Program.n_meths p - 1 downto 0 do
    let mi = Program.meth_info p m in
    if (not (Int_set.mem reached m)) && not mi.is_abstract then
      out :=
        Diagnostic.make ~rule:"IPA-S001" ~severity:Warning ~span:(meth_span p m)
          ~entity:(Program.meth_full_name p m)
          (Printf.sprintf "method %s is unreachable from the entry points"
             (Program.meth_full_name p m))
        :: !out
  done;
  !out

(* IPA-S002: declared local variables never referenced by any instruction or
   catch clause of their method. [this], formals, and the canonical return
   variable are exempt (they are part of the method's interface). *)
let unused_variable p =
  let used = Array.make (Program.n_vars p) false in
  let exempt = Array.make (Program.n_vars p) false in
  for m = 0 to Program.n_meths p - 1 do
    let mi = Program.meth_info p m in
    (match mi.this_var with Some v -> exempt.(v) <- true | None -> ());
    Array.iter (fun v -> exempt.(v) <- true) mi.formals;
    (match mi.ret_var with Some v -> exempt.(v) <- true | None -> ());
    Array.iter
      (fun (i : Program.instr) ->
        let u v = used.(v) <- true in
        match i with
        | Alloc { target; _ } -> u target
        | Move { target; source } -> u target; u source
        | Cast { target; source; _ } -> u target; u source
        | Load { target; base; _ } -> u target; u base
        | Store { base; source; _ } -> u base; u source
        | Load_static { target; _ } -> u target
        | Store_static { source; _ } -> u source
        | Call invo ->
          let ii = Program.invo_info p invo in
          Array.iter u ii.actuals;
          (match ii.recv with Some v -> u v | None -> ());
          (match ii.call with Virtual { base; _ } -> u base | Static _ -> ())
        | Return { source } -> u source
        | Throw { source } -> u source)
      mi.body;
    Array.iter (fun (c : Program.catch_clause) -> used.(c.catch_var) <- true) mi.catches
  done;
  let out = ref [] in
  for v = Program.n_vars p - 1 downto 0 do
    if (not used.(v)) && not exempt.(v) then
      out :=
        Diagnostic.make ~rule:"IPA-S002" ~severity:Info ~span:(var_span p v)
          ~entity:(Program.var_full_name p v)
          (Printf.sprintf "variable %s is never used" (Program.var_full_name p v))
        :: !out
  done;
  !out

(* IPA-S003: fields written but never read (or never referenced at all). A
   store to such a field cannot affect any observable value flow. *)
let write_only_field p =
  let loaded = Array.make (Program.n_fields p) false in
  let stored = Array.make (Program.n_fields p) false in
  for m = 0 to Program.n_meths p - 1 do
    Array.iter
      (fun (i : Program.instr) ->
        match i with
        | Load { field; _ } | Load_static { field; _ } -> loaded.(field) <- true
        | Store { field; _ } | Store_static { field; _ } -> stored.(field) <- true
        | _ -> ())
      (Program.meth_info p m).body
  done;
  let out = ref [] in
  for f = Program.n_fields p - 1 downto 0 do
    if not loaded.(f) then begin
      let what = if stored.(f) then "written but never read" else "never referenced" in
      out :=
        Diagnostic.make ~rule:"IPA-S003" ~severity:Info ~span:(field_span p f)
          ~entity:(Program.field_full_name p f)
          (Printf.sprintf "field %s is %s" (Program.field_full_name p f) what)
        :: !out
    end
  done;
  !out

(* IPA-S004: casts to a type with no instantiable class on either side of the
   hierarchy relation with any allocated class. Cheap hierarchy-only check:
   a cast to C can only succeed if some allocation site instantiates a
   subtype of C, so when none exists the cast fails on every non-null
   value regardless of analysis precision. *)
let impossible_cast p =
  let instantiable = Array.make (Program.n_classes p) false in
  for h = 0 to Program.n_heaps p - 1 do
    instantiable.((Program.heap_info p h).heap_class) <- true
  done;
  let feasible_target = Array.make (Program.n_classes p) false in
  for c = 0 to Program.n_classes p - 1 do
    if instantiable.(c) then
      for super = 0 to Program.n_classes p - 1 do
        if Program.subtype p ~sub:c ~super then feasible_target.(super) <- true
      done
  done;
  let out = ref [] in
  for m = Program.n_meths p - 1 downto 0 do
    let mi = Program.meth_info p m in
    Array.iteri
      (fun k (i : Program.instr) ->
        match i with
        | Cast { cast_to; _ } when not feasible_target.(cast_to) ->
          let entity = Printf.sprintf "%s#%d" (Program.meth_full_name p m) k in
          out :=
            Diagnostic.make ~rule:"IPA-S004" ~severity:Warning ~span:(instr_span p m k) ~entity
              (Printf.sprintf "%s: cast to %s can never succeed (no allocated subtype)"
                 (Program.meth_full_name p m) (Program.class_name p cast_to))
            :: !out
        | _ -> ())
      mi.body
  done;
  !out

(* IPA-S005: a catch clause shadowed by an earlier clause of a supertype —
   clause j can never match because every exception it admits is already
   routed to clause i < j. *)
let shadowed_catch p =
  let out = ref [] in
  for m = Program.n_meths p - 1 downto 0 do
    let clauses = (Program.meth_info p m).catches in
    Array.iteri
      (fun j (cj : Program.catch_clause) ->
        let shadow = ref None in
        for i = j - 1 downto 0 do
          if Program.subtype p ~sub:cj.catch_type ~super:clauses.(i).catch_type then
            shadow := Some i
        done;
        match !shadow with
        | Some i ->
          let entity = Printf.sprintf "%s@catch%d" (Program.meth_full_name p m) j in
          out :=
            Diagnostic.make ~rule:"IPA-S005" ~severity:Warning ~span:(catch_span p m j) ~entity
              (Printf.sprintf "%s: catch of %s is shadowed by earlier catch of %s"
                 (Program.meth_full_name p m)
                 (Program.class_name p cj.catch_type)
                 (Program.class_name p clauses.(i).catch_type))
            :: !out
        | None -> ())
      clauses
  done;
  !out

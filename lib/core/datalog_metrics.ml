module Program = Ipa_ir.Program
module Relation = Ipa_datalog.Relation
module Rule = Ipa_datalog.Rule
module Engine = Ipa_datalog.Engine
module Aggregate = Ipa_datalog.Aggregate

let v i = Rule.Var i

(* Project VarPointsTo down to distinct (var, heap) pairs — the collapsed
   relation every metric query starts from. *)
let collapsed_vpt (d : Datalog_backend.t) =
  let out = Relation.create ~name:"VarHeap" ~arity:2 in
  let rule =
    Rule.make ~n_vars:4
      ~heads:[ (out, [| v 0; v 2 |]) ]
      ~body:[ (d.var_points_to, [| v 0; v 1; v 2; v 3 |]) ]
      ()
  in
  ignore (Engine.fixpoint [ rule ]);
  out

let to_table rel =
  let tbl = Hashtbl.create 64 in
  Relation.iter (fun t -> Hashtbl.replace tbl t.(0) t.(1)) rel;
  tbl

let in_flow (p : Program.t) (d : Datalog_backend.t) =
  (* ActualArg is an input relation of the backend; rebuild it here (the
     backend does not expose its EDB). *)
  let actual_arg = Relation.create ~name:"ActualArg" ~arity:3 in
  for invo = 0 to Program.n_invos p - 1 do
    Array.iteri
      (fun i arg -> ignore (Relation.add actual_arg [| invo; i; arg |]))
      (Program.invo_info p invo).actuals
  done;
  let var_heap = collapsed_vpt d in
  (* HeapsPerInvocationPerArg(invo, arg, heap) — note the paper's
     CallGraph(invo, _, _, _) conjunct restricting to reachable calls. *)
  let hpia = Relation.create ~name:"HeapsPerInvocationPerArg" ~arity:3 in
  let rule =
    Rule.make ~n_vars:7
      ~heads:[ (hpia, [| v 0; v 1; v 2 |]) ]
      ~body:
        [
          (d.call_graph, [| v 0; v 3; v 4; v 5 |]);
          (actual_arg, [| v 0; v 6; v 1 |]);
          (var_heap, [| v 1; v 2 |]);
        ]
      ()
  in
  ignore (Engine.fixpoint [ rule ]);
  let result = Relation.create ~name:"InFlow" ~arity:2 in
  Aggregate.count hpia ~group_by:[ 0 ] ~into:result;
  to_table result

let var_owner (p : Program.t) =
  let rel = Relation.create ~name:"VarOwner" ~arity:2 in
  for var = 0 to Program.n_vars p - 1 do
    ignore (Relation.add rel [| var; (Program.var_info p var).var_owner |])
  done;
  rel

(* Project FldPointsTo down to distinct (base heap, field, heap) triples. *)
let base_field_heap (d : Datalog_backend.t) =
  let base_fld_heap = Relation.create ~name:"BaseFieldHeap" ~arity:3 in
  let rule =
    Rule.make ~n_vars:5
      ~heads:[ (base_fld_heap, [| v 0; v 2; v 3 |]) ]
      ~body:[ (d.fld_points_to, [| v 0; v 1; v 2; v 3; v 4 |]) ]
      ()
  in
  ignore (Engine.fixpoint [ rule ]);
  base_fld_heap

(* The heaps of every (base heap, field) slot, counted. *)
let field_sizes (d : Datalog_backend.t) =
  let sizes = Relation.create ~name:"FieldSize" ~arity:3 in
  Aggregate.count (base_field_heap d) ~group_by:[ 0; 1 ] ~into:sizes;
  sizes

(* ObjMaxField(heap, max): the largest field slot of [heap] holds [max]
   heaps. *)
let obj_max_field_rel (d : Datalog_backend.t) =
  let result = Relation.create ~name:"ObjMaxField" ~arity:2 in
  Aggregate.max_ (field_sizes d) ~group_by:[ 0 ] ~value:2 ~into:result;
  result

let meth_total_volume (p : Program.t) (d : Datalog_backend.t) =
  let var_owner = var_owner p in
  let var_heap = collapsed_vpt d in
  let meth_var_heap = Relation.create ~name:"MethVarHeap" ~arity:3 in
  let rule =
    Rule.make ~n_vars:3
      ~heads:[ (meth_var_heap, [| v 2; v 0; v 1 |]) ]
      ~body:[ (var_heap, [| v 0; v 1 |]); (var_owner, [| v 0; v 2 |]) ]
      ()
  in
  ignore (Engine.fixpoint [ rule ]);
  let result = Relation.create ~name:"Volume" ~arity:2 in
  Aggregate.count meth_var_heap ~group_by:[ 0 ] ~into:result;
  to_table result

let meth_max_var (p : Program.t) (d : Datalog_backend.t) =
  let var_size = Relation.create ~name:"VarSize" ~arity:2 in
  Aggregate.count (collapsed_vpt d) ~group_by:[ 0 ] ~into:var_size;
  let meth_var_size = Relation.create ~name:"MethVarSize" ~arity:3 in
  let rule =
    Rule.make ~n_vars:3
      ~heads:[ (meth_var_size, [| v 2; v 0; v 1 |]) ]
      ~body:[ (var_size, [| v 0; v 1 |]); (var_owner p, [| v 0; v 2 |]) ]
      ()
  in
  ignore (Engine.fixpoint [ rule ]);
  let result = Relation.create ~name:"MethMaxVar" ~arity:2 in
  Aggregate.max_ meth_var_size ~group_by:[ 0 ] ~value:2 ~into:result;
  to_table result

let pointed_by_vars (_p : Program.t) (d : Datalog_backend.t) =
  let var_heap = collapsed_vpt d in
  (* group by the heap column *)
  let heap_var = Relation.create ~name:"HeapVar" ~arity:2 in
  let rule =
    Rule.make ~n_vars:2
      ~heads:[ (heap_var, [| v 1; v 0 |]) ]
      ~body:[ (var_heap, [| v 0; v 1 |]) ]
      ()
  in
  ignore (Engine.fixpoint [ rule ]);
  let result = Relation.create ~name:"PointedByVars" ~arity:2 in
  Aggregate.count heap_var ~group_by:[ 0 ] ~into:result;
  to_table result

let obj_total_field (_p : Program.t) (d : Datalog_backend.t) =
  let result = Relation.create ~name:"ObjTotalField" ~arity:2 in
  Aggregate.sum (field_sizes d) ~group_by:[ 0 ] ~value:2 ~into:result;
  to_table result

let obj_max_field (_p : Program.t) (d : Datalog_backend.t) = to_table (obj_max_field_rel d)

(* PointedByObjs(heap, n): [n] distinct (base heap, field) slots hold
   [heap], contexts collapsed. *)
let pointed_by_objs (_p : Program.t) (d : Datalog_backend.t) =
  let heap_slot = Relation.create ~name:"HeapSlot" ~arity:3 in
  let rule =
    Rule.make ~n_vars:3
      ~heads:[ (heap_slot, [| v 2; v 0; v 1 |]) ]
      ~body:[ (base_field_heap d, [| v 0; v 1; v 2 |]) ]
      ()
  in
  ignore (Engine.fixpoint [ rule ]);
  let result = Relation.create ~name:"PointedByObjs" ~arity:2 in
  Aggregate.count heap_slot ~group_by:[ 0 ] ~into:result;
  to_table result

let meth_max_var_field (p : Program.t) (d : Datalog_backend.t) =
  let obj_max_field = obj_max_field_rel d in
  (* MethHeapMaxField(meth, heap, max): a variable of [meth] points to
     [heap], whose largest field slot holds [max] heaps. *)
  let meth_heap_max = Relation.create ~name:"MethHeapMaxField" ~arity:3 in
  let rule =
    Rule.make ~n_vars:4
      ~heads:[ (meth_heap_max, [| v 2; v 1; v 3 |]) ]
      ~body:
        [
          (collapsed_vpt d, [| v 0; v 1 |]);
          (var_owner p, [| v 0; v 2 |]);
          (obj_max_field, [| v 1; v 3 |]);
        ]
      ()
  in
  ignore (Engine.fixpoint [ rule ]);
  let result = Relation.create ~name:"MethMaxVarField" ~arity:2 in
  Aggregate.max_ meth_heap_max ~group_by:[ 0 ] ~value:2 ~into:result;
  to_table result

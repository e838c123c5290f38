module Program = Ipa_ir.Program
module Relation = Ipa_datalog.Relation
module Rule = Ipa_datalog.Rule
module Engine = Ipa_datalog.Engine

type t = {
  ctxs : Ctx.t;
  var_points_to : Relation.t;
  fld_points_to : Relation.t;
  static_fld_points_to : Relation.t;
  exc_points_to : Relation.t;
  call_graph : Relation.t;
  reachable : Relation.t;
  derivations : int;
}

(* Input (EDB) relations, in the paper's naming. *)
type edb = {
  alloc : Relation.t; (* var, heap, inMeth *)
  move : Relation.t; (* to, from — includes returns normalized to moves *)
  cast : Relation.t; (* to, type, from *)
  load : Relation.t; (* to, base, fld *)
  store : Relation.t; (* base, fld, from *)
  load_static : Relation.t; (* to, fld, inMeth *)
  store_static : Relation.t; (* fld, from *)
  vcall : Relation.t; (* base, sig, invo, inMeth *)
  static_call : Relation.t; (* invo, toMeth, inMeth *)
  formal_arg : Relation.t; (* meth, i, arg *)
  actual_arg : Relation.t; (* invo, i, arg *)
  formal_return : Relation.t; (* meth, ret *)
  actual_return : Relation.t; (* invo, var *)
  this_var : Relation.t; (* meth, this *)
  heap_type : Relation.t; (* heap, type *)
  lookup : Relation.t; (* type, sig, meth *)
  throw : Relation.t; (* var, inMeth *)
  catch_var : Relation.t; (* meth, clause index, var *)
  invo_owner : Relation.t; (* invo, meth *)
}

let build_edb (p : Program.t) : edb =
  let r name arity = Relation.create ~name ~arity in
  let edb =
    {
      alloc = r "Alloc" 3;
      move = r "Move" 2;
      cast = r "Cast" 3;
      load = r "Load" 3;
      store = r "Store" 3;
      load_static = r "LoadStatic" 3;
      store_static = r "StoreStatic" 2;
      vcall = r "VCall" 4;
      static_call = r "StaticCall" 3;
      formal_arg = r "FormalArg" 3;
      actual_arg = r "ActualArg" 3;
      formal_return = r "FormalReturn" 2;
      actual_return = r "ActualReturn" 2;
      this_var = r "ThisVar" 2;
      heap_type = r "HeapType" 2;
      lookup = r "Lookup" 3;
      throw = r "Throw" 2;
      catch_var = r "CatchVar" 3;
      invo_owner = r "InvoOwner" 2;
    }
  in
  let add rel tup = ignore (Relation.add rel tup) in
  for m = 0 to Program.n_meths p - 1 do
    let mi = Program.meth_info p m in
    (match mi.this_var with Some v -> add edb.this_var [| m; v |] | None -> ());
    Array.iteri (fun i v -> add edb.formal_arg [| m; i; v |]) mi.formals;
    (match mi.ret_var with Some v -> add edb.formal_return [| m; v |] | None -> ());
    Array.iter
      (fun (instr : Program.instr) ->
        match instr with
        | Alloc { target; heap } -> add edb.alloc [| target; heap; m |]
        | Move { target; source } -> add edb.move [| target; source |]
        | Cast { target; source; cast_to } -> add edb.cast [| target; cast_to; source |]
        | Load { target; base; field } -> add edb.load [| target; base; field |]
        | Store { base; field; source } -> add edb.store [| base; field; source |]
        | Load_static { target; field } -> add edb.load_static [| target; field; m |]
        | Store_static { field; source } -> add edb.store_static [| field; source |]
        | Throw { source } -> add edb.throw [| source; m |]
        | Call invo -> (
          let ii = Program.invo_info p invo in
          add edb.invo_owner [| invo; m |];
          Array.iteri (fun i v -> add edb.actual_arg [| invo; i; v |]) ii.actuals;
          (match ii.recv with Some v -> add edb.actual_return [| invo; v |] | None -> ());
          match ii.call with
          | Virtual { base; signature } -> add edb.vcall [| base; signature; invo; m |]
          | Static { callee } -> add edb.static_call [| invo; callee; m |])
        | Return { source } -> (
          match mi.ret_var with
          | Some ret -> add edb.move [| ret; source |]
          | None -> assert false))
      mi.body;
    Array.iteri
      (fun i (clause : Program.catch_clause) -> add edb.catch_var [| m; i; clause.catch_var |])
      mi.catches
  done;
  for h = 0 to Program.n_heaps p - 1 do
    add edb.heap_type [| h; (Program.heap_info p h).heap_class |]
  done;
  Program.iter_dispatch p (fun c s m -> add edb.lookup [| c; s; m |]);
  edb

let run p ~default ~refined ~refine ?(budget = 0) () =
  let ctxs = Ctx.create () in
  let edb = build_edb p in
  let var_points_to = Relation.create ~name:"VarPointsTo" ~arity:4 in
  let fld_points_to = Relation.create ~name:"FldPointsTo" ~arity:5 in
  let static_fld_points_to = Relation.create ~name:"StaticFldPointsTo" ~arity:3 in
  let exc_points_to = Relation.create ~name:"ExcPointsTo" ~arity:4 in
  let call_graph = Relation.create ~name:"CallGraph" ~arity:4 in
  let reachable = Relation.create ~name:"Reachable" ~arity:2 in
  let interproc = Relation.create ~name:"InterProcAssign" ~arity:4 in
  List.iter
    (fun m -> ignore (Relation.add reachable [| m; Ctx.empty |]))
    (Program.entries p);
  let v = Array.init 12 (fun i -> Rule.Var i) in
  let heap_class h = (Program.heap_info p h).heap_class in
  (* Rule 1-2: inter-procedural assignments from call-graph edges. *)
  let invo, caller_ctx, meth, callee_ctx, i, to_, from = (0, 1, 2, 3, 4, 5, 6) in
  let interproc_args =
    Rule.make ~n_vars:7
      ~heads:[ (interproc, [| v.(to_); v.(callee_ctx); v.(from); v.(caller_ctx) |]) ]
      ~body:
        [
          (call_graph, [| v.(invo); v.(caller_ctx); v.(meth); v.(callee_ctx) |]);
          (edb.formal_arg, [| v.(meth); v.(i); v.(to_) |]);
          (edb.actual_arg, [| v.(invo); v.(i); v.(from) |]);
        ]
      ()
  in
  let interproc_ret =
    Rule.make ~n_vars:7
      ~heads:[ (interproc, [| v.(to_); v.(caller_ctx); v.(from); v.(callee_ctx) |]) ]
      ~body:
        [
          (call_graph, [| v.(invo); v.(caller_ctx); v.(meth); v.(callee_ctx) |]);
          (edb.formal_return, [| v.(meth); v.(from) |]);
          (edb.actual_return, [| v.(invo); v.(to_) |]);
        ]
      ()
  in
  (* Rules 3-4: allocation, default and refined [Record]. *)
  let var, ctx, heap, hctx = (0, 1, 2, 3) in
  let meth4 = 4 in
  let alloc_rule strategy ~refined_site =
    Rule.make ~n_vars:5
      ~heads:[ (var_points_to, [| v.(var); v.(ctx); v.(heap); v.(hctx) |]) ]
      ~body:
        [
          (reachable, [| v.(meth4); v.(ctx) |]);
          (edb.alloc, [| v.(var); v.(heap); v.(meth4) |]);
        ]
      ~lets:[ (hctx, fun env -> (strategy : Strategy.t).record ctxs ~heap:env.(heap) ~ctx:env.(ctx)) ]
      ~guards:[ (fun env -> Refine.refine_object refine env.(heap) = refined_site) ]
      ()
  in
  let alloc_default = alloc_rule default ~refined_site:false in
  let alloc_refined = alloc_rule refined ~refined_site:true in
  (* Rule 5: move. *)
  let move_rule =
    Rule.make ~n_vars:5
      ~heads:[ (var_points_to, [| v.(0); v.(2); v.(3); v.(4) |]) ]
      ~body:[ (edb.move, [| v.(0); v.(1) |]); (var_points_to, [| v.(1); v.(2); v.(3); v.(4) |]) ]
      ()
  in
  (* Rule 6: cast with subtype filter. *)
  let cast_rule =
    Rule.make ~n_vars:6
      ~heads:[ (var_points_to, [| v.(0); v.(3); v.(4); v.(5) |]) ]
      ~body:
        [ (edb.cast, [| v.(0); v.(1); v.(2) |]); (var_points_to, [| v.(2); v.(3); v.(4); v.(5) |]) ]
      ~guards:[ (fun env -> Program.subtype p ~sub:(heap_class env.(4)) ~super:env.(1)) ]
      ()
  in
  (* Rule 7: inter-procedural assignment. *)
  let interproc_flow =
    Rule.make ~n_vars:6
      ~heads:[ (var_points_to, [| v.(0); v.(1); v.(4); v.(5) |]) ]
      ~body:
        [
          (interproc, [| v.(0); v.(1); v.(2); v.(3) |]);
          (var_points_to, [| v.(2); v.(3); v.(4); v.(5) |]);
        ]
      ()
  in
  (* Rule 8: load. *)
  let load_rule =
    Rule.make ~n_vars:8
      ~heads:[ (var_points_to, [| v.(0); v.(3); v.(6); v.(7) |]) ]
      ~body:
        [
          (edb.load, [| v.(0); v.(1); v.(2) |]);
          (var_points_to, [| v.(1); v.(3); v.(4); v.(5) |]);
          (fld_points_to, [| v.(4); v.(5); v.(2); v.(6); v.(7) |]);
        ]
      ()
  in
  (* Rule 9: store. *)
  let store_rule =
    Rule.make ~n_vars:8
      ~heads:[ (fld_points_to, [| v.(6); v.(7); v.(1); v.(4); v.(5) |]) ]
      ~body:
        [
          (edb.store, [| v.(0); v.(1); v.(2) |]);
          (var_points_to, [| v.(2); v.(3); v.(4); v.(5) |]);
          (var_points_to, [| v.(0); v.(3); v.(6); v.(7) |]);
        ]
      ()
  in
  (* Rules 10-11: static fields. *)
  let load_static_rule =
    Rule.make ~n_vars:6
      ~heads:[ (var_points_to, [| v.(0); v.(3); v.(4); v.(5) |]) ]
      ~body:
        [
          (edb.load_static, [| v.(0); v.(1); v.(2) |]);
          (reachable, [| v.(2); v.(3) |]);
          (static_fld_points_to, [| v.(1); v.(4); v.(5) |]);
        ]
      ()
  in
  let store_static_rule =
    Rule.make ~n_vars:5
      ~heads:[ (static_fld_points_to, [| v.(0); v.(3); v.(4) |]) ]
      ~body:
        [
          (edb.store_static, [| v.(0); v.(1) |]);
          (var_points_to, [| v.(1); v.(2); v.(3); v.(4) |]);
        ]
      ()
  in
  (* Rules 12-13: virtual dispatch, default and refined [Merge]. Variables:
     0 base, 1 sig, 2 invo, 3 inMeth, 4 ctx, 5 heap, 6 hctx, 7 heapT,
     8 toMeth, 9 this, 10 calleeCtx. *)
  let vcall_rule (strategy : Strategy.t) ~refined_site =
    Rule.make ~n_vars:11
      ~heads:
        [
          (call_graph, [| v.(2); v.(4); v.(8); v.(10) |]);
          (reachable, [| v.(8); v.(10) |]);
          (var_points_to, [| v.(9); v.(10); v.(5); v.(6) |]);
        ]
      ~body:
        [
          (edb.vcall, [| v.(0); v.(1); v.(2); v.(3) |]);
          (reachable, [| v.(3); v.(4) |]);
          (var_points_to, [| v.(0); v.(4); v.(5); v.(6) |]);
          (edb.heap_type, [| v.(5); v.(7) |]);
          (edb.lookup, [| v.(7); v.(1); v.(8) |]);
          (edb.this_var, [| v.(8); v.(9) |]);
        ]
      ~lets:
        [
          ( 10,
            fun env ->
              strategy.merge p ctxs ~heap:env.(5) ~hctx:env.(6) ~invo:env.(2) ~caller:env.(4) );
        ]
      ~guards:
        [ (fun env -> Refine.refine_site refine ~invo:env.(2) ~meth:env.(8) = refined_site) ]
      ()
  in
  let vcall_default = vcall_rule default ~refined_site:false in
  let vcall_refined = vcall_rule refined ~refined_site:true in
  (* Rules 14-15: static calls. Variables: 0 invo, 1 toMeth, 2 inMeth,
     3 ctx, 4 calleeCtx. *)
  let scall_rule (strategy : Strategy.t) ~refined_site =
    Rule.make ~n_vars:5
      ~heads:
        [ (call_graph, [| v.(0); v.(3); v.(1); v.(4) |]); (reachable, [| v.(1); v.(4) |]) ]
      ~body:[ (edb.static_call, [| v.(0); v.(1); v.(2) |]); (reachable, [| v.(2); v.(3) |]) ]
      ~lets:[ (4, fun env -> strategy.merge_static ctxs ~invo:env.(0) ~caller:env.(3)) ]
      ~guards:
        [ (fun env -> Refine.refine_site refine ~invo:env.(0) ~meth:env.(1) = refined_site) ]
      ()
  in
  let scall_default = scall_rule default ~refined_site:false in
  let scall_refined = scall_rule refined ~refined_site:true in
  (* Exception rules. Routing through a method's ordered catch chain is an
     external decision, exactly like the context constructors: the guard
     compares [Program.catch_route] with the clause index bound from the
     CatchVar relation. Variables (throw rules): 0 x, 1 m, 2 ctx, 3 heap,
     4 hctx, 5 clause index, 6 catch var. *)
  let route_is m_var heap_var i_var env =
    Program.catch_route p env.(m_var) (heap_class env.(heap_var)) = Some env.(i_var)
  in
  let escapes m_var heap_var env =
    Program.catch_route p env.(m_var) (heap_class env.(heap_var)) = None
  in
  let throw_catch =
    Rule.make ~n_vars:7
      ~heads:[ (var_points_to, [| v.(6); v.(2); v.(3); v.(4) |]) ]
      ~body:
        [
          (edb.throw, [| v.(0); v.(1) |]);
          (var_points_to, [| v.(0); v.(2); v.(3); v.(4) |]);
          (edb.catch_var, [| v.(1); v.(5); v.(6) |]);
        ]
      ~guards:[ route_is 1 3 5 ]
      ()
  in
  let throw_escape =
    Rule.make ~n_vars:5
      ~heads:[ (exc_points_to, [| v.(1); v.(2); v.(3); v.(4) |]) ]
      ~body:
        [ (edb.throw, [| v.(0); v.(1) |]); (var_points_to, [| v.(0); v.(2); v.(3); v.(4) |]) ]
      ~guards:[ escapes 1 3 ]
      ()
  in
  (* Variables (call rules): 0 invo, 1 callerCtx, 2 callee, 3 calleeCtx,
     4 heap, 5 hctx, 6 caller meth, 7 clause index, 8 catch var. *)
  let call_catch =
    Rule.make ~n_vars:9
      ~heads:[ (var_points_to, [| v.(8); v.(1); v.(4); v.(5) |]) ]
      ~body:
        [
          (call_graph, [| v.(0); v.(1); v.(2); v.(3) |]);
          (exc_points_to, [| v.(2); v.(3); v.(4); v.(5) |]);
          (edb.invo_owner, [| v.(0); v.(6) |]);
          (edb.catch_var, [| v.(6); v.(7); v.(8) |]);
        ]
      ~guards:[ route_is 6 4 7 ]
      ()
  in
  let call_escape =
    Rule.make ~n_vars:7
      ~heads:[ (exc_points_to, [| v.(6); v.(1); v.(4); v.(5) |]) ]
      ~body:
        [
          (call_graph, [| v.(0); v.(1); v.(2); v.(3) |]);
          (exc_points_to, [| v.(2); v.(3); v.(4); v.(5) |]);
          (edb.invo_owner, [| v.(0); v.(6) |]);
        ]
      ~guards:[ escapes 6 4 ]
      ()
  in
  let rules =
    [
      throw_catch;
      throw_escape;
      call_catch;
      call_escape;
      interproc_args;
      interproc_ret;
      alloc_default;
      alloc_refined;
      move_rule;
      cast_rule;
      interproc_flow;
      load_rule;
      store_rule;
      load_static_rule;
      store_static_rule;
      vcall_default;
      vcall_refined;
      scall_default;
      scall_refined;
    ]
  in
  let derivations = Engine.fixpoint ~budget rules in
  {
    ctxs;
    var_points_to;
    fld_points_to;
    static_fld_points_to;
    exc_points_to;
    call_graph;
    reachable;
    derivations;
  }

let run_plain p strategy =
  run p ~default:strategy ~refined:strategy ~refine:Refine.None_ ()

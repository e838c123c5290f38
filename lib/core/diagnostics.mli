(** Cost diagnostics over analysis results.

    When a context-sensitive analysis is slow, the blow-up is almost always
    concentrated: a handful of methods re-analyzed under huge numbers of
    contexts, or carrying huge points-to sets per context (the paper's §1
    cost anatomy: "c copies of n facts"). This module aggregates a solution
    into per-method and per-object hotspot reports — effectively the
    introspection metrics of §3 lifted to the {e context-sensitive} result,
    useful for understanding what a heuristic should have flagged. *)

type meth_row = {
  meth : Ipa_ir.Program.meth_id;
  contexts : int;  (** reachable contexts of the method *)
  vpt_tuples : int;  (** context-sensitive var-points-to tuples in its vars *)
  max_var_tuples : int;  (** largest single (var, ctx) points-to set *)
}

type obj_row = {
  heap : Ipa_ir.Program.heap_id;
  heap_contexts : int;  (** distinct heap contexts of this allocation site *)
  pointed_by_nodes : int;  (** (var, ctx) nodes whose set contains it *)
}

type t = {
  methods : meth_row list;  (** sorted by [vpt_tuples], descending *)
  objects : obj_row list;  (** sorted by [pointed_by_nodes], descending *)
}

val compute : Solution.t -> t

val top_methods : ?limit:int -> Solution.t -> meth_row list
val top_objects : ?limit:int -> Solution.t -> obj_row list

val print : ?limit:int -> Solution.t -> unit
(** Render both hotspot tables, then the solver counters, to stdout. *)

(** The paper's §3 metric queries, as actual Datalog.

    §3 ("Implementation") gives the in-flow metric as a Datalog query — an
    intermediate predicate plus a count aggregation:

    {v
    HeapsPerInvocationPerArg(invo, arg, heap) <-
      CallGraph(invo, _, _, _), ActualArg(invo, _, arg),
      VarPointsTo(arg, _, heap, _).
    InFlow(invo, result) <- agg<result = count()>
      (HeapsPerInvocationPerArg(invo, _, _)).
    v}

    This module executes that query (and the analogous ones for metrics 2
    to 6, both variants of 2 and 3) on the generic Datalog engine over a
    {!Datalog_backend} result.
    It exists for fidelity — tests assert it agrees with the native
    {!Introspection} computation. *)

val in_flow : Ipa_ir.Program.t -> Datalog_backend.t -> (int, int) Hashtbl.t
(** Per invocation site (absent = 0): the paper's metric #1. *)

val meth_total_volume : Ipa_ir.Program.t -> Datalog_backend.t -> (int, int) Hashtbl.t
(** Per method: metric #2 (total variant), counting distinct (var, heap)
    pairs over the method's variables. *)

val meth_max_var : Ipa_ir.Program.t -> Datalog_backend.t -> (int, int) Hashtbl.t
(** Per method: metric #2 (max variant), the largest points-to set
    (contexts collapsed) of any of the method's variables. *)

val pointed_by_vars : Ipa_ir.Program.t -> Datalog_backend.t -> (int, int) Hashtbl.t
(** Per heap object: metric #5. *)

val pointed_by_objs : Ipa_ir.Program.t -> Datalog_backend.t -> (int, int) Hashtbl.t
(** Per heap object: metric #6, counting distinct (base heap, field) slots
    that hold it, contexts collapsed. *)

val obj_total_field : Ipa_ir.Program.t -> Datalog_backend.t -> (int, int) Hashtbl.t
(** Per heap object: metric #3 (total variant), counting distinct
    (field, heap) pairs over the object's fields, contexts collapsed. *)

val obj_max_field : Ipa_ir.Program.t -> Datalog_backend.t -> (int, int) Hashtbl.t
(** Per heap object: metric #3 (max variant), the largest field points-to
    set (contexts collapsed) over the object's fields. *)

val meth_max_var_field : Ipa_ir.Program.t -> Datalog_backend.t -> (int, int) Hashtbl.t
(** Per method: metric #4, the largest field points-to set (contexts
    collapsed) of any object its variables point to. *)

(** Call-graph condensation and the monotone-extension check for
    incremental solving.

    The call graph is over-approximated by CHA ({!Program.cha_targets}: a
    static call targets its declared callee, a virtual call every concrete
    implementation of its signature) and condensed with Tarjan
    ({!Ipa_support.Tarjan}) into strongly connected components emitted
    bottom-up (callees before callers). {!delta} checks that an
    edited program extends its baseline and marks the methods the edit
    touched; the components holding a marked method are the dirty ones.
    A warm solve ({!Solver.warm}) reads only the mask; the condensation
    feeds its report ({!Compositional_solver.report}). *)

module Program := Ipa_ir.Program

(** {1 Condensation} *)

type scc = {
  scc_id : int;
  members : int array;  (** meth ids, ascending *)
  callees : int array;  (** callee scc ids, ascending, self excluded *)
}

type condensation = {
  sccs : scc array;
      (** bottom-up topological order: a component precedes its callers *)
  scc_of_meth : int array;
}

val call_targets : Program.t -> int array array
(** Per method, its CHA callees ({!Program.cha_targets} of every call in
    its body), ascending and distinct. *)

val condense : Program.t -> condensation

val dirty_closure : condensation -> int list -> bool array
(** [dirty_closure cond seeds] marks the seed components plus every
    transitive caller — the components whose facts may depend on a change
    inside a seed. *)

(** {1 Monotone extension} *)

val delta : old_p:Program.t -> new_p:Program.t -> bool array option
(** [Some changed] when [new_p] is a structural, id-stable superset of
    [old_p]: old entity arrays are identical prefixes (method bodies may
    gain appended instructions; a method without a return variable may gain
    one), dispatch is preserved on every old (class,
    signature) pair, and entries only grow. This is the soundness
    precondition for moving a fixpoint of [old_p] to [new_p] and resuming
    from it ({!Solver.warm}). [changed.(m)] marks the methods of [new_p] that are
    new, or whose body or return variable differs from [old_p]'s. [None]
    when [new_p] is not such an extension. *)

val align : old_p:Program.t -> new_p:Program.t -> Program.t option
(** Renumber [new_p] so entities sharing a name with [old_p] keep the old
    ids, with genuinely new entities packed after them (in their original
    relative order). Frontend-assigned ids are file-order artifacts — an
    instruction inserted mid-file shifts every later id — but names are
    program-unique and stable, so alignment recovers the id-stability that
    {!delta} (and therefore the warm start) requires. Returns [new_p]
    itself when the maps are already the identity; [None] when names are
    not unique or an [old_p] name has no counterpart (a deletion — not a
    monotone extension anyway). The aligned program drops source
    locations. *)

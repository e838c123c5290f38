(** Dirty call-graph components and the monotone-extension check for
    incremental solving.

    The call graph is over-approximated by CHA ({!Program.cha_targets}: a
    static call targets its declared callee, a virtual call every concrete
    implementation of its signature). {!delta} checks that an edited
    program extends its baseline and marks the methods the edit touched. A
    warm solve ({!Solver.warm}) reads only that mask. {!dirty_components}
    feeds its report ({!Compositional_solver.report}): one pass of the
    shared Tarjan ({!Ipa_support.Tarjan}) counts the strongly connected
    components and names the ones that reach a marked method. *)

module Program := Ipa_ir.Program

(** {1 Dirty components} *)

val call_targets : Program.t -> int array array
(** Per method, its CHA callees ({!Program.cha_targets} of every call in
    its body), ascending and distinct. *)

val dirty_components : Program.t -> bool array -> int * int list
(** [dirty_components p changed] is [(n, dirty)]: [n] strongly connected
    components of [p]'s CHA call graph, numbered [0 .. n-1] in the order
    Tarjan closes them (callees before callers), and [dirty], ascending,
    the components that reach a method [m] with [changed.(m)] — the ones
    whose facts may depend on the change. [changed] has one entry per
    method of [p]. *)

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

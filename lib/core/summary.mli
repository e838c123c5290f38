(** Per-SCC component digests for incremental solving.

    The call graph is over-approximated by CHA (a static call targets its
    declared callee, a virtual call every concrete implementation of its
    signature), condensed with Tarjan into strongly connected components
    emitted bottom-up (callees before callers). Each component gets a
    {e content digest} over the names (never the raw ids) of its entity
    slice — methods, bodies, referenced classes/fields/heaps/callees — so an
    edit dirties exactly the components whose slice changed. The dirty
    components and their transitive callers are what a seeded warm start
    ({!Solver.run_incremental}) re-processes. *)

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

val condense : Program.t -> condensation

val dirty_closure : condensation -> int list -> bool array
(** [dirty_closure cond seeds] marks the seed components plus every
    transitive caller — the components whose facts may depend on a change
    inside a seed. *)

(** {1 Content digests} *)

val digest : Program.t -> condensation -> int -> string
(** [digest p cond scc_id] is a hex digest of the component's entity slice,
    computed over entity names so it is stable across id renumberings. *)

(** {1 Monotone extension} *)

val extends : old_p:Program.t -> new_p:Program.t -> bool
(** Whether [new_p] is a structural, id-stable superset of [old_p]: old
    entity arrays are identical prefixes (method bodies may gain appended
    instructions; an absent return variable may appear), dispatch is
    preserved on every old (class, signature) pair, and entries only grow.
    This is the soundness precondition for seeding a solve of [new_p] with
    a fixpoint of [old_p]. *)

val align : old_p:Program.t -> new_p:Program.t -> Program.t option
(** Renumber [new_p] so entities sharing a name with [old_p] keep the old
    ids, with genuinely new entities packed after them (in their original
    relative order). Frontend-assigned ids are file-order artifacts — an
    instruction inserted mid-file shifts every later id — but names are
    program-unique and stable, so alignment recovers the id-stability that
    {!extends} (and therefore warm seeding) requires. Returns [new_p]
    itself when the maps are already the identity; [None] when names are
    not unique or an [old_p] name has no counterpart (a deletion — not a
    monotone extension anyway). The aligned program drops source
    locations. *)

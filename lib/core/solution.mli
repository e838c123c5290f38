(** Analysis results: the computed relations of the paper's model —
    [VarPointsTo], [FldPointsTo], [CallGraph], [Reachable] — plus bookkeeping.

    A value of this type is produced by {!Solver.run}. The record fields are
    the raw interned tables (treat them as read-only); the functions below
    provide decoded iteration and cached context-insensitive ("collapsed")
    projections, which is what precision/introspection metrics consume. *)

module Int_set = Ipa_support.Int_set
module Pair_tbl = Ipa_support.Pair_tbl
module Dynarr = Ipa_support.Dynarr

type outcome =
  | Complete
  | Budget_exceeded
      (** The derivation budget ran out — the deterministic analogue of the
          paper's 90-minute timeout. Tables hold the partial fixpoint. *)

(** Cheap solver instrumentation: how much propagation work the run did
    beyond the derivation count. Filled by {!Solver.run}; all zeros on
    solutions built elsewhere. *)
type counters = {
  edges_added : int;  (** distinct copy edges registered *)
  edges_deduped : int;  (** duplicate [add_edge] requests skipped *)
  batches : int;  (** worklist batches processed *)
  batch_objs : int;  (** objects consumed across all batches *)
  max_batch : int;  (** largest single pending batch *)
  set_promotions : int;
      (** {!Ipa_support.Int_set} small-to-hash promotions during the run *)
  cycles_collapsed : int;
      (** copy-edge cycles merged by online cycle elimination *)
  nodes_merged : int;  (** nodes absorbed into a representative *)
  repropagations_avoided : int;
      (** semantic insertions that needed no physical pending push — work the
          collapse saved relative to an uncollapsed solve *)
}

val zero_counters : counters

type handle = ..
(** The live solver state a warm solve leaves behind ({!Solver}); opaque
    above the solver. *)

type t = {
  program : Ipa_ir.Program.t;
  config : string option;
      (** The digest of the configuration that solved it
          ({!Solver.config_digest}), which a warm solve from it must match.
          [None] on a snapshot decoded without naming its configuration. *)
  ctxs : Ctx.t;
  objs : Pair_tbl.t;  (** (heap, hctx) pairs, id = "object" *)
  var_nodes : Pair_tbl.t;  (** (var, ctx) pairs *)
  fld_nodes : Pair_tbl.t;  (** (object, field) pairs *)
  pts : Int_set.t option Dynarr.t;
      (** node id -> objects; see {!Node}. Slots with equal sets mostly
          hold one set object (the solver and the snapshot decoder share
          them), so never mutate one. *)
  reach : Pair_tbl.t;  (** (meth, ctx) pairs, all reachable *)
  cg : int Dynarr.t;  (** call-graph edges, 4 ints each: invo, callerCtx, meth, calleeCtx *)
  outcome : outcome;
  derivations : int;  (** tuple insertions performed *)
  counters : counters;  (** propagation instrumentation; see {!counters} *)
  resume : handle option;
      (** Set on the result of a warm solve ({!Compositional_solver}): the
          solver state that computed it, which the next warm solve from
          this solution resumes instead of installing the solution into
          fresh state. A handle resumes at most once; a copy
          [{ s with ... }] shares it, and whichever solve claims it first
          resumes while any other installs. [None] on cold solves and
          decoded snapshots. *)
  mutable collapsed_vpt_cache : Int_set.t array option;
  mutable collapsed_fpt_cache : (int, Int_set.t) Hashtbl.t option;
  mutable reachable_meths_cache : Int_set.t option;
  mutable call_targets_cache : (int, Int_set.t) Hashtbl.t option;
  mutable inverted_vpt_cache : Int_set.t array option;
  mutable inverted_fpt_cache : Int_set.t array option;
  mutable callee_meths_cache : Int_set.t array option;
  mutable caller_sites_cache : Int_set.t array option;
}

(** Node-id encoding shared with the solver: a node is a variable under a
    context, a field of an object, a static field, or the exception node of
    a reachable method instance (keyed by its dense id in [reach]). *)
module Node : sig
  val of_var_node : int -> int
  val of_fld_node : int -> int
  val of_static_fld : Ipa_ir.Program.field_id -> int
  val of_exc : int -> int

  type kind = Var_node of int | Fld_node of int | Static_fld of int | Exc_node of int

  val kind : int -> kind
end

(** {1 Iteration over the full context-sensitive relations} *)

val iter_var_pts :
  t -> (var:int -> ctx:int -> heap:int -> hctx:int -> unit) -> unit

val iter_fld_pts :
  t -> (base_heap:int -> base_hctx:int -> field:int -> heap:int -> hctx:int -> unit) -> unit

val iter_static_fld_pts : t -> (field:int -> heap:int -> hctx:int -> unit) -> unit

val iter_reachable : t -> (meth:int -> ctx:int -> unit) -> unit

val iter_exc_pts : t -> (meth:int -> ctx:int -> heap:int -> hctx:int -> unit) -> unit
(** Exception objects escaping each reachable method instance (uncaught
    within it and its callees). *)

val iter_cg : t -> (invo:int -> caller:int -> meth:int -> callee:int -> unit) -> unit

(** {1 Collapsed (context-insensitive) projections — cached} *)

val collapsed_var_pts : t -> Int_set.t array
(** Per variable, the set of heap ids it may point to in any context. The
    array is cached; do not mutate it or its sets. *)

val collapsed_fld_pts : t -> (int, Int_set.t) Hashtbl.t
(** Keyed by [base_heap * n_fields + field]; values are heap-id sets. *)

val fld_pts_key : t -> heap:int -> field:int -> int

val reachable_meths : t -> Int_set.t

val call_targets : t -> (int, Int_set.t) Hashtbl.t
(** Per invocation site (virtual and static), the set of target methods in
    the call graph. Sites with no edge are absent. *)

(** {1 Reverse indexes — lazy, memoized}

    Demand clients (the query engine, {!Introspection}) ask the collapsed
    relations "backwards": who points at this object, who calls this
    method. Each index below is built on first use from the corresponding
    forward projection and cached on the solution; like the collapsed
    caches, treat the returned structures as read-only. *)

val inverted_var_pts : t -> Int_set.t array
(** Per heap id, the set of variables whose collapsed points-to set
    contains it — the inverse of {!collapsed_var_pts}. *)

val inverted_fld_pts : t -> Int_set.t array
(** Per heap id, the set of field slots (keyed as in {!fld_pts_key})
    whose collapsed field-points-to set contains it. *)

val callee_meths : t -> Int_set.t array
(** Per method, the set of methods it calls somewhere in the collapsed
    call graph (adjacency for forward reachability queries). *)

val caller_sites : t -> Int_set.t array
(** Per method, the set of invocation sites with a call-graph edge into
    it (the reverse call-graph adjacency; the calling method is the
    site's [invo_owner]). *)

val warm_indexes : t -> unit
(** Force every lazy projection and reverse index above. After warming, a
    solution can be read concurrently from several domains: all cached
    structures are built and no further internal mutation occurs (the
    query server calls this before fanning queries out). *)

(** {1 Size statistics} *)

type stats = {
  vpt_tuples : int;  (** context-sensitive var-points-to tuples *)
  fpt_tuples : int;  (** field-points-to tuples (incl. static) *)
  exc_tuples : int;  (** escaping-exception tuples *)
  cg_edges : int;
  reach_pairs : int;
  n_contexts : int;
  n_objects : int;
}

val stats : t -> stats

(** {1 Soundness validation} *)

val self_check : t -> string list
(** Statically validate the invariants clients rely on; each returned string
    describes one violation (empty list = sound). Checked: every populated
    pts node id decodes to a live var/field/exception node holding interned
    objects; points-to respects the declared-type filters of cast-only and
    catch-only variables; every call-graph edge's callee is a legal dispatch
    target for its invocation (witnessed by a pointed-to receiver on virtual
    calls); [Reachable] is closed under call-graph edges; and, on a
    {!Complete} run, every entry point is reachable under the empty context.
    All but the entry check hold by construction even on a
    {!Budget_exceeded} partial fixpoint. Intended for tests and the CLI —
    cost is roughly one pass over the solution's tables. *)

val self_check_exn : t -> unit
(** Raises [Failure] listing every violation; no-op when sound. *)

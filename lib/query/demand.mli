(** Demand evaluation for the query engine: answer a query by solving only
    its backward constraint slice ({!Ipa_core.Demand_solver}) instead of
    requiring a fully solved snapshot.

    A value of this type owns the demand state for one (program, solve
    configuration) pair: the slice memo table (slice key -> warmed engine),
    the optional {!Ipa_harness.Cache} where solved slices are published as
    ordinary snapshots under slice-derived keys, and the counters the server
    surfaces through [metrics]. The configured budget is forced to [0]
    (unlimited) — the point of demand solving is that a slice is small
    enough to solve exactly even when the full program blows the budget.

    {b Eligibility.} [pts], [pointed-by], [alias], [callees], [callers],
    [reach] and [fieldpts] are demand-eligible: their answers depend only on
    slice-exact tables (root points-to sets, or the call graph, which every
    slice reconstructs exactly). [taint] and [stats] read whole-program
    tables and are not; {!eval} returns [None] and the caller falls back to
    the base engine. Demand answers for eligible queries are byte-identical
    to a full unbudgeted solve's (property-tested across all four flavors).

    Thread safety: one value may be shared across domains. The memo is
    mutex-guarded; racing misses may both solve (wasted, not wrong — the
    solver is deterministic) and the first publication wins, mirroring the
    cache's single-writer discipline. With [~warm:true] each slice engine
    builds the index a query form reads before the first evaluation of
    that form, under the memo entry's own lock, so shared reads are
    race-free and an engine never builds indexes no query asked for. *)

type t

val create :
  ?cache:Ipa_harness.Cache.t ->
  ?warm:bool ->
  program:Ipa_ir.Program.t ->
  label:string ->
  Ipa_core.Solver.config ->
  t
(** [label] tags published slice snapshots (["demand:<label>"]). [warm]
    (default [false]) builds each engine index a form reads, under a lock,
    before that form is first evaluated ({!Engine.warm_for}) — required
    when the value is shared across pool domains. *)

val eligible : Query.t -> bool
(** Can this query form be answered from a slice? (Form-based; independent
    of name resolution — unresolvable names produce the same error replies
    as the base engine.) *)

type served = {
  result : (Engine.answer, string) result;
  slice_nodes : int;  (** size of the slice that served this answer *)
  hit : bool;  (** memo or cache hit — no fresh solve was needed *)
}

val eval : t -> Query.t -> served option
(** [None] when the form is not demand-eligible. Otherwise: derive the root
    set, look up the slice memo, then the cache, then slice + solve +
    publish; answer from the (warmed) slice engine. *)

type stats = {
  demand_queries : int;  (** eligible queries served through demand *)
  slice_hits : int;  (** served from the memo or a cached slice snapshot *)
  slice_nodes : int;  (** cumulative slice size over fresh slice solves *)
  slice_derivations : int;  (** cumulative derivations of fresh slice solves *)
}

val stats : t -> stats
(** Cumulative over the value's lifetime and all domains using it. *)

(** The native points-to solver: Figure 3 of the paper as a worklist fixpoint.

    The solver computes a flow-insensitive, field-sensitive, context-sensitive
    Andersen-style points-to analysis with on-the-fly call-graph construction,
    over a pointer-assignment graph whose nodes are [(variable, context)]
    pairs, [(object, field)] pairs, and static fields. Copy edges carry
    optional cast filters.

    Context-sensitivity is fully delegated to two {!Strategy.t} values plus a
    {!Refine.t} selector — the paper's [Record]/[RecordRefined] and
    [Merge]/[MergeRefined] constructors and the [ObjectToRefine]/
    [SiteToRefine] relations. Every allocation consults [refine_object]; every
    call-graph edge consults [refine_site] with the dispatch target.

    {b Worklist.} A first-in first-out queue of nodes with pending objects.
    A node is queued at most once at a time (an on-list flag); an entry
    whose node has since been merged away is resolved to its representative
    as it is drained. A complete solve's solution and [derivations] do not
    depend on the drain order; its propagation counters do, and so does
    what a budget-truncated solve holds.

    {b Online cycle elimination.} Nodes on a cycle of {e unfiltered} copy
    edges (filtered edges never merge — their endpoints are not
    pointer-equivalent) are collapsed onto a single representative via a
    union-find: one points-to set, one spliced edge list, one pending batch.
    Cycles have one detector: when an unfiltered edge [src -> dst] is
    inserted, a depth-first walk from [dst], bounded to 32 visited nodes,
    looks for [src] and merges the path it finds. A cycle the walk does not
    reach stays uncollapsed and converges by ordinary propagation. Collapse is
    invisible above the solver: materialization expands representatives
    back to the original nodes and renumbers all tables canonically, so the
    returned {!Solution.t} is a pure function of the semantic fixpoint (the
    test suite checks it against the paper's rules run verbatim by
    {!Datalog_backend}), and [derivations] still counts {e semantic}
    (uncollapsed) insertions, which is what the budget bounds.

    A configurable derivation budget bounds the number of tuple insertions;
    exceeding it aborts with [Solution.Budget_exceeded] — our deterministic
    substitute for the paper's 90-minute wall-clock timeout. *)

type config = {
  default_strategy : Strategy.t;  (** for elements outside the refine sets *)
  refined_strategy : Strategy.t;  (** for elements inside the refine sets *)
  refine : Refine.t;
  budget : int;  (** max derivations; [0] means unlimited *)
  field_sensitive : bool;
      (** [false] degrades field handling to a field-based analysis (all base
          objects of a field collapse) — an ablation of a design choice the
          paper's model takes for granted. *)
}

val plain : Ipa_ir.Program.t -> ?budget:int -> Strategy.t -> config
(** A non-introspective configuration: [strategy] everywhere, empty refine
    sets, field-sensitive. The program argument is unused: a configuration
    is bound to no program. *)

val write_config : Ipa_support.Codec.Writer.t -> config -> unit
(** The canonical encoding of everything in [config] that decides a
    solve's result: both strategy names, the refine sets (sorted), the
    budget and field sensitivity. *)

val config_digest : config -> string
(** MD5 (hex) of {!write_config}'s bytes: the identity of a configuration
    that every solution records ({!Solution.config}). *)

val solved_under : Solution.t -> config -> bool
(** Whether the solution records [config]'s digest: the check a warm
    solve makes before it installs or resumes a baseline. *)

val run : Ipa_ir.Program.t -> config -> Solution.t
(** Run to fixpoint (or budget exhaustion) from the program's entry points.
    The result carries no resume handle: no solver state outlives it. *)

type installed = {
  facts : int;  (** points-to facts installed from the baseline *)
  edges : int;  (** copy edges recorded, without propagation, while installing *)
}

val warm :
  base_program:Ipa_ir.Program.t ->
  changed:bool array ->
  Solution.t ->
  Ipa_ir.Program.t ->
  config ->
  (Solution.t * installed option, string) result
(** [warm ~base_program ~changed base p cfg] re-solves [p] from [base], a
    complete solution of [base_program] under [cfg]. [changed] is
    {!Summary.delta}'s mask for [base_program] → [p], which must be a
    monotone extension. The warm solve needs the live solver state of
    [base]'s fixpoint:
    - When [base] is a warm result whose handle ({!Solution.resume}) is
      still current, that state is resumed ([None] installed).
    - Otherwise [base] is installed, without counting, into fresh state
      for [base_program] ([Some installed]): contexts and objects are
      re-interned (context elements name program entities by raw id,
      which a monotone extension keeps stable), every base points-to set
      goes straight into its node with an empty pending batch, and every
      body of the base's reachable pairs and the base-variable uses of
      every installed fact add their edges without flushing them.
      [Error reason] when that derives something the baseline lacks (a new
      object insertion, reachable pair or call-graph edge): the baseline
      is not a fixpoint of [base_program] and [cfg].

    Either way the state then moves to [p] and runs only the edit's
    counted work: the appended instructions of changed methods in every
    reachable context, the new base-variable uses over the sets their
    variables hold, and the return edge of every old call-graph edge into
    a method that gained a return variable; then it drains and
    materializes. So [derivations] counts exactly the tuples [base] lacks,
    whichever way the state was obtained. The result is byte-identical to
    a cold solve of [p] (modulo counters and the derivation count —
    asserted by differential tests) and carries the state's next handle.

    A live state is resumed only when [base_program] is (physically) the
    program it was solved on. A handle resumes at most
    once: the first warm solve claims it with an atomic generation check,
    so a second one from the same base — or from a copy [{ base with ... }],
    or on another domain at the same time — installs. A state whose resume
    raised is never resumed again. Sets that [base] or any earlier solution
    holds are never written: the state copies a shared set before its
    first insertion. Requires an unbudgeted config and a [Complete] base
    solved under [cfg] ({!solved_under}); the caller —
    {!Compositional_solver} — falls back to a cold solve otherwise. *)

(** {1 Packed copy-edge representation}

    Exposed for tests and diagnostics: destination node in the high bits,
    filter-spec id in the low bits that {!filter_mask} selects. *)

val filter_mask : int

val pack_edge : dst:int -> spec:int -> int
(** Raises [Invalid_argument] when [spec] does not fit in the filter bits
    (a silent wrap would corrupt the destination field). *)

val edge_dst : int -> int
val edge_spec : int -> int

(** High-level drivers: plain and introspective analyses.

    This is the main entry point of the library. [run_plain] executes one
    context-sensitivity flavor directly; [run_introspective] implements the
    paper's two-pass recipe:

    + run a context-insensitive analysis;
    + compute the {!Introspection} cost metrics over its results;
    + apply a {!Heuristics} to populate the refine sets;
    + re-run with default = context-insensitive constructors and refined =
      the requested flavor's constructors.

    As in the paper's evaluation, the reported time of an introspective
    analysis is the second pass only (the first pass is a reusable,
    uniformly cheap artifact). *)

type result = {
  label : string;  (** e.g. ["2objH"] or ["2objH-IntroA"] *)
  solution : Solution.t;
  seconds : float;  (** wall-clock of the solver run *)
  timed_out : bool;  (** derivation budget exceeded; tables are partial *)
}

val run_plain : ?budget:int -> Ipa_ir.Program.t -> Flavors.spec -> result
(** [budget] is the maximum number of derivations (default unlimited). *)

val run_config : Ipa_ir.Program.t -> label:string -> Solver.config -> result
(** Run an arbitrary solver configuration, timing it and stamping the
    result with [label]. The building block of every driver above and of
    the snapshot cache (which must re-run {e exactly} the configuration it
    keyed). *)

val second_pass_config :
  ?budget:int -> Ipa_ir.Program.t -> Flavors.spec -> Refine.t -> Solver.config
(** The configuration of an introspective (or client-driven) second pass:
    context-insensitive constructors by default, [flavor]'s constructors on
    the elements selected by [refine], field-sensitive.
    Exposed so callers can compute the pass's cache key. *)

type introspective = {
  base : result;  (** the context-insensitive first pass *)
  metrics : Introspection.t;
  heuristic : Heuristics.t;
  refine : Refine.t;
  selection : Heuristics.stats;
  second : result;  (** the refined second pass *)
}

val run_introspective :
  ?budget:int ->
  ?base:result * Introspection.t ->
  ?solve:(label:string -> Solver.config -> result) ->
  Ipa_ir.Program.t ->
  Flavors.spec ->
  Heuristics.t ->
  introspective
(** The [budget] applies to each pass separately. If the first pass itself
    exceeds the budget (which defeats the technique's premise), the
    heuristics run on its partial results and [base.timed_out] is set.

    [base] supplies the first pass and its metrics instead of solving them:
    the shared context-insensitive solve is identical across every
    heuristic variant of a program, so callers compute (or fetch from the
    snapshot cache) the pair once and reuse it. It must be a
    context-insensitive run of the same program. [solve] runs the second
    pass (default {!run_config}); the snapshot cache passes its memoizing
    solve so the refined pass is cached too. *)

(** {1 Client-driven baseline} *)

type client_driven = {
  cd_base : result;  (** the context-insensitive first pass *)
  cd_refine : Refine.t;
  cd_second : result;
}

val run_client_driven :
  ?budget:int ->
  ?base:result ->
  Ipa_ir.Program.t ->
  Flavors.spec ->
  Client_driven.query ->
  client_driven
(** The §5 comparison baseline: refine only the dependence slice of the
    query variables (see {!Client_driven}), everything else stays
    context-insensitive. [base] supplies the (possibly cached)
    context-insensitive first pass instead of solving it. *)

(** {1 Incremental solving} *)

val run_incremental :
  Ipa_ir.Program.t ->
  base_program:Ipa_ir.Program.t ->
  base_solution:Solution.t ->
  Flavors.spec ->
  result * Compositional_solver.report
(** Warm re-solve of an edited program from a baseline solve of
    [base_program] under the same flavor — see
    {!Compositional_solver.solve_incremental}: the baseline's live solver
    state, or the baseline installed into state for [base_program], runs
    only the edit's work ({!Solver.warm}). Unbudgeted by construction
    (a budget would force the cold fallback). The label is suffixed
    ["-incremental"]. *)

(** {1 Mixed context-sensitivity} *)

val run_mixed :
  ?budget:int ->
  Ipa_ir.Program.t ->
  default:Flavors.spec ->
  refined:Flavors.spec ->
  refine:Refine.t ->
  result
(** §3's general form of the machinery: any two flavors side by side, the
    refine sets choosing per allocation/call site — e.g. object-sensitivity
    for the sites in [refine] and call-site-sensitivity elsewhere.
    [run_plain] and the introspective second pass are the two special cases
    the paper evaluates. *)

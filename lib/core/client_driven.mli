(** A client-driven refinement baseline, for comparison with introspection.

    The paper's related-work section (§5) contrasts introspective
    context-sensitivity with demand- and client-driven refinement (Guyer &
    Lin; Sridharan & Bodík; Liang & Naik): those techniques pick {e what to
    refine} from the needs of a specific query, estimating {e benefit},
    where introspection is query-agnostic and estimates {e cost}. This
    module implements a simplified query-driven selector in our framework —
    demonstrating both §3's claim that the two-constructor model
    accommodates arbitrary selection policies, and §5's argument about why
    benefit-driven selection does not replace introspection for all-points
    analysis (refining for {e every} query converges to the full analysis
    and its blow-ups; see the harness study).

    The selector computes, over the context-insensitive first pass, the
    backward dependence slice of the query variables through the pointer
    assignment graph (copies, loads/stores via the points-to sets, calls via
    the call graph, exception flow), and refines exactly the call sites and
    allocation sites that slice touches. *)

type query = Ipa_ir.Program.var_id list
(** The variables whose points-to precision the client cares about (e.g. the
    sources of the casts it wants proven safe). *)

val select : Solution.t -> query -> Refine.t
(** [select base query] — [base] must be a context-insensitive solution.
    Returns the refine sets covering the query's dependence slice. *)

val selection_size : Solution.t -> Refine.t -> int * int
(** [(refined sites, refined objects)] implied by the complement sets, using
    the same candidate universes as {!Heuristics.selection_stats}. *)

val cast_queries : Solution.t -> (Ipa_ir.Program.var_id * Ipa_ir.Program.class_id) list
(** Convenience: the source variable and target type of every cast of
    {!Precision.casts}, in its order — the standard cast-safety client's
    query set. *)

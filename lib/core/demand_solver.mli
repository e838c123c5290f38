(** Demand-driven solving: answer a points-to query from a backward
    constraint slice instead of a full solve (Khedker/Mycroft-style lazy
    pointer analysis, adapted to the paper's model).

    Given a set of {e roots} — variables and/or fields the query mentions —
    {!slice} computes, by a worklist over the program's def-use structure,
    the set of variables, fields and per-method exception flows whose
    points-to contents can reach a root. Call-graph construction stays
    on-the-fly and {e complete}: every [Call] instruction is kept and every
    virtual call's receiver variable is transitively root-relevant, so the
    restricted solve discovers exactly the contexts, reachable methods and
    call-graph edges of the full solve. Everything else (allocations, copies,
    loads, stores, returns, throws that cannot flow into a root) is pruned.

    {b Soundness contract.} For any variable or field {e inside} the slice
    (marked in [relevant_vars]/[relevant_fields]), the restricted
    solution's points-to set equals the full solve's, byte-for-byte after
    rendering (asserted by property tests across all four flavors). For entities {e outside} the
    slice the tables are a lower bound only — callers must treat such facts
    as partial and either widen the root set or fall back to a full solve.
    The call graph and reachable-method set are exact regardless.

    Slices are pure functions of (program, roots); {!key} digests a slice
    together with a solve-configuration key so solved slices can be
    content-addressed in [Harness.Cache] next to full snapshots. *)

module Program = Ipa_ir.Program

type roots = {
  root_vars : Program.var_id list;
  root_fields : Program.field_id list;
}

val no_roots : roots
(** The empty root set. Still a useful slice: it keeps every call (and the
    receiver data-flow feeding dispatch), so the call graph, contexts and
    reachability it induces are exact — enough for callee queries. *)

val all_var_roots : Program.t -> roots
(** Every variable is a root; the slice degenerates to the whole program.
    The honest encoding for inverted (pointed-by) demands. *)

type t = {
  original : Program.t;
  pruned : Program.t;
      (** same entity arrays and derived tables, bodies filtered to the
          slice *)
  relevant_vars : bool array;
  relevant_fields : bool array;
  slice_nodes : int;
      (** marked vars + fields + per-method exception flows — the slice's
          size measure surfaced through metrics and reply framing *)
  kept_instrs : int;
  total_instrs : int;
  root_key : string;  (** canonical digest component for the root set *)
}

val slice : Program.t -> roots -> t
(** Compute the backward closure and build the pruned program. The def-use
    index (the CHA call graph of {!Ipa_ir.Program.cha_targets} and
    {!Summary.call_targets}, backward defs, and the closure every slice
    shares)
    is built once per physical program and reused by every later slice of
    it; a slice then costs its closure worklist plus one filtering pass
    over the bodies — no solving. The pruned program shares the
    original's derived tables ({!Ipa_ir.Program.with_bodies}). *)

val key : config_key:string -> roots -> string
(** Content address for the solved slice: digest of the full-solve snapshot
    [config_key] (program digest + strategies + refine sets + budget + field
    sensitivity) and the canonical root set. Derivable from the roots alone
    — no slicing needed to probe a memo or cache. Distinct from every
    full-solve snapshot key, stable across sessions. *)

val run : t -> Solver.config -> Solution.t
(** Solve the pruned program with the given configuration and return the
    solution re-anchored on the {e original} program (ids are shared, so all
    tables, projections and renderings line up; [Solution.self_check]
    passes). Callers who want exact answers should pass [budget = 0] — the
    point of slicing is that the slice is small enough to afford it. *)

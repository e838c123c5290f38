(** Ablation studies around the paper's design choices (§3's "mix-and-match"
    discussion and the constants' robustness claim).

    Six studies, each printing a table ({!print_all} runs them in this
    order):

    - {b knob}: sweep the heuristic constants across orders of magnitude on
      the explosive benchmarks. The paper claims "even relatively large
      variations of these numbers make scarcely any difference" — visible
      here as a plateau around the defaults, with collapse to insens on one
      side and to the full (exploding) analysis on the other.
    - {b grid}: every context-sensitivity flavor (including 1-deep variants
      and the hybrid flavor of Kastrinis & Smaragdakis) on every benchmark —
      the scalability landscape that motivates introspection. Also shows
      hybrid tracking object-sensitivity, as the related-work section
      asserts.
    - {b components}: Heuristic A with parts disabled (only the in-flow
      condition, only the var-field condition, only the object condition),
      quantifying what each cost signal contributes.
    - {b field sensitivity}: field-sensitive (the paper's model) vs
      field-based (all base objects of a field merged) handling: cost and
      precision, context-insensitive and 2objH, on the moderate benchmarks.
    - {b client-driven}: the §5 comparison with a query-driven refinement
      baseline (dependence-slice selection, {!Ipa_core.Client_driven}).
      Per-query it is cheap; asked to serve {e all} cast queries at once it
      converges to the full analysis and its timeouts — the paper's
      argument for cost-based, query-agnostic selection in the all-points
      setting.
    - {b hard-coded}: the §5 status quo, expert-written static skip lists
      (Doop/Wala-style "analyze these classes/methods
      context-insensitively"). The list tuned for hsqldb's registry rescues
      hsqldb but not jython and vice versa — hard-coded heuristics do not
      transfer, which is the motivation for introspection. *)

val grid : Config.t -> unit

val components : Config.t -> unit

val print_all : Config.t -> unit

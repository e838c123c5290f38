(** Incremental re-analysis after program edits.

    An incremental solve condenses the (CHA-approximated) call graph of
    both programs into strongly connected components ({!Summary}), diffs
    their content digests, closes the dirty set over transitive callers,
    and warm-starts {!Solver.run_incremental} from the baseline solution
    with only the digest-changed bodies deferred — so the warm derivation
    count measures the edit, not the program. When the edit is not a
    monotone extension (or the config is budgeted, or the baseline
    incomplete), it falls back to a cold {!Solver.run} and says so in the
    report. *)

type report = {
  n_sccs : int;  (** components in the condensation of the solved program *)
  dirty_sccs : int list;
      (** ascending: digest-changed components plus their transitive
          callers; empty on a fallback *)
  fallback : string option;  (** why the warm path was refused, when it was *)
}

val solve_incremental :
  base_program:Ipa_ir.Program.t ->
  base_solution:Solution.t ->
  Ipa_ir.Program.t ->
  Solver.config ->
  Solution.t * report
(** Re-solve an edited program, warm-starting from [base_solution] (which
    must be the solve of [base_program] under the same [cfg]). The solution
    is byte-identical to a cold solve of the edited program modulo counters
    and derivation count; [Solution.derivations] counts only edit-enabled
    work. Falls back to {!Solver.run} — reporting [fallback = Some reason] —
    when [cfg] is budgeted, the baseline is not [Complete], or the edit is
    not a monotone extension ({!Summary.extends}). *)

(** Incremental re-analysis after program edits.

    An incremental solve checks that the edited program monotonically
    extends the baseline ({!Summary.delta}), which also marks the methods
    the edit added or changed. Its report counts the strongly connected
    components of the edited program's (CHA-approximated) call graph and
    lists the dirty ones, those that reach a marked method, both from one
    Tarjan pass ({!Summary.dirty_components}). The warm solve itself is
    {!Solver.warm}: it resumes the live solver state behind a warm
    baseline whose handle is current, or else installs the baseline into
    state for [base_program], and then runs only the edit's work. Either
    way the warm derivation count measures the edit, not the program.
    When the edit is not a monotone extension, the config is budgeted,
    the baseline incomplete or solved under another configuration, or
    installing finds the baseline stale, it falls back to a cold
    {!Solver.run} and says so in the report. *)

type report = {
  n_sccs : int;  (** call-graph components of the solved program *)
  dirty_sccs : int list;
      (** ascending: components that reach a new or changed method (those
          holding one, and their transitive callers); empty on a
          fallback *)
  fallback : string option;  (** why the warm path was refused, when it was *)
  resumed : bool;
      (** the warm path resumed the base's live solver state
          ({!Solver.warm}) instead of installing the base; nothing is
          installed then *)
  installed_facts : int;
      (** baseline points-to facts installed; 0 on a fallback or a resume *)
  installed_edges : int;
      (** copy edges recorded without propagation while installing; 0 on a
          fallback or a resume *)
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
    work. The result carries a resume handle ({!Solution.resume}) for the
    next warm solve from it. Falls back to {!Solver.run} — reporting [fallback = Some reason] —
    when [cfg] is budgeted, the baseline is not [Complete], the baseline
    does not record [cfg]'s digest ({!Solver.solved_under}: solved under
    another configuration, or decoded without naming one), the edit is
    not a monotone extension ({!Summary.delta}), or installing derives
    something the baseline lacks. *)

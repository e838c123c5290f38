(** Baseline-file suppression: CI fails only on findings that are new
    relative to a committed baseline.

    A baseline is a set of {!Ipa_ir.Diagnostic.fingerprint} values — the
    (rule id, entity) identity — stored as version-1 JSON with the rule and
    entity alongside each fingerprint for reviewable diffs. Because the
    identity ignores spans and messages, renumbering lines or rewording a
    witness list does not resurface an accepted finding. *)

module Diagnostic = Ipa_ir.Diagnostic

type t

val filter_new : t -> Diagnostic.t list -> Diagnostic.t list
(** The findings not covered by the baseline, order preserved. *)

val save : string -> Diagnostic.t list -> unit
(** Writes the version-1 JSON baseline for the given findings (sorted,
    de-duplicated by fingerprint). *)

val load : string -> (t, string) result

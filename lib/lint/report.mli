(** Reporters: render a sorted finding list as human text, JSON lines, or
    SARIF 2.1.0. Pure functions of their input — byte-identical output for
    identical findings, whatever concurrency produced them. *)

module Diagnostic = Ipa_ir.Diagnostic

val human : Diagnostic.t list -> string
(** One {!Diagnostic.to_human} block per finding. *)

val jsonl : Diagnostic.t list -> string
(** One compact JSON object per line: rule, severity, file/line/col, entity,
    message, witnesses, fingerprint. *)

val sarif : ?rules:Lint.rule list -> Diagnostic.t list -> string
(** A SARIF 2.1.0 log with a single run: driver metadata carries one
    reportingDescriptor per rule ([rules] defaults to the whole registry),
    each finding becomes a result with [ruleId], [level], [message],
    [locations] (omitted for findings with no span at all) and a
    [partialFingerprints] entry keyed ["ipaFindingId/v1"]. Pretty-printed. *)

type format = Human | Jsonl | Sarif

val render : ?rules:Lint.rule list -> format -> Diagnostic.t list -> string

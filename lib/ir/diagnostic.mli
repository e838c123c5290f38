(** The uniform finding type of the lint engine and the {!Wf} checker.

    A diagnostic carries a stable rule id (["IPA-W012"], ["IPA-S001"], ...),
    a severity, a source span (see {!Srcloc}), a stable symbolic [entity]
    anchor (a method/field/class full name, possibly suffixed with a site
    index) used for baseline matching, a human-readable message, and
    optional witness strings (offending heap objects, value-flow paths). *)

type severity = Error | Warning | Info

val severity_to_string : severity -> string
(** ["error"], ["warning"], ["info"]. *)

type span = { file : string; line : int; col : int }

val no_span : span
val span_of_pos : file:string -> Srcloc.pos -> span

type t = {
  rule : string;  (** stable rule id *)
  severity : severity;
  span : span;
  entity : string;  (** stable anchor, unique within the rule *)
  message : string;
  witnesses : string list;
}

val make :
  rule:string ->
  severity:severity ->
  ?span:span ->
  entity:string ->
  ?witnesses:string list ->
  string ->
  t

val compare : t -> t -> int
(** Total deterministic order: rule id, then span, then entity, then
    message. Reports sorted with this are byte-identical regardless of the
    order rules ran in. *)

val fingerprint : t -> string
(** Hex digest of (rule id, entity) — the identity used by baseline files.
    Span- and message-independent, so renumbered lines or reworded witness
    lists do not resurface a baselined finding as new. *)

val to_human : t -> string
(** ["span: severity: message \[rule\]"], witnesses indented below. *)

(** The lint engine: a rule registry over [.jir] programs and (optionally)
    their points-to solutions, producing {!Ipa_ir.Diagnostic.t} findings in
    a deterministic order.

    Two rule families:
    - {e syntactic} rules need only the program (IPA-W000 well-formedness,
      IPA-S001 .. IPA-S005);
    - {e solution-backed} rules ground findings in a {!Ipa_core.Solution.t}
      (IPA-P001 .. IPA-P006) and report nothing when the context has no
      solution.

    Monotone rules (P001 may-fail-cast, P004 megamorphic-call, P005
    taint-flow, and trivially every syntactic rule) have finding sets —
    keyed by (rule id, entity) — that never grow as analysis precision
    increases; P002/P003/P006 report facts a finer analysis can newly
    establish and are explicitly non-monotone. *)

module Diagnostic = Ipa_ir.Diagnostic

type ctx = {
  program : Ipa_ir.Program.t;
  solution : Ipa_core.Solution.t option;
  taint_spec : Ipa_clients.Taint.spec option;  (** [None] = the client's default spec *)
  megamorphic_threshold : int;  (** IPA-P004 fires at this many targets *)
}

val make_ctx :
  ?solution:Ipa_core.Solution.t ->
  ?taint_spec:Ipa_clients.Taint.spec ->
  ?megamorphic_threshold:int ->
  Ipa_ir.Program.t ->
  ctx
(** [megamorphic_threshold] defaults to 3. *)

type source = Syntactic | Solution_backed

type rule = {
  id : string;  (** stable: ["IPA-S001"] ... *)
  name : string;  (** kebab-case short name *)
  doc : string;  (** one-line description, shown in SARIF rule metadata *)
  severity : Diagnostic.severity;  (** default severity of its findings *)
  source : source;
  monotone : bool;  (** finding set shrinks as analysis precision grows *)
  run : ctx -> Diagnostic.t list;
}

val all_rules : rule list
(** The registry, in rule-id order. *)

val find_rule : string -> rule option

val select_rules : string option -> (rule list, string) result
(** [select_rules None] is every rule. [select_rules (Some spec)] parses a
    comma-separated list of rule ids and the family selectors [all],
    [syntactic], [semantic]; a trailing [-] excludes ([all,IPA-P006-]).
    Unknown names are an [Error]. *)

type timing = { rule_id : string; seconds : float; n_findings : int }

val run : ?rules:rule list -> ctx -> Diagnostic.t list * timing list
(** Runs the rules (all of them by default) and returns the de-duplicated
    findings sorted by {!Diagnostic.compare} plus per-rule wall-clock
    timings (in the rules' registry order). *)

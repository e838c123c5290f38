(** The paper's three precision metrics (lower is better), plus extras, and
    the one definition of each verdict behind them.

    Every verdict is computed on the context-insensitive projection of the
    analysis results, as in the paper's evaluation, and only here: the
    figure columns, the lint rules (P001, P002, P004), [introspect compare],
    the [devirt], [casts] and [exceptions] reports and the ablations all
    read {!casts}, {!vcalls} and {!uncaught}.

    - {b polymorphic virtual call sites} — "calls that cannot be
      devirtualized": virtual call sites whose call-graph edges resolve to
      two or more distinct methods;
    - {b reachable methods};
    - {b casts that may fail}: reachable cast statements whose source may
      point to an object that is not a subtype of the cast target. *)

type cast = {
  meth : Ipa_ir.Program.meth_id;  (** enclosing method *)
  index : int;  (** body index of the cast in [meth] *)
  source : Ipa_ir.Program.var_id;
  target_type : Ipa_ir.Program.class_id;
  total : int;  (** points-to cardinality of [source] *)
  witnesses : Ipa_ir.Program.heap_id list;
      (** objects that would fail, ascending; [[]] = proven safe *)
}

val casts : Solution.t -> cast list
(** Every cast in a reachable method, in program order. A cast with
    [total > 0] and as many witnesses as [total] is {e guaranteed} to fail
    under the analysis, not merely unproven. *)

val may_fail : cast -> bool
(** The paper's verdict: the cast has a witness. *)

type vcall = {
  site : Ipa_ir.Program.invo_id;
  targets : Ipa_ir.Program.meth_id list;
      (** call-graph targets, ascending; [[]] = unreachable under the
          analysis, one = devirtualizable, two or more = polymorphic *)
}

val vcalls : Solution.t -> vcall list
(** Every virtual call site of the program, in site order. *)

val polymorphic : vcall -> bool
(** The paper's verdict: two or more targets, so the call cannot be
    devirtualized. *)

type uncaught = {
  entry : Ipa_ir.Program.meth_id;
  objects : Ipa_ir.Program.heap_id list;  (** ascending, never empty *)
}

val uncaught : Solution.t -> uncaught list
(** The exception objects escaping each entry point, for the entry points
    (in declaration order) that have any. *)

type t = {
  poly_vcalls : int;
  reachable_methods : int;
  may_fail_casts : int;
  call_edges : int;  (** extra: context-insensitive call-graph edges *)
  uncaught_exceptions : int;
      (** extra: exception allocation sites that may escape an entry point *)
}

val compute : Solution.t -> t

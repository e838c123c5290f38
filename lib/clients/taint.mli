(** Interprocedural taint-reachability client.

    Sources, sinks and sanitizers are named by glob patterns ([*] matches
    any substring) over method full names (["Class::name/arity"]) and, for
    allocation-site sources, class names. Taint is forward reachability
    over the solution's {!Ipa_core.Value_flow} graph: values returned by
    source methods and objects allocated at source-class sites are tainted;
    every node of a sanitizer method cuts flow; a finding is a tainted
    actual argument of a call that resolves to a sink method. Because the
    value-flow graph of a more precise solution is a subgraph, the count of
    tainted sinks is monotone: a more context-sensitive analysis never
    reports more than a less sensitive one on the same program. *)

module Program = Ipa_ir.Program

type spec = {
  sources : string list;  (** method patterns whose return value is tainted *)
  source_classes : string list;  (** class patterns whose allocations are tainted *)
  sinks : string list;  (** method patterns whose arguments must stay clean *)
  sanitizers : string list;  (** method patterns through which taint is cut *)
}

val default_spec : spec
(** Sources [*::mkSecret/0] and allocations of [Secret*] classes, sinks
    [*::consume/1], sanitizers [*::scrub/1] — the conventions used by the
    synthetic taint motif and the bundled examples. *)

val spec_of_string : string -> (spec, string) result
(** Parse the line-based spec format: one directive per line, [#] comments
    and blank lines ignored. Directives: [source PAT], [source-class PAT],
    [sink PAT], [sanitizer PAT]. *)

val spec_of_file : string -> (spec, string) result

val spec_to_string : spec -> string

val glob_match : pat:string -> string -> bool

(** One tainted sink argument, with a value-flow witness. *)
type finding = {
  invo : Program.invo_id;
  sink : Program.meth_id;  (** resolved sink callee *)
  arg : int;  (** index of the tainted actual *)
  path : Ipa_core.Value_flow.node list;  (** seed ... sink actual *)
}

type result = {
  spec : spec;
  findings : finding list;  (** distinct (invo, arg), deterministic order *)
  n_seeds : int;  (** taint-introduction nodes found *)
  vfg : Ipa_core.Value_flow.t option;  (** [None] when no source matched *)
}

val analyze : ?spec:spec -> Ipa_core.Solution.t -> result
(** When no reachable source matches the spec, returns an empty result
    without materializing the value-flow graph. *)

val tainted_sink_count : ?spec:spec -> Ipa_core.Solution.t -> int
(** [List.length (analyze s).findings]. *)


(** Export a program as a standalone Datalog points-to analysis.

    Emits the program's input relations as [.dl] facts (entities rendered as
    readable symbols) together with the context-insensitive points-to rules
    written in the {!Ipa_datalog.Dl} surface language — the paper's Figure 3
    with the context columns erased, as an executable artifact:

    {v introspect export-dl prog.jir -o prog.dl && introspect datalog prog.dl v}

    reproduces the native insensitive [VarPointsTo]/[CallGraph] (asserted by
    tests). Exception flow is omitted — ordered catch-chain routing needs
    the external routing function that the pure surface language does not
    have (the {!Ipa_core.Datalog_backend} covers it with guards). *)

val script : Ipa_ir.Program.t -> string
(** The context-insensitive analysis rules (with the [.decl]s of the
    computed relations), declarations plus ground facts for every input
    relation of [p] (subtype and dispatch tables included), and [.output]
    directives for [vpt], [fpt], [cg] and [reach] — a complete, runnable
    program. *)

(** Shared scaffolding for generated benchmark programs.

    A world owns a {!Ipa_ir.Builder}, the root [Object] class, and the
    [Main] class whose [main/0] entry point motifs append their calling
    code to. Motifs (see {!Motifs}) add classes and code;
    {!finish} seals the program. *)

type t = {
  b : Ipa_ir.Builder.t;
  object_cls : Ipa_ir.Program.class_id;
  main_cls : Ipa_ir.Program.class_id;
  main : Ipa_ir.Program.meth_id;
  mutable counter : int;
}

val create : unit -> t

val fresh : t -> string -> string
(** [fresh w prefix] is a program-unique identifier ["<prefix><n>"]. *)

val main_var : t -> string -> Ipa_ir.Program.var_id
(** Declare a fresh local in [main] (the given prefix is made unique). *)

val finish : t -> Ipa_ir.Program.t
(** Seal and validate. The builder must not be used afterwards. *)

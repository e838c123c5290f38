(** Per-entity source positions of a program.

    Built by {!Builder} as a side table of {!Program.t}: one position per
    class, field, method, variable, allocation site, and invocation site,
    plus per-method positions for each body instruction and catch clause.
    The front-end resolver records real [file:line:col] coordinates; programs
    built without any position information (the synthetic generator) get
    deterministic "generator coordinates" — [file] is {!synthetic_file},
    an entity's line is its id + 1, and the column is 0 (real columns are
    1-based, so a 0 column always marks a generated position).

    Positions are deliberately {e not} part of a program's snapshot digest
    ({!val:Ipa_core.Snapshot.digest_program} encodes entity tables only), so
    reformatting a [.jir] file — or the presence of this table at all —
    never invalidates cached analysis solutions. *)

type pos = { line : int; col : int }

val no_pos : pos
(** [{line = 0; col = 0}] — the "unknown" position. *)

val synthetic_file : string
(** ["<synthetic>"] — the file name of generator coordinates. *)

type t = {
  file : string;
  classes : pos array;
  fields : pos array;
  meths : pos array;
  vars : pos array;
  heaps : pos array;
  invos : pos array;
  instrs : pos array array;  (** per method, per body index *)
  catches : pos array array;  (** per method, per catch-clause index *)
}

(** {1 Accessors} — total: out-of-range ids return {!no_pos}. *)

val class_pos : t -> int -> pos
val field_pos : t -> int -> pos
val meth_pos : t -> int -> pos
val var_pos : t -> int -> pos
val invo_pos : t -> int -> pos
val instr_pos : t -> int -> int -> pos
val catch_pos : t -> int -> int -> pos

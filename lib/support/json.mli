(** A minimal JSON value type with deterministic emission and a strict
    parser — enough for the lint reporters (JSON lines, SARIF), baseline
    files, and tests that validate emitted shapes. No external dependency
    and no float surprises: integers stay integers. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** written as [null] when not finite: JSON has no literal for it *)
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** Compact by default (no whitespace); [~pretty:true] indents with two
    spaces. Emission is deterministic: object keys keep their given order. *)

val escape : string -> string
(** The string-body escaping used by {!to_string} (without the quotes). *)

val of_string : string -> (t, string) result
(** Strict parse of a single JSON value (trailing garbage is an error).
    [\u] escapes are decoded to UTF-8. *)

(** {1 Accessors} — shallow, [None] on shape mismatch. *)

val member : string -> t -> t option
val to_list : t -> t list option
val to_str : t -> string option
val to_int : t -> int option

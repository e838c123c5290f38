(** Contexts as interned sequences of tagged elements.

    A (calling or heap) context is a sequence of {e context elements}; an
    element is an allocation site (object-sensitivity), an invocation site
    (call-site-sensitivity), or a class (type-sensitivity) — hybrid flavors
    mix them, hence the tagging. Sequences are hash-consed into dense ids by
    a per-analysis-run {!t}; id {!empty} is the empty sequence, which also
    serves as "the" context of a context-insensitive analysis.

    Calling contexts and heap contexts share one table (a heap context is
    typically a prefix of a calling context, so sharing helps). *)

type t

(** {1 Elements} *)

module Elem : sig
  type kind = Heap | Invo | Type

  val heap : Ipa_ir.Program.heap_id -> int
  val invo : Ipa_ir.Program.invo_id -> int
  val ty : Ipa_ir.Program.class_id -> int

  val kind : int -> kind
  val id : int -> int

  val to_string : Ipa_ir.Program.t -> int -> string
end

(** {1 Tables} *)

val create : unit -> t

val empty : int
(** The id of the empty context in every table. *)

val intern : t -> int array -> int
(** [intern t elems] is the id of the element sequence. The array must not be
    mutated afterwards. *)

val elems : t -> int -> int array
(** Elements of a context, outermost (most recent) first. Do not mutate. *)

val push_trunc : t -> int -> elem:int -> keep:int -> int
(** [push_trunc t ctx ~elem ~keep] conses [elem] onto [ctx]'s elements and
    keeps the first [keep]: the universal "add one level, bounded depth"
    constructor step. [keep <= 0] yields {!empty}. *)

val trunc : t -> int -> keep:int -> int
(** [trunc t ctx ~keep] keeps the first [keep] elements of [ctx]. *)

val count : t -> int
(** Number of distinct contexts interned (including the empty one). *)

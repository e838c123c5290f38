(** Growable arrays.

    OCaml 5.1 has no [Dynarray] in the standard library, and the solver and
    Datalog engine both need append-heavy, index-addressed storage. Elements
    are stored in a plain array that doubles on demand; a caller-supplied
    dummy value fills the unused tail, so no [Obj] tricks are needed. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [create ~dummy ()] is an empty dynamic array. [dummy] is used to fill
    unused slots and is never observable through the API. *)

val make : ?capacity:int -> int -> 'a -> 'a t
(** [make n x] has length [n], every element [x] (which is also the
    dummy), and room for at least [capacity] elements. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
(** [get t i] is the [i]-th element. Raises [Invalid_argument] when [i] is out
    of bounds. *)

val set : 'a t -> int -> 'a -> unit
(** [set t i x] replaces the [i]-th element. Raises [Invalid_argument] when
    [i] is out of bounds. *)

val push : 'a t -> 'a -> unit
(** [push t x] appends [x], growing the backing store if needed. *)

val push_get_index : 'a t -> 'a -> int
(** [push_get_index t x] appends [x] and returns its index. *)

val clear : 'a t -> unit
(** [clear t] resets the length to zero (capacity is retained). *)

val iter : ('a -> unit) -> 'a t -> unit

val iter_prefix : ('a -> unit) -> 'a t -> n:int -> unit
(** [iter_prefix f t ~n] applies [f] to the first [n] elements in order.
    [f] may [push] onto [t] during the walk; appended elements are not
    visited. Raises [Invalid_argument] when [n] exceeds the length. *)

val drop_prefix : 'a t -> int -> unit
(** [drop_prefix t n] removes the first [n] elements, shifting the rest to
    the front (capacity is retained). Raises [Invalid_argument] when [n]
    exceeds the length. *)

val iteri : (int -> 'a -> unit) -> 'a t -> unit

val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val to_list : 'a t -> 'a list

val to_array : 'a t -> 'a array

val of_list : dummy:'a -> 'a list -> 'a t

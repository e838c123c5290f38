(** Hash-consing of arbitrary values into dense integer ids.

    Contexts, strings, and Datalog tuples are all interned so the rest of the
    system manipulates plain ints. Ids are allocated consecutively from 0, so
    they double as array indexes. Keys are compared with structural equality;
    a key handed to [intern] must not be mutated afterwards. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [dummy] fills unused slots of the reverse table; it is never returned. *)

val intern : 'a t -> 'a -> int
(** [intern t k] is the id of [k], allocating a fresh id on first sight. *)

val find_opt : 'a t -> 'a -> int option
(** [find_opt t k] is the id of [k] if already interned. *)

val value : 'a t -> int -> 'a
(** [value t id] is the key with id [id]. Raises [Invalid_argument] for an
    id that was never allocated. *)

val count : 'a t -> int
(** Number of distinct keys interned so far. *)


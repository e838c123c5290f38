(** Extensional/intensional relations over interned-int tuples.

    Tuples are [int array]s of the relation's arity, stored append-only with
    set semantics. Hash indexes on column subsets are created on demand (the
    first join that needs one) and maintained incrementally. The engine's
    semi-naive evaluation tracks deltas as index ranges into the append-only
    tuple log — see {!mark}. *)

type t

val create : name:string -> arity:int -> t

val name : t -> string
val arity : t -> int

val size : t -> int
(** Number of distinct tuples. *)

val add : t -> int array -> bool
(** [add t tup] inserts a tuple; [true] iff it was new. The array is owned by
    the relation afterwards (do not mutate). Raises [Invalid_argument] on an
    arity mismatch. *)

val mem : t -> int array -> bool


val iter : (int array -> unit) -> t -> unit

val iter_range : (int array -> unit) -> t -> lo:int -> hi:int -> unit
(** Iterate tuples with insertion index in [\[lo, hi)]. *)

val to_list : t -> int array list

val clear : t -> unit
(** Remove all tuples (indexes are dropped). *)

(** {1 Indexes} *)

val iter_matching : t -> cols:int list -> key:int array -> lo:int -> hi:int -> (int array -> unit) -> unit
(** [iter_matching t ~cols ~key ~lo ~hi f] applies [f] to every tuple whose
    insertion index is in [\[lo, hi)] and whose [cols] columns equal [key]
    (positionally). [cols] must be strictly increasing. An index for [cols]
    is created on first use. An empty [cols] degrades to {!iter_range}. *)

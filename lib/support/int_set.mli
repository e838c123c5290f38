(** Mutable sets of non-negative integers, adaptive representation.

    This is the workhorse set of the points-to solver: points-to sets hold
    interned object ids and are mutated millions of times per run, so the
    implementation avoids boxing entirely. Small sets — the long tail of
    tiny points-to sets — are a sorted inline [int array] scanned linearly;
    past 8 elements a set promotes to an open-addressing table (linear
    probing, power-of-two capacity, no deletion). Negative elements are
    rejected — [min_int] marks empty slots internally and all interned ids
    are non-negative anyway. *)

type t

val create : ?capacity:int -> unit -> t

val cardinal : t -> int

val mem : t -> int -> bool

val add : t -> int -> bool
(** [add t x] inserts [x] and returns [true] iff [x] was not already present.
    Raises [Invalid_argument] on negative [x]. *)

val iter : (int -> unit) -> t -> unit
(** Iteration order is unspecified (ascending while the set is small). It
    follows the slot layout, which depends on the order of insertion
    ({!of_sorted_array} fixes one). The small-set path walks the inline
    array directly and allocates nothing. *)

val fold : (int -> 'acc -> 'acc) -> t -> 'acc -> 'acc

val exists : (int -> bool) -> t -> bool

val to_sorted_array : t -> int array
(** The elements in ascending order, in a fresh array. The one sort every
    ordered view of a set goes through: a small set copies its inline
    sorted prefix, O(n); a hashed set scans its slot table into an array
    and sorts it with {!Int_sort.sort_distinct}. *)

val of_sorted_array : int array -> t
(** [of_sorted_array a] is the set of [a]'s elements, which must be
    strictly ascending and non-negative ([Invalid_argument] otherwise),
    in a table sized for twice their number. Its slot layout, and with it
    its iteration order, is a function of the elements alone: two sets
    built this way from the same elements iterate alike. The solver builds
    every set of a materialized solution this way. *)

val of_sorted_sub : int array -> pos:int -> len:int -> t
(** [of_sorted_sub a ~pos ~len] is the set of [a.(pos)] .. [a.(pos + len - 1)],
    which must be strictly ascending and non-negative ([Invalid_argument]
    otherwise, or when the range is not within [a]). Its table has the
    size adding the elements one by one would leave ([len] up to 8 inline,
    else the smallest power of two from 16 on holding them at a load
    factor of at most 0.7), not {!of_sorted_array}'s doubled one, and is
    filled once. Like {!of_sorted_array}, its layout is a function of the
    elements alone. Decoded snapshot sets and the collapsed projections of
    a solution are built this way. *)

val to_sorted_list : t -> int list
(** [Array.to_list (to_sorted_array t)]. *)

val copy : t -> t

val subset : t -> t -> bool
(** [subset a b] is [true] iff every element of [a] is in [b]. *)

val equal : t -> t -> bool

val clear : t -> unit

(** {1 Instrumentation} *)

val is_small : t -> bool
(** [true] while the set is in the inline sorted-array representation.
    Exposed for tests and diagnostics. *)

val promotion_count : unit -> int
(** Number of small-to-hash promotions performed by the {e current domain}
    since it started. Domain-local, so concurrent solver runs never race;
    measure a single run by taking a delta (each run executes entirely on
    one domain). *)

(** Interning of pairs of small non-negative ints into dense ids.

    Solver nodes are [(variable, context)] and objects are [(heap, heap
    context)]; both components are dense interned ids well below 2^31, so a
    pair packs losslessly into one OCaml int ([a lsl 31 lor b]) and the table
    avoids allocating tuple keys on the hot path. The index from packed pair
    to id is a monomorphic int hash table; nothing depends on its order,
    since every traversal walks the ids. *)

type t

val create : ?capacity:int -> unit -> t

val intern : t -> int -> int -> int
(** [intern t a b] is the id of the pair [(a, b)]. Raises [Invalid_argument]
    when a component is negative or at least [2^31]. *)

val find_opt : t -> int -> int -> int option

val fst : t -> int -> int
(** First component of an interned pair. *)

val snd : t -> int -> int
(** Second component of an interned pair. *)

val count : t -> int

val iter : (int -> int -> int -> unit) -> t -> unit
(** [iter f t] applies [f id a b] in increasing id order. *)

val renumber : t -> fst:(int -> int) -> snd:(int -> int) -> t * int array
(** [renumber t ~fst ~snd] maps every pair [(a, b)] of [t] to
    [(fst a, snd b)] and interns the images into a fresh table in
    ascending lexicographic order, so the new ids are a function of the
    set of images alone. Returns that table and the map from old to new
    ids. Sorts packed keys with {!Int_sort.sort_perm}: the packed order
    is the lexicographic one. Raises [Invalid_argument] when two pairs
    map to one image, or an image component is out of range. *)

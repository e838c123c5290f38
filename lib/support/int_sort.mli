(** Sorting of non-negative integers: the library's one radix sort.

    Both entry points rely on the same LSD radix sort on 8-bit digits: one
    counting pass per byte of the largest key, and one scatter pass per
    byte in which the keys differ, so O(n × bytes) time and one scratch
    array per carried array. Keys must be non-negative; all of them fit in
    OCaml's 63-bit ints, up to [max_int]. *)

val sort_distinct : int array -> int array
(** [sort_distinct a] is the elements of [a], which must be distinct and
    non-negative, in ascending order. The result may be [a] itself,
    sorted in place, or a fresh array; [a] is clobbered either way. Raises
    [Invalid_argument] on a negative element.
    - If [a] is dense (largest element + 1 at most 32 × length), each
      element marks a byte map that is then scanned: O(n + max) time, at
      most 32 bytes of scratch per element.
    - Otherwise up to 32 elements are insertion-sorted, and more are
      radix-sorted. *)

val sort_perm : int array -> int array -> int array
(** [sort_perm keys perm] is a fresh array holding [perm], a sequence of
    indices into [keys], stably reordered so that [keys.(p.(i))] ascends.
    Neither argument is modified. With [perm] the identity it is the
    permutation that sorts [keys]; applying it again with a second key
    array sorts lexicographically on (second key, first key), as an LSD
    sort would. Raises [Invalid_argument] on a negative key. *)

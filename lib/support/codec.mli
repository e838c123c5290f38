(** Versioned, [Marshal]-free binary serialization primitives.

    The snapshot subsystem persists analysis solutions across processes and
    machines, so the encoding must be stable under compiler versions and
    immune to code motion — which rules out [Marshal]. This module provides
    the primitive layer: a buffer-backed {!Writer} and a bounds-checked
    {!Reader} over byte strings, with LEB128 varints for non-negative ints,
    zigzag varints for signed ints, length-prefixed strings, and a canonical
    (sorted, delta-compressed) encoding of {!Int_set}.

    Encodings are {e canonical}: equal values produce byte-identical
    output (sets are emitted in sorted order regardless of their internal
    representation), so whole-payload digests double as content addresses.

    Framing, versioning, and checksumming live one layer up (see
    [Ipa_core.Snapshot]); this module only promises that a reader applied to
    bytes a writer produced yields the original values, and that malformed
    or truncated bytes raise {!Corrupt} rather than returning garbage. *)

exception Corrupt of string
(** Raised by {!Reader} operations on truncated or malformed input. The
    message describes the failed read; it never escapes the snapshot layer,
    which converts it into a typed error. *)

module Writer : sig
  type t

  val create : ?capacity:int -> unit -> t

  val u8 : t -> int -> unit
  (** One byte; the value must be in [0, 255]. *)

  val raw : t -> string -> unit
  (** Bytes emitted verbatim, no length prefix (magic numbers, digests). *)

  val uint : t -> int -> unit
  (** LEB128 varint. Raises [Invalid_argument] on negative input — ids,
      counts, and sizes are non-negative by construction, so a negative here
      is a caller bug, not data. *)

  val int : t -> int -> unit
  (** Zigzag-then-varint; any OCaml int round-trips. *)

  val bool : t -> bool -> unit

  val float : t -> float -> unit
  (** IEEE-754 bits, 8 bytes little-endian; NaN payloads survive. *)

  val string : t -> string -> unit
  (** Length-prefixed; arbitrary bytes allowed. *)

  val int_array : t -> int array -> unit
  (** Length prefix plus one {!uint} per element (elements must be
      non-negative). *)

  val int_set : t -> Int_set.t -> unit
  (** Canonical form: cardinal, then the sorted elements delta-compressed
      (first element absolute, then gaps). Independent of the set's internal
      representation. *)

  val option : t -> (t -> 'a -> unit) -> 'a option -> unit

  val length : t -> int

  val sub : t -> int -> int -> string
  (** [sub t pos len] is a copy of the [len] bytes written from offset
      [pos] on: the bytes of a value already written, so a caller can repeat
      them (with {!raw}) rather than encode the value again. Raises
      [Invalid_argument] when the range is not within {!length}. *)

  val contents : t -> string
end

module Reader : sig
  type t

  val of_string : ?pos:int -> string -> t
  (** Reads from [pos] (default 0) to the end of the string. *)

  val remaining : t -> int

  val at_end : t -> bool

  val u8 : t -> int

  val raw : t -> int -> string
  (** [raw r n] reads [n] bytes verbatim. *)

  val expect : t -> string -> unit
  (** Reads [String.length s] bytes and raises {!Corrupt} unless they equal
      [s] — for magic numbers and trailers. *)

  val uint : t -> int
  (** A varint that must fit a non-negative OCaml int: one whose ninth
      byte sets the sign bit is {!Corrupt}, as is a varint longer than nine
      bytes. Lengths, {!int_array} elements and {!int_set} gaps are read
      this way. *)

  val int : t -> int
  (** Zigzag-then-varint, all 63 bits. *)

  val bool : t -> bool

  val float : t -> float

  val string : t -> string

  val int_array : t -> int array

  val int_set : t -> Int_set.t
  (** One pass over the gaps into a scratch buffer the reader reuses, then
      one fill of the set's table ({!Int_set.of_sorted_sub}). A zero gap
      after the first element, or elements past [max_int], are
      {!Corrupt}. Within one reader, a set whose bytes (count and gaps)
      equal those of a set read before is that same set object, found
      without decoding it again: treat every set read as read-only. Sets
      of different readers are never shared. *)

  val option : t -> (t -> 'a) -> 'a option
end

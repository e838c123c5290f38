(** Solution snapshots: a versioned, content-addressed on-wire form of a
    {!Solution.t} plus its {!Introspection} metrics.

    The introspective pipeline is two-pass, and the first
    (context-insensitive) pass is identical across every heuristic variant
    of a benchmark. A snapshot makes that pass a reusable artifact: the
    solved tables, counters, and metrics serialize to a self-describing
    byte string keyed by a digest of everything that determines the result —
    the program, the solver configuration (strategy names, refine sets,
    budget, field sensitivity), and the snapshot format version.

    {2 Wire format}

    {v
    "IPSN" | version varint | payload length varint | MD5(payload) | payload
    v}

    The payload holds the key, the program digest, the label and solve time,
    the solution tables (contexts, interned pair tables, points-to sets,
    call graph, outcome, derivation count, solver counters), the optional
    metrics, and a trailer magic. Every table is emitted in dense-id order
    and every set in sorted order, so encoding is canonical: equal solutions
    produce byte-identical snapshots, and [encode ∘ decode] is the identity
    on bytes.

    The version varint sits {e outside} the checksummed payload, so a format
    change surfaces as {!Version_mismatch} rather than a checksum failure.
    Any other single-byte corruption is caught by the MD5 (payload bytes),
    the magic (header), or the length field (truncation); decoding never
    raises and never returns a silently wrong solution.

    {2 Invalidation / version bump policy}

    Bump the format version whenever decoded bytes could mean something different:
    a change to this wire format, to the meaning of any serialized field
    (e.g. counter semantics), or to solver behavior that changes results for
    the same configuration. Cached snapshots from other versions then fail
    with {!Version_mismatch} and are recomputed; nothing is ever reused
    across versions. *)

type t = {
  key : string;  (** content address: {!config_key} of the producing run *)
  program_digest : string;  (** {!digest_program} of the analyzed program *)
  label : string;  (** e.g. ["insens"], ["2objH-IntroB"] *)
  seconds : float;  (** wall-clock of the original solve *)
  solution : Solution.t;
  metrics : Introspection.t option;
      (** first-pass cost metrics, stored so cached base passes skip
          recomputation *)
}

val digest_program : Ipa_ir.Program.t -> string
(** MD5 (hex) over a canonical encoding of the whole program: every table
    in id order, including class hierarchy, method bodies, and entry
    points. Programs with equal structure digest equally regardless of how
    they were built. *)

val config_key :
  program_digest:string -> Solver.config -> string
(** MD5 (hex) over the snapshot version, the program digest, both strategy
    names, the refine sets (sorted), the budget and field sensitivity —
    everything that determines a solve's outcome. Used as the cache address
    and stored inside the snapshot. *)

type error =
  | Bad_magic  (** not a snapshot at all *)
  | Version_mismatch of { found : int; expected : int }
  | Truncated  (** shorter than the header-declared payload length *)
  | Checksum_mismatch  (** payload bytes corrupted *)
  | Program_mismatch of { found : string; expected : string }
      (** snapshot of a structurally different program *)
  | Key_mismatch of { found : string; expected : string }
      (** valid snapshot, but of a different configuration than requested *)
  | Malformed of string
      (** checksum passed but the payload does not parse — a format bug or
          an unversioned format change; never silently decoded *)

val error_to_string : error -> string

val encode : t -> string

val decode :
  program:Ipa_ir.Program.t ->
  ?config:Solver.config ->
  ?expect_key:string ->
  string ->
  (t, error) result
(** Reconstructs the solution against [program] (which must digest to the
    stored program digest). The stored key must equal [expect_key] and,
    given [config], [config]'s {!config_key} ({!Key_mismatch} otherwise).
    The payload does not hold the configuration itself, so the decoded
    solution records one ({!Solution.config}) only when [config] names
    it; a warm solve refuses a baseline that records none. All lazy caches
    of the returned solution start empty; everything else — including
    counters and derivation counts — is content-identical to the encoded
    solution. Slots whose sets encode to the same bytes share one set
    object (equal sets encode alike), which is read-only like every set
    of a solution. *)

(** Header-plus-prefix inspection, for cache listings: validates magic,
    version, and checksum, then reads the identifying fields without
    needing the program. *)
type info = {
  info_key : string;
  info_program_digest : string;
  info_label : string;
  info_seconds : float;
}

val inspect : string -> (info, error) result

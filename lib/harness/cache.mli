(** Content-addressed store of solved analysis snapshots.

    The harness's unit of redundant work is the shared context-insensitive
    first pass: every introspective variant, ablation setting, and
    client-driven selector of a benchmark starts from the same solve. A
    cache maps {!Ipa_core.Snapshot.config_key} — a digest of (program,
    strategies, refine sets, budget, field sensitivity, format version) —
    to the encoded snapshot, in two layers:

    - an in-memory table of encoded bytes, shared (mutex-guarded) across
      the {!Ipa_support.Domain_pool} workers of one process;
    - optionally, a directory of [<key>.snap] files surviving processes
      ([~/.cache/ipa] or [--cache-dir]).

    Hits {e decode} a fresh solution rather than sharing a live one, so
    no mutable structure ever crosses domains and a warm run is
    content-identical to a cold one (only the time columns change — a hit
    costs one decode). Snapshots that fail to decode (corrupted, older
    format version, key collision) count as {e stale}: the file is removed
    and the solve recomputed; a cache can slow an analysis down but never
    change its answer.

    Concurrent cold misses on one key may each solve (the work is wasted,
    not wrong — the solver is deterministic), but at most one task
    publishes the disk file: writers create a private temp file and
    [Unix.link] it to the final name, which fails for every racer after the
    first. No partially-written or doubly-written snapshot is ever
    observable. *)

type t

val create : ?dir:string -> ?mem_budget:int -> unit -> t
(** In-memory cache, plus a disk layer rooted at [dir] when given (the
    directory is created if missing). A [dir] that cannot be created or
    used — read-only parent, path through a regular file, missing mount —
    degrades to memory-only operation: no exception escapes, and the
    failure is counted in {!stats} as a disk error.

    [mem_budget] bounds the bytes held by the in-memory layer: whenever
    the resident total exceeds it, least-recently-used unpinned entries
    are evicted (oldest access first — deterministic for a given access
    order, since stamps are issued under the cache lock). Eviction only
    drops the in-memory copy; the disk layer still serves the snapshot,
    so a later lookup degrades to a disk hit. {!pin}ned entries are never
    evicted — the resident total exceeds the budget only when pins alone
    force it. No budget means nothing is ever evicted.
    Raises [Invalid_argument] when [mem_budget < 0]. *)

val dir : t -> string option

val mem_budget : t -> int option

val parse_budget : string -> (int, string) result
(** Parse a byte-size argument: a non-negative integer with an optional
    [k]/[m]/[g] suffix (binary multiples, case-insensitive), e.g.
    ["65536"], ["64k"], ["2M"]. *)

val pin : t -> key:string -> bool
(** Exempt the resident entry under [key] from eviction (a counted pin:
    [unpin] the same number of times to release). Returns [false] — and
    pins nothing — when [key] is not currently resident in memory. The
    query server pins the snapshot each live session is serving from. *)

val unpin : t -> key:string -> unit
(** Release one {!pin} on [key]; the budget is re-enforced immediately
    when the entry becomes unpinned. No-op for unknown or unpinned keys. *)

val resident_keys : t -> string list
(** The keys currently held by the in-memory layer, sorted. For tests and
    diagnostics. *)

val default_dir : unit -> string
(** [$XDG_CACHE_HOME/ipa], falling back to [$HOME/.cache/ipa], then
    [_ipa_cache] under the current directory. Nothing is written there
    unless a cache is explicitly created with it. *)

(** Hit/miss accounting, cumulative over the cache's lifetime and all
    domains using it. *)
type stats = {
  mem_hits : int;
  disk_hits : int;
  misses : int;  (** solves actually performed *)
  stale : int;  (** on-disk snapshots discarded (decode error or wrong key) *)
  writes : int;  (** snapshot files published to disk *)
  write_conflicts : int;
      (** publications that lost the single-writer race (work discarded) *)
  disk_errors : int;
      (** disk-layer failures degraded to memory-only operation (unusable
          cache directory, unreadable present snapshot, failed publish) *)
  evictions : int;  (** in-memory entries dropped to enforce the budget *)
  resident_bytes : int;  (** bytes currently held by the in-memory layer *)
}

val stats : t -> stats

val stats_line : t -> string
(** One-line rendering, e.g.
    ["cache: 3 mem hits, 9 disk hits, 12 misses, 0 stale, 12 writes, 0 write conflicts, 0 disk errors, 0 evictions, 81212 resident bytes"]. *)

val find_bytes : t -> key:string -> string option
(** Raw encoded snapshot bytes stored under [key], memory layer first,
    then disk (a disk hit is promoted to memory). Counts a memory/disk
    hit or a miss in {!stats}. Used by the query server to hot-load
    solutions by cache key; decode with {!Ipa_core.Snapshot.decode}. *)

val put_bytes : t -> key:string -> string -> unit
(** Store already-encoded snapshot bytes under [key]: memory layer
    (LRU-budgeted), then single-writer disk publication. Used by the
    demand evaluator to memoize solved slices under slice-derived keys —
    same publication discipline as {!solve}, but the caller owns the key,
    which need not be the snapshot's own [config_key]. *)

val solve :
  t ->
  Ipa_ir.Program.t ->
  label:string ->
  Ipa_core.Solver.config ->
  Ipa_core.Analysis.result * Ipa_core.Introspection.t
(** [solve t p ~label config] returns the solution of [config] on [p] and
    the introspection metrics over it, from the cache when possible. On a
    miss the solve runs, metrics are computed, and the snapshot is stored
    (memory, then disk). On a hit the returned [seconds] is the solve
    time the snapshot recorded, so a cached row reports what the solve
    cost, not what the decode cost. The result is content-identical
    either way. *)

val base_pass :
  t -> budget:int -> Ipa_ir.Program.t -> Ipa_core.Analysis.result * Ipa_core.Introspection.t
(** The shared first pass: [solve] with the plain context-insensitive
    configuration ([Solver.plain] with the insens strategy) and label
    ["insens"] — exactly the configuration {!Ipa_core.Analysis.run_plain}
    uses, so the key matches across every caller. *)

(** {1 Disk-store maintenance} (the [introspect cache] subcommands) *)

(** What a cached file holds. Both kinds share the key space and the
    [.snap] suffix; demand slices are told apart by their
    ["demand:"]-prefixed snapshot label. *)
type kind = Snapshot_entry | Demand_entry

val kind_name : kind -> string
(** ["snapshot"], ["demand-slice-v1"] — the names the CLI accepts for
    [cache clear --kind] and prints in [cache stats]. *)

type disk_entry = {
  entry_file : string;
  entry_bytes : int;  (** file size *)
  entry_kind : kind option;
      (** [None] when the file does not inspect as a current-version
          snapshot: foreign bytes, corruption, or an entry left by an older
          build *)
  entry_describe : string;
      (** snapshot label, or the decode error *)
  entry_seconds : float option;  (** original solve time; snapshots only *)
}

val entries : dir:string -> disk_entry list
(** One {!disk_entry} per [.snap] file, sorted by filename. *)

val clear : ?kind:kind -> dir:string -> unit -> int
(** Remove every [.snap] file — or, with [kind], only the entries that
    classify as that kind — and return how many were removed. *)

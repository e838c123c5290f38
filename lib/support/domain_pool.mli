(** A fixed pool of OCaml 5 domains with a shared task queue.

    Built for the experiment harness: independent (benchmark, flavor)
    analyses are embarrassingly parallel, and each solve is self-contained
    (no shared mutable state crosses runs), so fanning them out across
    domains changes wall-clock only. {!map} collects results {e in input
    order}, so output built from a parallel run is bit-identical to the
    sequential one.

    A pool is reusable: call {!map} any number of times before
    {!shutdown}. Workers sleep on a condition variable between batches. *)

type t

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs] worker domains ([jobs = 1] spawns none —
    every map then runs inline in the caller, the exact sequential
    baseline). Raises [Invalid_argument] when [jobs < 1]. *)

val jobs : t -> int

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map t f items] applies [f] to every element on the pool and returns
    the results in input order. If any task raises, the exception of the
    {e lowest index} is re-raised in the caller after all tasks finish —
    deterministic regardless of scheduling. Empty and singleton inputs run
    inline, as does a map issued {e from a pool worker} (a long-running
    {!submit} task may keep using the pool without deadlocking it).
    Raises [Invalid_argument] after {!shutdown}. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list

val submit : t -> (unit -> unit) -> unit
(** [submit t task] enqueues [task] to run on some worker and returns
    immediately ([jobs = 1] runs it inline — the sequential baseline). An
    exception escaping [task] is dropped: long-running tasks (the query
    server's per-connection sessions) must do their own error handling.
    {!shutdown} drains already-submitted tasks before joining the workers.
    Raises [Invalid_argument] after {!shutdown}. *)

val shutdown : t -> unit
(** Signals the workers to exit and joins them. Idempotent. Subsequent
    {!map} calls raise [Invalid_argument]. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and shuts it down on the
    way out (also on exceptions). *)

(** The long-running query service: JSON-lines (or plain text) over
    channels or a Unix-domain socket, with concurrent socket sessions,
    snapshot hot-loading, per-session limits, and live metrics.

    A session reads lines and answers one record per line, in input
    order: each line is parsed, evaluated, logged and flushed as soon as
    it is read. Besides the {!Query} forms it understands four control
    commands (sharing the quoting syntax of queries):

    {v
    load path <file>     swap in the snapshot stored at <file>
    load key <key>       swap in the snapshot stored in the cache under <key>
    metrics              answer one record of server-wide counters
    demand on|off|auto   set this session's demand-solving mode
    demand [status]      report the mode and the demand counters
    quit                 end the session
    stop                 end the session and, under a socket server,
                         stop accepting connections
    v}

    Blank lines and lines starting with [#] are ignored, so query scripts
    can be commented. A malformed line (bad quoting, unknown form, wrong
    arity, unresolved name) answers with an error record and the session
    continues — structured errors, never a disconnect.

    {!serve_socket} accepts concurrent connections, dispatching each to a
    pool worker ({!Ipa_support.Domain_pool.submit}) when the server has a
    {!Ipa_support.Domain_pool} of [jobs > 1]; engines are warmed before
    they are shared across workers. Each session holds its own {e view} of
    the loaded snapshot, so one client's [load] hot-swap never disturbs
    another mid-query, and the view {e pins} the cache entry it serves
    from so the LRU memory budget ({!Ipa_harness.Cache.create}[
    ~mem_budget]) cannot evict a snapshot a live session still reads. *)

type t

(** Demand-solving fallback policy (see {!Demand}): [Demand_off] never
    slices; [Demand_auto] serves eligible queries from slices only while
    the session's loaded solution is budget-truncated (the "no usable
    snapshot" fallback); [Demand_on] always serves eligible queries from
    slices. Demand-served answers carry [,"demand":true,"slice":N] (JSON)
    or a [ [demand slice N]] suffix (text); successful answers computed
    from a budget-truncated solution {e without} demand carry
    [,"partial":true] / [ [partial]] — the soundness marker for facts the
    slice machinery did not certify. *)
type demand_mode = Demand_off | Demand_auto | Demand_on

(** Per-session limits, enforced with structured error replies. *)
type limits = {
  max_line : int;
      (** longest accepted input line, bytes (every session discards the
          over-limit line as it streams in — memory use stays bounded —
          and answers one error record) *)
  max_queries : int option;
      (** queries + [load]s accepted per session; the line over the limit
          answers an error record and the session closes ([`Limit]).
          [quit], [stop] and [metrics] are always accepted. *)
  idle_timeout : float option;
      (** seconds a socket session may sit idle before it is closed with
          an error record ([`Timeout]); channel sessions never time out *)
}

val default_limits : limits
(** [{ max_line = 65536; max_queries = None; idle_timeout = None }]. *)

val create :
  ?cache:Ipa_harness.Cache.t ->
  ?pool:Ipa_support.Domain_pool.t ->
  ?limits:limits ->
  ?log:out_channel ->
  ?demand:Demand.t ->
  ?demand_mode:demand_mode ->
  ?query_timeout:float ->
  json:bool ->
  timings:bool ->
  program:Ipa_ir.Program.t ->
  label:string ->
  Ipa_core.Solution.t ->
  t
(** [cache] enables [load key] and snapshot pinning; [pool] serves socket
    sessions concurrently, one per worker (omitted or [jobs = 1] serves
    them one at a time; it does not affect {!session}); [timings] appends per-query latency
    to each answer record. [log] receives one JSONL record per request —
    [{"seq":N,"session":N,"q":...,"ok":...[,"us":N]}] — flushed per line
    under a lock, so concurrent sessions interleave whole records.

    [demand] enables the demand-solving fallback; [demand_mode] (default
    [Demand_off]) seeds each session's mode, adjustable per session with
    the [demand] command. [query_timeout] bounds each query's wall clock
    (seconds): an over-limit evaluation is abandoned and answered with a
    structured [timeout] error record ([,"limit_s":S] in JSON). The guard
    is SIGALRM-based and unsafe across pool workers, so it is ignored
    when a [pool] is configured.

    Raises [Invalid_argument] when [limits.max_line < 1] or
    [query_timeout <= 0]. *)

(** How a session ended. [`Quit]: [quit] or end of input. [`Stop]: [stop],
    {!request_stop}, or a shutdown signal. [`Timeout]: idle timeout.
    [`Limit]: query limit. [`Disconnect]: the client vanished mid-session. *)
type outcome = [ `Quit | `Stop | `Timeout | `Limit | `Disconnect ]

val session : t -> in_channel -> out_channel -> outcome
(** Run one session to completion, reading the channel's file descriptor
    directly (so nothing may have been read through [ic] before). Every
    answer line is flushed before the next read, so an interactive client
    sees answers promptly. Channel sessions never time out. Counters
    accumulate across sessions. *)

val serve_socket : t -> path:string -> (unit, string) result
(** Bind a Unix-domain socket at [path] and serve connections until a
    session ends with [stop], {!request_stop} is called, or SIGINT/SIGTERM
    arrives (the handlers only raise the stop flag; sessions notice within
    a fraction of a second, drain, and every exit path removes the socket
    file and restores the previous handlers). A [path] where another
    server is live — the probe connect succeeds — or that is not a socket
    is refused with [Error]; a stale socket file from an unclean shutdown
    is removed and reused. With a [pool] of [jobs > 1] connections are
    served concurrently, one pool worker per session. *)

val request_stop : t -> unit
(** Raise the stop flag: the accept loop and every blocked session wind
    down as under [stop]. Safe from any thread or signal context. *)

(** {1 Counters and metrics} (cumulative across sessions) *)

val served : t -> int
(** Lines answered — query, [load] and [metrics] records, errors included. *)

val errors : t -> int
(** Of {!served}, how many answered with an error record. *)

val loads : t -> int
(** Successful [load] commands. *)

val metrics : t -> (string * int) list
(** Everything the [metrics] command reports, in its emission order:
    [served], [errors], [loads], [sessions], [active_sessions],
    [timeouts], [line_limit_hits], [query_limit_hits], [disconnects],
    [demand_queries], [slice_nodes], [slice_hits] (all 0 without a
    {!Demand.t}), [evictions], [resident_bytes] (both 0 without a cache),
    [p50_us], [p99_us] (upper bucket bounds of a power-of-two latency
    histogram; 0 until a query is timed). The counters before the latency
    estimates are deterministic for a fixed workload regardless of
    [jobs]. *)

val metrics_line : t -> string
(** One-line plain-text rendering of {!metrics}, for end-of-serve CLI
    reporting. *)

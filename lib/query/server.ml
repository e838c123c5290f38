module Cache = Ipa_harness.Cache
module Domain_pool = Ipa_support.Domain_pool
module Snapshot = Ipa_core.Snapshot
module Solution = Ipa_core.Solution
module Timer = Ipa_support.Timer

type demand_mode = Demand_off | Demand_auto | Demand_on

let demand_mode_to_string = function
  | Demand_off -> "off"
  | Demand_auto -> "auto"
  | Demand_on -> "on"

let demand_mode_of_string = function
  | "off" -> Some Demand_off
  | "auto" -> Some Demand_auto
  | "on" -> Some Demand_on
  | _ -> None

(* ---------- per-session limits ---------- *)

type limits = {
  max_line : int;
  max_queries : int option;
  idle_timeout : float option;
}

let default_limits = { max_line = 65536; max_queries = None; idle_timeout = None }

(* ---------- latency histogram ----------

   Power-of-two microsecond buckets: bucket [i] counts evaluations whose
   latency fell in [2^i, 2^(i+1)) us (bucket 0 also holds sub-microsecond
   ones). Increments are atomic, so concurrent sessions record without a
   lock; quantiles are read as the upper bound of the bucket holding the
   requested rank — a <= 2x overestimate, stable enough for p50/p99
   serving dashboards. *)

module Hist = struct
  let n_buckets = 32

  type t = int Atomic.t array

  let create () : t = Array.init n_buckets (fun _ -> Atomic.make 0)

  let bucket_of us =
    let rec go b v = if v <= 1 || b = n_buckets - 1 then b else go (b + 1) (v lsr 1) in
    go 0 (max us 0)

  let record t us = Atomic.incr t.(bucket_of us)
  let count t = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 t

  let quantile_us t q =
    let total = count t in
    if total = 0 then 0
    else begin
      let rank = max 1 (int_of_float (ceil (q *. float_of_int total))) in
      let cum = ref 0 and found = ref (n_buckets - 1) in
      (try
         Array.iteri
           (fun i c ->
             cum := !cum + Atomic.get c;
             if !cum >= rank then begin
               found := i;
               raise Exit
             end)
           t
       with Exit -> ());
      if !found = 0 then 1 else (1 lsl (!found + 1)) - 1
    end
end

(* ---------- the server ---------- *)

type t = {
  program : Ipa_ir.Program.t;
  cache : Cache.t option;
  pool : Domain_pool.t option;
  json : bool;
  timings : bool;
  limits : limits;
  log : out_channel option;
  log_lock : Mutex.t;
  base_engine : Engine.t;
  base_label : string;
  demand : Demand.t option;
  demand_default : demand_mode;
  query_timeout : float option;  (** sequential (pool-less) sessions only *)
  served : int Atomic.t;
  errors : int Atomic.t;
  loads : int Atomic.t;
  sessions : int Atomic.t;
  active : int Atomic.t;
  timeouts : int Atomic.t;
  line_limit_hits : int Atomic.t;
  query_limit_hits : int Atomic.t;
  disconnects : int Atomic.t;
  log_seq : int Atomic.t;
  stopping : bool Atomic.t;
  hist : Hist.t;
}

let warm_if_pooled t engine = match t.pool with Some _ -> Engine.warm engine | None -> ()

let create ?cache ?pool ?(limits = default_limits) ?log ?demand
    ?(demand_mode = Demand_off) ?query_timeout ~json ~timings ~program ~label sol =
  if limits.max_line < 1 then invalid_arg "Server.create: max_line must be >= 1";
  (match query_timeout with
  | Some s when s <= 0.0 -> invalid_arg "Server.create: query timeout must be > 0"
  | _ -> ());
  let t =
    {
      program;
      cache;
      pool;
      json;
      timings;
      limits;
      log;
      log_lock = Mutex.create ();
      base_engine = Engine.create sol;
      base_label = label;
      demand;
      demand_default = demand_mode;
      (* SIGALRM-based guard — meaningless (and unsafe) across pool
         domains; only sequential sessions honor it *)
      query_timeout = (match pool with Some _ -> None | None -> query_timeout);
      served = Atomic.make 0;
      errors = Atomic.make 0;
      loads = Atomic.make 0;
      sessions = Atomic.make 0;
      active = Atomic.make 0;
      timeouts = Atomic.make 0;
      line_limit_hits = Atomic.make 0;
      query_limit_hits = Atomic.make 0;
      disconnects = Atomic.make 0;
      log_seq = Atomic.make 0;
      stopping = Atomic.make false;
      hist = Hist.create ();
    }
  in
  warm_if_pooled t t.base_engine;
  t

let served t = Atomic.get t.served
let errors t = Atomic.get t.errors
let loads t = Atomic.get t.loads
let request_stop t = Atomic.set t.stopping true

(* Deterministic counters first, then the cache gauges (deterministic for
   a fixed workload), then the timing estimates (never deterministic). *)
let metrics t =
  let cache_stats = Option.map Cache.stats t.cache in
  let of_cache f = match cache_stats with Some s -> f s | None -> 0 in
  let demand_stats = Option.map Demand.stats t.demand in
  let of_demand f = match demand_stats with Some s -> f s | None -> 0 in
  [
    ("served", Atomic.get t.served);
    ("errors", Atomic.get t.errors);
    ("loads", Atomic.get t.loads);
    ("sessions", Atomic.get t.sessions);
    ("active_sessions", Atomic.get t.active);
    ("timeouts", Atomic.get t.timeouts);
    ("line_limit_hits", Atomic.get t.line_limit_hits);
    ("query_limit_hits", Atomic.get t.query_limit_hits);
    ("disconnects", Atomic.get t.disconnects);
    ("demand_queries", of_demand (fun (s : Demand.stats) -> s.demand_queries));
    ("slice_nodes", of_demand (fun (s : Demand.stats) -> s.slice_nodes));
    ("slice_hits", of_demand (fun (s : Demand.stats) -> s.slice_hits));
    ("evictions", of_cache (fun (s : Cache.stats) -> s.evictions));
    ("resident_bytes", of_cache (fun (s : Cache.stats) -> s.resident_bytes));
    ("p50_us", Hist.quantile_us t.hist 0.50);
    ("p99_us", Hist.quantile_us t.hist 0.99);
  ]

let render_metrics t =
  let kvs = metrics t in
  if t.json then
    Printf.sprintf {|{"q":"metrics","ok":true,"kind":"metrics",%s}|}
      (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s:%d" (Engine.json_string k) v) kvs))
  else
    Printf.sprintf "metrics: %s"
      (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s %d" k v) kvs))

let metrics_line t =
  let kvs = metrics t in
  Printf.sprintf "metrics: %s"
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s %d" k v) kvs))

(* ---------- JSONL request log ---------- *)

let log_record t ~session ~q ~ok ~us =
  match t.log with
  | None -> ()
  | Some oc ->
    let seq = Atomic.fetch_and_add t.log_seq 1 in
    let us_field = match us with Some u -> Printf.sprintf ",\"us\":%d" u | None -> "" in
    let line =
      Printf.sprintf {|{"seq":%d,"session":%d,"q":%s,"ok":%b%s}|} seq session
        (Engine.json_string q) ok us_field
    in
    Mutex.lock t.log_lock;
    output_string oc line;
    output_char oc '\n';
    flush oc;
    Mutex.unlock t.log_lock

(* ---------- per-session state ---------- *)

(* Each connection gets its own view of the loaded solution, so one
   session's [load] hot-swap never disturbs another mid-query. The view
   pins the cache entry it serves from ([load key]) so the LRU budget
   cannot evict a snapshot a live session still reads. *)
type view = {
  id : int;
  mutable engine : Engine.t;
  mutable label : string;
  mutable pinned : string option;
  mutable queries : int;  (** query and [load] lines accepted (the limited kind) *)
  mutable demand : demand_mode;  (** per-session; seeded from the server default *)
}

let release_pin t view =
  match (view.pinned, t.cache) with
  | Some key, Some cache ->
    view.pinned <- None;
    Cache.unpin cache ~key
  | _ -> ()

let install t view ?key (snap : Snapshot.t) =
  let engine = Engine.create snap.solution in
  warm_if_pooled t engine;
  release_pin t view;
  (match (key, t.cache) with
  | Some key, Some cache -> if Cache.pin cache ~key then view.pinned <- Some key
  | _ -> ());
  view.engine <- engine;
  view.label <- snap.label;
  snap.label

(* Load failures carry structured (field, value) pairs — the cache key and
   the on-disk path — alongside the human message, so JSON clients can
   extract them and fall back without parsing free text. *)
let load_path t view file =
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error e -> Error (e, [ ("path", file) ])
  | bytes -> (
    match Snapshot.decode ~program:t.program bytes with
    | Ok snap -> Ok (install t view snap)
    | Error e ->
      Error
        (Printf.sprintf "%s: %s" file (Snapshot.error_to_string e), [ ("path", file) ]))

let snap_fields t key =
  ("key", key)
  ::
  (match Option.bind t.cache Cache.dir with
  | Some dir -> [ ("path", Filename.concat dir (key ^ ".snap")) ]
  | None -> [])

let load_key t view key =
  match t.cache with
  | None -> Error ("no cache configured (start the server with --cache-dir)", [])
  | Some cache -> (
    match Cache.find_bytes cache ~key with
    | None -> Error (Printf.sprintf "cache miss for key %s" key, snap_fields t key)
    | Some bytes -> (
      match Snapshot.decode ~program:t.program ~expect_key:key bytes with
      | Ok snap -> Ok (install t view ~key snap)
      | Error e ->
        Error
          ( Printf.sprintf "key %s: %s" key (Snapshot.error_to_string e),
            snap_fields t key )))

(* ---------- the line reader ----------

   Every session reads through one buffered line reader over a raw fd: it
   blocks in [select] (retrying EINTR and re-checking the server's stop
   flag every tick), closes the session after [idle_timeout] seconds
   without input (socket sessions only — channel sessions never time out),
   and enforces the line-length limit while the line streams in: an
   over-limit line is discarded, not accumulated. *)

type fd_reader = {
  fd : Unix.file_descr;
  idle_timeout : float option;
  mutable data : Bytes.t;
  mutable start : int;  (* consumed prefix *)
  mutable len : int;  (* end of valid data *)
  mutable dropped : int;  (* bytes discarded of an over-limit line in flight *)
  mutable at_eof : bool;
}

let fd_reader ?idle_timeout fd =
  { fd; idle_timeout; data = Bytes.create 8192; start = 0; len = 0; dropped = 0; at_eof = false }

type read_result =
  | Line of string
  | Too_long of int  (** the over-limit line's length; its content is dropped *)
  | Timed_out
  | Eof
  | Stopped  (** the server is shutting down *)

let select_tick = 0.25

let rec fd_next_line t r =
  let rec newline i =
    if i >= r.len then None else if Bytes.get r.data i = '\n' then Some i else newline (i + 1)
  in
  (* The next [n] buffered bytes end a line ([skip] = 1 consumes its
     newline): judge the line by its full length, bytes already discarded
     of it included. *)
  let take n ~skip =
    let total = r.dropped + n in
    let result =
      if total > t.limits.max_line then Too_long total
      else Line (Bytes.sub_string r.data r.start n)
    in
    r.dropped <- 0;
    r.start <- r.start + n + skip;
    if r.start >= r.len then begin
      r.start <- 0;
      r.len <- 0
    end;
    result
  in
  let buffered = r.len - r.start in
  match newline r.start with
  | Some nl -> take (nl - r.start) ~skip:1
  | None when buffered > t.limits.max_line ->
    (* discard the over-limit prefix; keep counting until the newline *)
    r.dropped <- r.dropped + buffered;
    r.start <- 0;
    r.len <- 0;
    fd_next_line t r
  | None when r.at_eof ->
    (* the final line may lack its newline *)
    if buffered = 0 && r.dropped = 0 then Eof else take buffered ~skip:0
  | None ->
    (* make room, then block for more input *)
    if r.len = Bytes.length r.data then
      if r.start > 0 then begin
        Bytes.blit r.data r.start r.data 0 buffered;
        r.start <- 0;
        r.len <- buffered
      end
      else begin
        let bigger = Bytes.create (2 * Bytes.length r.data) in
        Bytes.blit r.data 0 bigger 0 r.len;
        r.data <- bigger
      end;
    let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) r.idle_timeout in
    let rec wait () =
      if Atomic.get t.stopping then Stopped
      else begin
        let slice =
          match deadline with
          | None -> select_tick
          | Some d ->
            let remaining = d -. Unix.gettimeofday () in
            if remaining <= 0.0 then -1.0 else Float.min select_tick remaining
        in
        if slice < 0.0 then Timed_out
        else
          match Unix.select [ r.fd ] [] [] slice with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
          | [], _, _ -> wait ()
          | _ -> (
            match Unix.read r.fd r.data r.len (Bytes.length r.data - r.len) with
            | 0 ->
              r.at_eof <- true;
              fd_next_line t r
            | n ->
              r.len <- r.len + n;
              fd_next_line t r
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
            | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
              r.at_eof <- true;
              fd_next_line t r)
      end
    in
    wait ()

(* ---------- query evaluation ---------- *)

(* Every rendered JSON record closes with '}'; splice extra fields in
   before it (same trick Engine uses for latency). *)
let splice_json line extra = String.sub line 0 (String.length line - 1) ^ extra ^ "}"

exception Query_timed_out

(* Per-query wall-clock guard (sequential sessions only): SIGALRM raises
   at the next allocation safepoint, unwinding the evaluation. The timer
   is disarmed before the handler is restored, so no stray alarm fires. *)
let with_query_timeout secs f =
  match secs with
  | None -> Ok (f ())
  | Some s -> (
    let prev =
      Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Query_timed_out))
    in
    let disarm () =
      ignore
        (Unix.setitimer Unix.ITIMER_REAL { Unix.it_value = 0.0; it_interval = 0.0 });
      Sys.set_signal Sys.sigalrm prev
    in
    ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_value = s; it_interval = 0.0 });
    match Fun.protect ~finally:disarm f with
    | v -> Ok v
    | exception Query_timed_out -> Error `Timeout)

let demand_for (t : t) (view : view) =
  match t.demand with
  | None -> None
  | Some d -> (
    match view.demand with
    | Demand_off -> None
    | Demand_on -> Some d
    | Demand_auto ->
      (* fall back to slices only when the loaded solution was truncated *)
      if (Engine.solution view.engine).Solution.outcome = Solution.Budget_exceeded
      then Some d
      else None)

let eval_one t view ~line parsed =
  match parsed with
  | Error e -> (Engine.render_error ~json:t.json ~q:line e, true, None)
  | Ok q -> (
    let evaluate () =
      match demand_for t view with
      | Some d -> (
        match Demand.eval d q with
        | Some (s : Demand.served) -> (s.result, Some s.slice_nodes)
        | None -> (Engine.eval view.engine q, None))
      | None -> (Engine.eval view.engine q, None)
    in
    let outcome, secs =
      Timer.time (fun () -> with_query_timeout t.query_timeout evaluate)
    in
    let us = int_of_float (secs *. 1e6) in
    let latency_us = if t.timings then Some us else None in
    match outcome with
    | Error `Timeout ->
      Atomic.incr t.timeouts;
      let limit = Option.value ~default:0.0 t.query_timeout in
      let answer =
        if t.json then
          splice_json
            (Engine.render_error ~json:true ~q:line "timeout")
            (Printf.sprintf {|,"limit_s":%g|} limit)
        else Printf.sprintf "%s: error: timeout after %gs" line limit
      in
      (answer, true, Some us)
    | Ok (res, demand_nodes) ->
      let render = if t.json then Engine.render_json else Engine.render_text in
      let answer = render ?latency_us q res in
      let answer =
        match demand_nodes with
        | Some n ->
          (* answered from a solved slice: exact for the queried facts *)
          if t.json then
            splice_json answer (Printf.sprintf {|,"demand":true,"slice":%d|} n)
          else Printf.sprintf "%s [demand slice %d]" answer n
        | None ->
          (* soundness marker: a successful answer computed from a
             budget-truncated solution is a lower bound, not the fixpoint *)
          if
            Result.is_ok res
            && (Engine.solution view.engine).Solution.outcome
               = Solution.Budget_exceeded
          then
            if t.json then splice_json answer {|,"partial":true|}
            else answer ^ " [partial]"
          else answer
      in
      (answer, Result.is_error res, Some us))

exception Client_gone

(* Log one request and send its answer. *)
let reply ?us t view oc ~q ~ok answer =
  log_record t ~session:view.id ~q ~ok ~us;
  Atomic.incr t.served;
  if not ok then Atomic.incr t.errors;
  try
    output_string oc answer;
    output_char oc '\n';
    flush oc
  with Sys_error _ -> raise Client_gone

let reply_error t view oc ~q msg =
  reply t view oc ~q ~ok:false (Engine.render_error ~json:t.json ~q msg)

let answer_query t view oc line =
  let answer, is_err, us = eval_one t view ~line (Query.parse line) in
  Option.iter (Hist.record t.hist) us;
  reply ?us t view oc ~q:line ~ok:(not is_err) answer

(* ---------- the session loop ---------- *)

let respond_control t view oc ~q outcome =
  let line =
    match outcome with
    | Ok label ->
      Atomic.incr t.loads;
      if t.json then
        Printf.sprintf {|{"q":%s,"ok":true,"kind":"load","label":%s}|} (Engine.json_string q)
          (Engine.json_string label)
      else Printf.sprintf "%s: ok (%s)" q label
    | Error (e, fields) ->
      let base = Engine.render_error ~json:t.json ~q e in
      (* the human message keeps its shape; JSON replies additionally carry
         the key/path as dedicated fields so clients can fall back *)
      if t.json && fields <> [] then
        splice_json base
          (String.concat ""
             (List.map
                (fun (k, v) ->
                  Printf.sprintf ",%s:%s" (Engine.json_string k) (Engine.json_string v))
                fields))
      else base
  in
  reply t view oc ~q ~ok:(Result.is_ok outcome) line

(* [demand on|off|auto|status]: per-session control of the demand-solving
   fallback. Like [metrics], it is not counted against the query limit. *)
let respond_demand t view oc ~line args =
  let reply ~ok body = reply t view oc ~q:line ~ok body in
  let usage = "usage: demand on|off|auto|status" in
  let status () =
    let mode = demand_mode_to_string view.demand in
    let available = t.demand <> None in
    let st =
      Option.value
        (Option.map Demand.stats t.demand)
        ~default:
          { Demand.demand_queries = 0; slice_hits = 0; slice_nodes = 0; slice_derivations = 0 }
    in
    if t.json then
      Printf.sprintf
        {|{"q":%s,"ok":true,"kind":"demand","mode":%s,"available":%b,"demand_queries":%d,"slice_hits":%d,"slice_nodes":%d}|}
        (Engine.json_string line) (Engine.json_string mode) available
        st.Demand.demand_queries st.Demand.slice_hits st.Demand.slice_nodes
    else
      Printf.sprintf
        "%s: mode %s, available %b, demand_queries %d, slice_hits %d, slice_nodes %d"
        line mode available st.Demand.demand_queries st.Demand.slice_hits
        st.Demand.slice_nodes
  in
  match args with
  | [] | [ "status" ] -> reply ~ok:true (status ())
  | [ arg ] -> (
    match (demand_mode_of_string arg, t.demand) with
    | Some mode, Some _ ->
      view.demand <- mode;
      reply ~ok:true
        (if t.json then
           Printf.sprintf {|{"q":%s,"ok":true,"kind":"demand","mode":%s}|}
             (Engine.json_string line)
             (Engine.json_string (demand_mode_to_string mode))
         else Printf.sprintf "%s: ok (mode %s)" line (demand_mode_to_string mode))
    | Some _, None ->
      reply_error t view oc ~q:line "demand solving unavailable (start with --demand)"
    | None, _ -> reply_error t view oc ~q:line usage)
  | _ -> reply_error t view oc ~q:line usage

type outcome = [ `Quit | `Stop | `Timeout | `Limit | `Disconnect ]

let run_session t reader oc : outcome =
  let view =
    {
      id = Atomic.fetch_and_add t.sessions 1;
      engine = t.base_engine;
      label = t.base_label;
      pinned = None;
      queries = 0;
      demand = t.demand_default;
    }
  in
  Atomic.incr t.active;
  Fun.protect
    ~finally:(fun () ->
      release_pin t view;
      Atomic.decr t.active)
  @@ fun () ->
  let finished = ref None in
  let finish o = finished := Some o in
  (* The query/load limit is checked before the line is accepted, so
     [quit], [stop] and [metrics] always work on an exhausted session. *)
  let admit_query line k =
    match t.limits.max_queries with
    | Some m when view.queries >= m ->
      Atomic.incr t.query_limit_hits;
      let msg = Printf.sprintf "query limit reached (%d per session); closing session" m in
      reply_error t view oc ~q:line msg;
      finish `Limit
    | _ ->
      view.queries <- view.queries + 1;
      k ()
  in
  (try
     while !finished = None do
       if Atomic.get t.stopping then finish `Stop
       else
         match fd_next_line t reader with
         | Eof -> finish `Quit
         | Stopped -> finish `Stop
         | Timed_out ->
           Atomic.incr t.timeouts;
           let msg =
             Printf.sprintf "idle timeout (%gs); closing session"
               (Option.value ~default:0.0 reader.idle_timeout)
           in
           reply_error t view oc ~q:"<idle>" msg;
           finish `Timeout
         | Too_long len ->
           Atomic.incr t.line_limit_hits;
           let msg =
             Printf.sprintf "line exceeds limit (%d > %d bytes); line dropped" len
               t.limits.max_line
           in
           reply_error t view oc ~q:"<oversized line>" msg
         | Line line -> (
           let line = String.trim line in
           if line = "" || line.[0] = '#' then ()
           else
             match Query.tokens line with
             | Ok [ "quit" ] -> finish `Quit
             | Ok [ "stop" ] -> finish `Stop
             | Ok [ "metrics" ] -> reply t view oc ~q:"metrics" ~ok:true (render_metrics t)
             | Ok ("metrics" :: _) -> reply_error t view oc ~q:line "usage: metrics"
             | Ok ("demand" :: args) -> respond_demand t view oc ~line args
             | Ok ("load" :: args) ->
               admit_query line (fun () ->
                   match args with
                   | [ "path"; file ] ->
                     respond_control t view oc
                       ~q:(Printf.sprintf "load path %s" (Query.quote file))
                       (load_path t view file)
                   | [ "key"; key ] ->
                     respond_control t view oc
                       ~q:(Printf.sprintf "load key %s" (Query.quote key))
                       (load_key t view key)
                   | _ ->
                     respond_control t view oc ~q:line
                       (Error ("usage: load path <file> | load key <key>", [])))
             | Ok _ | Error _ ->
               (* a query line; tokenizer errors resurface from [Query.parse] *)
               admit_query line (fun () -> answer_query t view oc line))
     done
   with
  | Client_gone ->
    Atomic.incr t.disconnects;
    finish `Disconnect
  | End_of_file | Sys_error _ ->
    Atomic.incr t.disconnects;
    finish `Disconnect);
  Option.get !finished

(* The channel's descriptor is read directly, so nothing may have been read
   through [ic] before the session starts. *)
let session t ic oc = run_session t (fd_reader (Unix.descr_of_in_channel ic)) oc

(* ---------- Unix-domain socket front end ---------- *)

(* Refuse to clobber a socket path another live server owns: a connect
   probe that succeeds means someone is accepting there. ECONNREFUSED (or
   a vanished path) means the file is a stale leftover of an unclean
   shutdown and is safe to remove. *)
let probe_socket_path path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> Ok ()
  | exception Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "%s: cannot stat: %s" path (Unix.error_message e))
  | { Unix.st_kind; _ } when st_kind <> Unix.S_SOCK ->
    (* never unlink a path that is not a socket — it is someone's file *)
    Error (Printf.sprintf "%s: exists and is not a socket" path)
  | _ -> begin
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let verdict =
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> Error (Printf.sprintf "%s: another server is live on this socket" path)
      | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> Ok `Stale
      | exception Unix.Unix_error (Unix.ENOENT, _, _) -> Ok `Gone
      | exception Unix.Unix_error (e, _, _) ->
        Error (Printf.sprintf "%s: cannot probe socket: %s" path (Unix.error_message e))
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    match verdict with
    | Ok `Stale -> (
      match Unix.unlink path with
      | () -> Ok ()
      | exception Unix.Unix_error (e, _, _) ->
        Error (Printf.sprintf "%s: cannot remove stale socket: %s" path (Unix.error_message e)))
    | Ok `Gone -> Ok ()
    | Error _ as e -> e
  end

let accept_tick = 0.25

let handle_connection t conn =
  let oc = Unix.out_channel_of_descr conn in
  let outcome =
    try run_session t (fd_reader ?idle_timeout:t.limits.idle_timeout conn) oc
    with _ ->
      Atomic.incr t.disconnects;
      `Disconnect
  in
  (try flush oc with Sys_error _ -> ());
  (try Unix.close conn with Unix.Unix_error _ -> ());
  if outcome = `Stop then Atomic.set t.stopping true

let serve_socket t ~path =
  match probe_socket_path path with
  | Error _ as e -> e
  | Ok () ->
    let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (* Graceful shutdown: SIGINT/SIGTERM only raise the stop flag; the
       accept loop and every blocked session notice it within a tick, so
       all exit paths run the [finally] cleanup below and no stale socket
       file survives a signal. SIGPIPE must not kill the process — a write
       to a dropped connection surfaces as an error the session handles. *)
    let stop_signal _ = Atomic.set t.stopping true in
    let installed =
      List.filter_map
        (fun sg ->
          match Sys.signal sg (Sys.Signal_handle stop_signal) with
          | prev -> Some (sg, prev)
          | exception (Sys_error _ | Invalid_argument _) -> None)
        [ Sys.sigint; Sys.sigterm ]
    in
    let sigpipe =
      match Sys.signal Sys.sigpipe Sys.Signal_ignore with
      | prev -> Some prev
      | exception (Sys_error _ | Invalid_argument _) -> None
    in
    (* Bind under a temporary name and rename into place only after
       [listen]: the advertised path never exists in a bound-but-not-yet-
       listening state, so a concurrent [probe_socket_path] cannot mistake
       a starting server for a stale socket and unlink it. Rename keeps the
       binding — unix(7) sockets resolve through the path to the inode. *)
    let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
    let bound = ref None in
    Fun.protect
      ~finally:(fun () ->
        (try Unix.close sock with Unix.Unix_error _ -> ());
        (match !bound with
        | Some p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
        | None -> ());
        List.iter (fun (sg, prev) -> try Sys.set_signal sg prev with _ -> ()) installed;
        match sigpipe with
        | Some prev -> ( try Sys.set_signal Sys.sigpipe prev with _ -> ())
        | None -> ())
    @@ fun () ->
    (try Unix.unlink tmp with Unix.Unix_error _ -> ());
    match Unix.bind sock (Unix.ADDR_UNIX tmp) with
    | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "%s: cannot bind: %s" path (Unix.error_message e))
    | () -> (
      bound := Some tmp;
      Unix.listen sock 64;
      match Unix.rename tmp path with
      | exception Unix.Unix_error (e, _, _) ->
        Error (Printf.sprintf "%s: cannot publish socket: %s" path (Unix.error_message e))
      | () ->
        bound := Some path;
        while not (Atomic.get t.stopping) do
          match Unix.select [ sock ] [] [] accept_tick with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | [], _, _ -> ()
          | _ -> (
            match Unix.accept sock with
            | exception Unix.Unix_error _ -> ()
            | conn, _ -> (
              match t.pool with
              | Some p when Domain_pool.jobs p > 1 ->
                Domain_pool.submit p (fun () -> handle_connection t conn)
              | _ -> handle_connection t conn))
        done;
        (* Drain: sessions poll the stop flag every [select_tick], so active
           connections wind down promptly; wait for the last one. *)
        while Atomic.get t.active > 0 do
          Unix.sleepf 0.01
        done;
        Ok ())

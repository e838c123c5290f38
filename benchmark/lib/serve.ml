(* serve-swap and serve-demand: query serving over a Unix socket.

   The server is this benchmark's own executable re-run as a child process
   ([serve-child]), serving with a pool of two domains, so its memory and
   scheduling are its own. One generator thread drives two connections in
   a closed loop: each connection sends its next request only when the
   previous reply has arrived, like the IDE and CI tools that call the
   service. Every reply is checked afterwards against an in-process
   computation of the same answer.

   serve-swap runs one server for the whole run. serve-demand runs
   sessions: each starts a fresh server, whose memo is empty, and sends
   [session_requests] requests on each connection. A session is the life
   of a demand memo over a working set, so its first sights (slice solves)
   and repeats (memo hits) are in the measured time in the proportion a
   session has them; an unending server would only ever measure hits, and
   its memory would keep growing with the time it has served.

   Traced runs first replay the same request streams in-process, calling
   each layer's public functions under spans (cache lookup, snapshot
   decode, engine build and evaluation, demand evaluation), then run the
   socket loop for the rest of the time; the server's overhead is the gap
   between a request's round trip and its in-process evaluation. *)

module Solution = Ipa_core.Solution
module Solver = Ipa_core.Solver
module Snapshot = Ipa_core.Snapshot
module Flavors = Ipa_core.Flavors
module Cache = Ipa_harness.Cache
module Engine = Ipa_query.Engine
module Demand = Ipa_query.Demand
module Server = Ipa_query.Server
module Q = Ipa_query.Query
open Common

type kind = Swap | Demand_mode

let object_sens = Flavors.Object_sens { depth = 2; heap = 1 }
let connections = 2

(* A [load key] swap every this many requests per connection. *)
let swap_every = 100

(* Requests per connection in one serve-demand session. *)
let session_requests ctx = if ctx.quick then 300 else 3000

(* Counts in traced runs are taken over this many replayed requests (for
   serve-demand: one session), so they repeat exactly whatever the
   machine's speed. *)
let count_at ctx = function Swap -> 2000 | Demand_mode -> connections * session_requests ctx

(* The in-process replay stops at this many requests (or at its time), so
   the trace stays a few megabytes. *)
let replay_cap = 20_000

type child = { pid : int; out : Unix.file_descr; socket : string; mutable report : string option }

type state = {
  dir : string;
  program : Ipa_ir.Program.t;
  keys : string array;  (** swap: the two snapshots' keys; demand: the truncated solve's *)
  labels : string array;
  solutions : Solution.t array;  (** the solves behind [keys] *)
  full : Solution.t option;  (** demand: the unbudgeted solve answers are checked against *)
  mem_budget : int option;
  child : child;  (** swap: the server of the whole run; demand: the first session's *)
}

(* ---------- the server child ---------- *)

let cache_dir dir = Filename.concat dir "cache"
let program_file dir = Filename.concat dir "program.jir"

let child_main args =
  let rec opts acc = function
    | "--demand" :: rest -> opts (("--demand", "") :: acc) rest
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> opts ((k, v) :: acc) rest
    | [] -> acc
    | a :: _ -> failwith ("serve-child: unexpected argument " ^ a)
  in
  let opts = opts [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> failwith ("serve-child: missing " ^ k) in
  let dir = get "--dir" and key = get "--key" and socket = get "--socket" in
  let program =
    match Ipa_frontend.Jir.parse_file (program_file dir) with
    | Ok p -> p
    | Error e -> failwith (Ipa_frontend.Jir.error_to_string e)
  in
  let mem_budget = Option.map int_of_string (List.assoc_opt "--mem-budget" opts) in
  let cache = Cache.create ~dir:(cache_dir dir) ?mem_budget () in
  let snap =
    match Cache.find_bytes cache ~key with
    | None -> failwith "serve-child: base snapshot missing from the cache"
    | Some bytes -> (
      match Snapshot.decode ~program ~expect_key:key bytes with
      | Ok s -> s
      | Error e -> failwith (Snapshot.error_to_string e))
  in
  let demand =
    if List.mem_assoc "--demand" opts then
      Some
        (Demand.create ~warm:true ~program ~label:snap.label
           (Solver.plain program (Flavors.strategy program object_sens)))
    else None
  in
  Ipa_support.Domain_pool.with_pool ~jobs:2 (fun pool ->
      let server =
        Server.create ~cache ~pool ?demand ~demand_mode:Server.Demand_auto ~json:false ~timings:false
          ~program ~label:snap.label snap.solution
      in
      (* never outlive the benchmark process *)
      let ppid = Unix.getppid () in
      ignore
        (Thread.create
           (fun () ->
             while true do
               Unix.sleepf 0.5;
               if Unix.getppid () <> ppid then Server.request_stop server
             done)
           ());
      match Server.serve_socket server ~path:socket with
      | Error e ->
        prerr_endline ("serve-child: " ^ e);
        exit 1
      | Ok () ->
        print_endline (Server.metrics_line server);
        Printf.printf "peak_kb %d\n%!" (vmhwm_kb "self"))

let connect child =
  let deadline = Trace.clock () +. 60.0 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX child.socket) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      if Trace.clock () > deadline then failwith "server did not start listening";
      (match Unix.waitpid [ Unix.WNOHANG ] child.pid with
      | 0, _ -> ()
      | _ -> failwith "server exited before listening");
      Unix.sleepf 0.01;
      go ()
  in
  go ()

(* A server started and listening. *)
let start_server ~dir ~key ~mem_budget ~demand =
  let socket = Filename.concat dir "serve.sock" in
  let r, w = Unix.pipe ~cloexec:true () in
  let args =
    [ Sys.executable_name; "serve-child"; "--dir"; dir; "--key"; key; "--socket"; socket ]
    @ (match mem_budget with Some b -> [ "--mem-budget"; string_of_int b ] | None -> [])
    @ if demand then [ "--demand" ] else []
  in
  let pid = Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin w Unix.stderr in
  Unix.close w;
  let child = { pid; out = r; socket; report = None } in
  Unix.close (connect child);
  child

(* Everything the child writes to its stdout, up to [timeout] seconds. *)
let read_all fd ~timeout =
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let deadline = Trace.clock () +. timeout in
  let rec go () =
    let left = deadline -. Trace.clock () in
    if left > 0.0 then
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> ()
      | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  Buffer.contents buf

(* Ask the child to stop, collect its report, and reap it; once stopped,
   the same report again. *)
let stop child =
  match child.report with
  | Some report -> report
  | None ->
    (match connect child with
    | fd ->
      let oc = Unix.out_channel_of_descr fd in
      (try
         output_string oc "stop\n";
         flush oc
       with Sys_error _ -> ());
      Unix.close fd
    | exception Failure _ -> ());
    let report = read_all child.out ~timeout:30.0 in
    Unix.close child.out;
    (match Unix.waitpid [ Unix.WNOHANG ] child.pid with
    | 0, _ ->
      (try Unix.kill child.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] child.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ());
    child.report <- Some report;
    report

(* ---------- set-up ---------- *)

let scale ctx = function Swap -> if ctx.quick then 0.02 else 0.2 | Demand_mode -> if ctx.quick then 0.05 else 0.3
let bench_name = function Swap -> "jython" | Demand_mode -> "antlr"

let encode program config label (sol : Solution.t) =
  let program_digest = Snapshot.digest_program program in
  let key = Snapshot.config_key ~program_digest config in
  (key, Snapshot.encode { Snapshot.key; program_digest; label; seconds = 0.0; solution = sol; metrics = None })

let setup_state ctx kind () =
  let dir = fresh_dir ctx (match kind with Swap -> "serve-swap" | Demand_mode -> "serve-demand") in
  let text = Inputs.jir ~scale:(scale ctx kind) (bench_name kind) in
  Out_channel.with_open_text (program_file dir) (fun oc -> output_string oc text);
  let program =
    Trace.span ~layer:"frontend" "Jir.parse_string" (fun () -> Inputs.parse text)
  in
  let cache = Cache.create ~dir:(cache_dir dir) () in
  let solve config = Trace.span ~layer:"solver" "Solver.run" (fun () -> Solver.run program config) in
  let publish config label sol =
    let key, bytes = Trace.span ~layer:"snapshot" "Snapshot.encode" (fun () -> encode program config label sol) in
    Trace.span ~layer:"cache" "Cache.put_bytes" (fun () -> Cache.put_bytes cache ~key bytes);
    (key, String.length bytes)
  in
  let keys, labels, solutions, sizes, full =
    match kind with
    | Swap ->
      let solved =
        List.map
          (fun flavor ->
            let config = Solver.plain program (Flavors.strategy program flavor) in
            let sol = solve config in
            let label = Flavors.to_string flavor in
            let key, size = publish config label sol in
            (key, label, sol, size))
          [ Flavors.Insensitive; object_sens ]
      in
      ( Array.of_list (List.map (fun (k, _, _, _) -> k) solved),
        Array.of_list (List.map (fun (_, l, _, _) -> l) solved),
        Array.of_list (List.map (fun (_, _, s, _) -> s) solved),
        List.map (fun (_, _, _, n) -> n) solved,
        None )
    | Demand_mode ->
      let strategy = Flavors.strategy program object_sens in
      let full = solve (Solver.plain program strategy) in
      let config = Solver.plain program ~budget:(max 1 (full.derivations / 10)) strategy in
      let truncated = solve config in
      let key, size = publish config "2objH-truncated" truncated in
      ([| key |], [| "2objH-truncated" |], [| truncated |], [ size ], Some full)
  in
  (* below the two snapshots together: swaps evict and re-read from disk *)
  let mem_budget =
    match kind with
    | Swap -> Some (List.fold_left max 0 sizes + (List.fold_left min max_int sizes / 2))
    | Demand_mode -> None
  in
  let child = start_server ~dir ~key:keys.(0) ~mem_budget ~demand:(kind = Demand_mode) in
  { dir; program; keys; labels; solutions; full; mem_budget; child }

let dispose st =
  ignore (stop st.child);
  remove_tree st.dir

(* ---------- expected answers ---------- *)

let memo_render () =
  let tbl = Hashtbl.create 4096 in
  fun engine k (q, line) ->
    match Hashtbl.find_opt tbl (k, line) with
    | Some s -> s
    | None ->
      let s = Engine.render_text q (Engine.eval engine q) in
      Hashtbl.add tbl (k, line) s;
      s

let warm_engine sol =
  let e = Engine.create sol in
  Engine.warm e;
  e

(* Splits the demand framing off a reply: [Some body] when it was served
   from a slice. *)
let strip_demand reply =
  match String.rindex_opt reply '[' with
  | Some i
    when i > 0
         && String.length reply > i + 14
         && String.sub reply (i - 1) 15 = " [demand slice "
         && reply.[String.length reply - 1] = ']' ->
    Some (String.sub reply 0 (i - 1))
  | _ -> None

(* [expectation st kind ()] is a fresh checker for one connection: fed
   that connection's requests in order, it says whether each reply is the
   in-process answer (for demand, once the framing is stripped). *)
let expectation st kind =
  let render = memo_render () in
  match kind with
  | Swap ->
    let engines = Array.map warm_engine st.solutions in
    fun () ->
      let current = ref 0 in
      fun req reply ->
        (match req with
        | Inputs.Load k ->
          current := k;
          reply = Printf.sprintf "load key %s: ok (%s)" (Q.quote st.keys.(k)) st.labels.(k)
        | Inputs.Query (q, line) -> reply = render engines.(!current) !current (q, line))
  | Demand_mode ->
    let full = warm_engine (Option.get st.full) in
    fun () req reply ->
      match (req, strip_demand reply) with
      | Inputs.Query (q, line), Some body -> body = render full 0 (q, line)
      | _ -> false

let streams ctx st kind =
  let corpus =
    match kind with
    | Swap -> Inputs.swap_corpus ~seed:ctx.seed st.program
    | Demand_mode -> Inputs.demand_corpus ~seed:ctx.seed st.program
  in
  Array.init connections (fun conn ->
      Inputs.stream ~seed:ctx.seed ~corpus ~conn ~n_keys:(Array.length st.keys)
        ~swap_every:(match kind with Swap -> swap_every | Demand_mode -> 0))

(* ---------- the closed loop over the socket ---------- *)

type exchange = { req : Inputs.request; reply : string option; latency : float }

type conn = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  stream : Inputs.stream;
  mutable pending : Inputs.request;
  mutable sent_at : float;
  mutable sent : int;
  mutable log : exchange list;
  mutable open_ : bool;
}

(* One connection per stream to [child], each sending its next request
   when the last reply arrives, until [deadline] or until each has sent
   [limit] requests. Returns each connection's exchanges, in order, and
   the seconds the loop took. *)
let live st child streams ~deadline ~limit =
  let conns =
    Array.map
      (fun stream ->
        let fd = connect child in
        {
          fd;
          ic = Unix.in_channel_of_descr fd;
          oc = Unix.out_channel_of_descr fd;
          stream;
          pending = Inputs.Load 0;
          sent_at = 0.0;
          sent = 0;
          log = [];
          open_ = true;
        })
      streams
  in
  let send c =
    c.pending <- Inputs.next_request c.stream;
    c.sent <- c.sent + 1;
    c.sent_at <- Trace.clock ();
    output_string c.oc (Inputs.request_line ~keys:st.keys c.pending);
    output_char c.oc '\n';
    flush c.oc
  in
  let more c = match limit with Some l -> c.sent < l | None -> true in
  let t0 = Trace.clock () in
  Array.iter send conns;
  while Array.exists (fun c -> c.open_) conns do
    let fds = Array.to_list conns |> List.filter (fun c -> c.open_) |> List.map (fun c -> c.fd) in
    match Unix.select fds [] [] 30.0 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ ->
      Array.iter
        (fun c ->
          if c.open_ then begin
            c.log <- { req = c.pending; reply = None; latency = 30.0 } :: c.log;
            c.open_ <- false
          end)
        conns
    | ready, _, _ ->
      Array.iter
        (fun c ->
          if c.open_ && List.mem c.fd ready then begin
            let reply = try Some (input_line c.ic) with End_of_file | Sys_error _ -> None in
            let now = Trace.clock () in
            c.log <- { req = c.pending; reply; latency = now -. c.sent_at } :: c.log;
            if reply <> None && now < deadline && more c then send c else c.open_ <- false
          end)
        conns
  done;
  let elapsed = Trace.clock () -. t0 in
  Array.iter
    (fun c ->
      (try
         output_string c.oc "quit\n";
         flush c.oc
       with Sys_error _ -> ());
      Unix.close c.fd)
    conns;
  (Array.map (fun c -> List.rev c.log) conns, elapsed)

(* What one server served: the exchanges per connection, the measured
   seconds, and the server's own report (its [metrics] counters and
   peak_kb). *)
type served = { logs : exchange list array; elapsed : float; server : (string * int) list }

let parse_metrics report =
  List.concat_map
    (fun line ->
      match String.index_opt line ':' with
      | Some i when String.sub line 0 i = "metrics" ->
        String.split_on_char ',' (String.sub line (i + 1) (String.length line - i - 1))
        |> List.filter_map (fun kv ->
               match String.split_on_char ' ' (String.trim kv) with
               | [ k; v ] -> Option.map (fun v -> (k, v)) (int_of_string_opt v)
               | _ -> None)
      | _ -> (
        match String.split_on_char ' ' line with
        | [ "peak_kb"; v ] -> Option.to_list (Option.map (fun v -> ("peak_kb", v)) (int_of_string_opt v))
        | _ -> []))
    (String.split_on_char '\n' report)

let serve_with st child streams ~deadline ~limit =
  let logs, elapsed =
    Fun.protect ~finally:(fun () -> ignore (stop child)) (fun () -> live st child streams ~deadline ~limit)
  in
  { logs; elapsed; server = parse_metrics (stop child) }

(* serve-swap: the set-up's server until the run's time is up.
   serve-demand: sessions until the time is up, the first on the set-up's
   server and each later one on a fresh server; a session in progress is
   finished. Starting a server is set-up work, measured in [setup_s]; the
   later sessions' servers start outside the measured time. *)
let serve ctx st kind streams ~duration =
  let t0 = Trace.clock () in
  match kind with
  | Swap -> [ serve_with st st.child streams ~deadline:(t0 +. duration) ~limit:None ]
  | Demand_mode ->
    let session child = serve_with st child streams ~deadline:infinity ~limit:(Some (session_requests ctx)) in
    let rec go acc =
      if Trace.clock () -. t0 >= duration then List.rev acc
      else go (session (start_server ~dir:st.dir ~key:st.keys.(0) ~mem_budget:st.mem_budget ~demand:true) :: acc)
    in
    go [ session st.child ]

(* ---------- the in-process replay (traced runs) ---------- *)

let form_name = function
  | Q.Pts _ -> "pts"
  | Q.Pointed_by _ -> "pointed-by"
  | Q.Alias _ -> "alias"
  | Q.Callees _ -> "callees"
  | Q.Callers _ -> "callers"
  | Q.Reach _ -> "reach"
  | Q.Fieldpts _ -> "fieldpts"
  | Q.Taint _ -> "taint"
  | Q.Stats -> "stats"

type replay = {
  mutable n : int;
  query_s : (string, float list) Hashtbl.t;  (** per form *)
  mutable find_s : float list;
  mutable decode_s : float list;
  mutable build_s : float list;  (** Engine.create + Engine.warm *)
  mutable decoded_bytes : int;
  mutable hit_s : float list;
  mutable miss_s : float list;
  mutable evictions : int;
  mutable demand_at_prefix : Demand.stats option;
}

let timed f =
  let t0 = Trace.clock () in
  let v = f () in
  (v, Trace.clock () -. t0)

let replay ctx st kind ~duration =
  let r =
    {
      n = 0; query_s = Hashtbl.create 16; find_s = []; decode_s = []; build_s = []; decoded_bytes = 0;
      hit_s = []; miss_s = []; evictions = 0; demand_at_prefix = None;
    }
  in
  let cache = Cache.create ~dir:(cache_dir st.dir) ?mem_budget:st.mem_budget () in
  let base =
    match Snapshot.decode ~program:st.program (Option.get (Cache.find_bytes cache ~key:st.keys.(0))) with
    | Ok s -> warm_engine s.solution
    | Error e -> failwith (Snapshot.error_to_string e)
  in
  (* demand: a fresh memo per session, as each session's server has *)
  let demand = ref None in
  let session = connections * session_requests ctx in
  let demand_stats () = Option.map Demand.stats !demand in
  let streams = streams ctx st kind in
  let expect = expectation st kind in
  let checks = Array.map (fun _ -> expect ()) streams in
  let views = Array.map (fun _ -> (ref base, ref None)) streams in
  let record form secs =
    Hashtbl.replace r.query_s form (secs :: Option.value ~default:[] (Hashtbl.find_opt r.query_s form))
  in
  let deadline = Trace.clock () +. duration in
  while (Trace.clock () < deadline && r.n < replay_cap) || r.n < connections do
    if kind = Demand_mode && r.n mod session = 0 then
      demand :=
        Some
          (Demand.create ~warm:true ~program:st.program ~label:st.labels.(0)
             (Solver.plain st.program (Flavors.strategy st.program object_sens)));
    let c = r.n mod connections in
    let req = Inputs.next_request streams.(c) in
    Trace.set_unit r.n;
    let engine, pinned = views.(c) in
    let (), _ =
      timed_unit (fun () ->
          match (kind, req) with
          | _, Inputs.Load k ->
            let key = st.keys.(k) in
            let bytes, s1 = timed (fun () -> Trace.span ~layer:"cache" "Cache.find_bytes" (fun () -> Cache.find_bytes cache ~key)) in
            let bytes = Option.get bytes in
            let snap, s2 =
              timed (fun () ->
                  Trace.span ~layer:"snapshot" "Snapshot.decode" (fun () ->
                      Snapshot.decode ~program:st.program ~expect_key:key bytes))
            in
            let snap = match snap with Ok s -> s | Error e -> failwith (Snapshot.error_to_string e) in
            let e, s3 =
              timed (fun () ->
                  let e = Trace.span ~layer:"engine" "Engine.create" (fun () -> Engine.create snap.solution) in
                  Trace.span ~layer:"engine" "Engine.warm" (fun () -> Engine.warm e);
                  e)
            in
            (* pin the serving snapshot as the server's sessions do *)
            Option.iter (fun k -> Cache.unpin cache ~key:k) !pinned;
            pinned := if Cache.pin cache ~key then Some key else None;
            engine := e;
            r.find_s <- s1 :: r.find_s;
            r.decode_s <- s2 :: r.decode_s;
            r.build_s <- s3 :: r.build_s;
            r.decoded_bytes <- r.decoded_bytes + String.length bytes;
            untimed (fun () ->
                check (checks.(c) req (Printf.sprintf "load key %s: ok (%s)" (Q.quote key) snap.label))
                  "%s replay: load of %s answered %s" (bench_name kind) key snap.label)
          | Swap, Inputs.Query (q, line) ->
            let res, s =
              timed (fun () -> Trace.span ~layer:"engine" "Engine.eval" (fun () -> Engine.eval !engine q))
            in
            record (form_name q) s;
            untimed (fun () ->
                check (checks.(c) req (Engine.render_text q res)) "serve-swap replay: wrong answer to %s" line)
          | Demand_mode, Inputs.Query (q, line) ->
            let served, s =
              timed (fun () ->
                  Trace.span ~layer:"demand" "Demand.eval" (fun () -> Demand.eval (Option.get !demand) q))
            in
            record (form_name q) s;
            untimed (fun () ->
                match served with
                | None -> fail "serve-demand replay: %s not demand-eligible" line
                | Some sv ->
                  if sv.hit then r.hit_s <- s :: r.hit_s else r.miss_s <- s :: r.miss_s;
                  check
                    (checks.(c) req
                       (Printf.sprintf "%s [demand slice %d]" (Engine.render_text q sv.result) sv.slice_nodes))
                    "serve-demand replay: wrong answer to %s" line))
    in
    r.n <- r.n + 1;
    if r.n = count_at ctx kind then begin
      r.evictions <- (Cache.stats cache).evictions;
      r.demand_at_prefix <- demand_stats ()
    end
  done;
  if r.n < count_at ctx kind then begin
    r.evictions <- (Cache.stats cache).evictions;
    r.demand_at_prefix <- demand_stats ()
  end;
  r

(* ---------- the workload ---------- *)

let run ctx kind =
  let setup_s, st = setup ctx ~dispose (setup_state ctx kind) in
  let name = bench_name kind in
  Fun.protect ~finally:(fun () ->
      ignore (stop st.child);
      try remove_tree st.dir with Sys_error _ | Unix.Unix_error _ -> ())
  @@ fun () ->
  let replayed =
    if ctx.trace then Some (replay ctx st kind ~duration:(ctx.seconds /. 2.0)) else None
  in
  let served =
    serve ctx st kind (streams ctx st kind) ~duration:(if ctx.trace then ctx.seconds /. 2.0 else ctx.seconds)
  in
  let logs = Array.init connections (fun c -> List.concat_map (fun s -> s.logs.(c)) served) in
  let elapsed = List.fold_left (fun t s -> t +. s.elapsed) 0.0 served in
  let expect = expectation st kind in
  let mismatches = ref 0 in
  untimed (fun () ->
      Array.iteri
        (fun c log ->
          let ok = expect () in
          List.iter
            (fun x ->
              let good = match x.reply with Some reply -> ok x.req reply | None -> false in
              if not good then begin
                incr mismatches;
                if !mismatches <= 3 then
                  fail "%s: connection %d: %S answered %s" name c
                    (Inputs.request_line ~keys:st.keys x.req)
                    (match x.reply with Some r -> Printf.sprintf "%S" r | None -> "nothing")
              end)
            log)
        logs);
  check (!mismatches = 0) "%s: %d replies differ from the in-process answers" name !mismatches;
  let all = List.concat (Array.to_list logs) in
  let is_query x = match x.req with Inputs.Query _ -> true | Inputs.Load _ -> false in
  let lat f = Array.of_list (List.filter_map (fun x -> if f x then Some x.latency else None) all) in
  let queries = lat is_query and loads = lat (fun x -> not (is_query x)) in
  let attempted = List.length all in
  (* the servers' counters summed; their gauges (peak memory, the
     histogram's quantiles) the median over the servers *)
  let server k = List.map (fun s -> float_of_int (Option.value ~default:0 (List.assoc_opt k s.server))) served in
  let sum k = List.fold_left ( +. ) 0.0 (server k) in
  let median k = Stat.median (Array.of_list (server k)) in
  let p q xs = if Array.length xs = 0 then 0.0 else Stat.percentile xs q in
  let live_query_p50 = p 0.5 queries in
  let spans = if ctx.trace then Trace.spans () else [] in
  let layer_values, layer_extra =
    match replayed with
    | None -> ([], [])
    | Some r ->
      let all_queries = Hashtbl.fold (fun _ l acc -> l @ acc) r.query_s [] |> Array.of_list in
      let evals = Array.length all_queries in
      let eval_time = Array.fold_left ( +. ) 0.0 all_queries in
      let replay_p50 = p 0.5 all_queries in
      let mb = 1024.0 *. 1024.0 in
      let slice_derivations, slice_nodes =
        match r.demand_at_prefix with
        | Some ds -> (ds.slice_derivations, ds.slice_nodes)
        | None -> (0, 0)
      in
      let hits = List.length r.hit_s and misses = List.length r.miss_s in
      let arr l = Array.of_list l in
      ( [
          ("cache.evictions", float_of_int r.evictions);
          ( "snapshot.decode_mb_per_s",
            let t = List.fold_left ( +. ) 0.0 r.decode_s in
            if t > 0.0 then float_of_int r.decoded_bytes /. mb /. t else 0.0 );
          ("engine.evals_per_s", if kind = Swap && eval_time > 0.0 then float_of_int evals /. eval_time else 0.0);
          ( "demand.hit_ratio",
            if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses) );
          ("demand.slice_derivations", float_of_int slice_derivations);
          ("demand.slice_nodes", float_of_int slice_nodes);
          ( "server.overhead_pct",
            if live_query_p50 > 0.0 then 100.0 *. (live_query_p50 -. replay_p50) /. live_query_p50 else 0.0 );
        ]
        @ gc_per_op r.n @ layer_pcts spans,
        [
          ("replayed_requests", float_of_int r.n, "count");
          ("server.overhead_us_p50", 1e6 *. (live_query_p50 -. replay_p50), "us");
          ("cache.find_ms_p50", 1000.0 *. p 0.5 (arr r.find_s), "ms");
          ("snapshot.decode_ms_p50", 1000.0 *. p 0.5 (arr r.decode_s), "ms");
          ("engine.warm_ms_p50", 1000.0 *. p 0.5 (arr r.build_s), "ms");
          ("demand.miss_ms_p50", 1000.0 *. p 0.5 (arr r.miss_s), "ms");
          ("demand.hit_us_p50", 1e6 *. p 0.5 (arr r.hit_s), "us");
        ]
        @ List.map
            (fun (form, l) -> (Printf.sprintf "eval_us_p50.%s" form, 1e6 *. p 0.5 (arr l), "us"))
            (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) r.query_s []))
        @ layer_summary spans )
  in
  let fps =
    (Printf.sprintf "%s/%s" name st.labels.(0), Oracle.fingerprint st.solutions.(0))
    :: (match kind with
       | Swap -> [ (Printf.sprintf "%s/%s" name st.labels.(1), Oracle.fingerprint st.solutions.(1)) ]
       | Demand_mode -> [ (name ^ "/2objH", Oracle.fingerprint (Option.get st.full)) ])
  in
  ( {
      Catalog.correct = !failures = 0;
      attempted;
      failed = !mismatches;
      values =
        [
          ("setup_s", setup_s);
          ("latency_p50_ms", 1000.0 *. live_query_p50);
          ("throughput_per_s", float_of_int attempted /. elapsed);
          ("peak_rss_mb", median "peak_kb" /. 1024.0);
        ]
        @ layer_values;
      extra =
        [
          ("queries", float_of_int (Array.length queries), "count");
          ("loads", float_of_int (Array.length loads), "count");
          ("load_p50_ms", 1000.0 *. p 0.5 loads, "ms");
          ("servers", float_of_int (List.length served), "count");
          ("server.served", sum "served", "count");
          ("server.errors", sum "errors", "count");
          ("server.loads", sum "loads", "count");
          ("server.evictions", sum "evictions", "count");
          ("server.hist_p50_us", median "p50_us", "us");
          ("server.hist_p99_us", median "p99_us", "us");
        ]
        @ (match kind with
          | Swap -> []
          | Demand_mode ->
            (* the working-set assumption, measured: the distinct queries
               the clients send, and the share the memo answered *)
            [
              ( "demand.corpus_queries",
                float_of_int (Inputs.corpus_size (Inputs.demand_corpus ~seed:ctx.seed st.program)),
                "count" );
              ( "demand.server_hit_ratio",
                (let q = sum "demand_queries" in
                 if q > 0.0 then sum "slice_hits" /. q else 0.0),
                "ratio" );
            ])
        @ latency_extra queries @ layer_extra;
    },
    fps )

(* Fault-injection battery for the production query server:
   - scripted concurrent multi-client socket sessions with interleaved
     [load key] hot-swaps, every answer checked byte-identical to a
     sequential simulation over private engines (per-session view
     isolation);
   - jobs=4 vs jobs=1 determinism of every counter the metrics endpoint
     reports (latency estimates excluded);
   - half-closed and abruptly-dropped connections, oversized and
     malformed lines mid-stream (exact error-message assertions, session
     stays usable);
   - budget-forced cache eviction during live queries (answers stay
     byte-identical, evictions observed, budget re-enforced once pins
     release);
   - idle timeouts and per-session query limits (exact messages, control
     commands still accepted on an exhausted session);
   - socket-path lifecycle: stale files reclaimed, live servers and
     non-socket paths refused. *)

module Analysis = Ipa_core.Analysis
module Flavors = Ipa_core.Flavors
module Snapshot = Ipa_core.Snapshot
module Query = Ipa_query.Query
module Engine = Ipa_query.Engine
module Server = Ipa_query.Server
module Cache = Ipa_harness.Cache
module T = Ipa_testlib

let check = Alcotest.check

let solve flavor =
  let p = T.parse_exn T.boxes_src in
  (p, (Analysis.run_plain p flavor).solution)

let insens = Flavors.Insensitive
let twoobj = Flavors.Object_sens { depth = 2; heap = 1 }

(* ---------- fixtures: two snapshots under fixed cache keys ---------- *)

let key_a = String.make 32 'a' (* insens *)
let key_b = String.make 32 'b' (* 2objH *)

(* Publishes both solutions as .snap files the cache serves by key;
   returns their byte sizes (for budget arithmetic). *)
let publish_snapshots dir p s_insens s_2obj =
  let write key label solution =
    let bytes =
      Snapshot.encode
        {
          Snapshot.key;
          program_digest = Snapshot.digest_program p;
          label;
          seconds = 0.0;
          solution;
          metrics = None;
        }
    in
    Out_channel.with_open_bin
      (Filename.concat dir (key ^ ".snap"))
      (fun oc -> Out_channel.output_string oc bytes);
    String.length bytes
  in
  (write key_a "insens" s_insens, write key_b "2objH" s_2obj)

(* The expected byte-exact transcript of one session, replayed over
   private engines — the server's per-session views must behave exactly
   like this sequential model no matter how many sessions interleave. *)
let simulate ~engines ~labels script =
  let keys = [| key_a; key_b |] in
  let cur = ref 0 in
  List.map
    (fun line ->
      match Query.tokens line with
      | Ok [ "load"; "key"; k ] ->
        Array.iteri (fun j key -> if key = k then cur := j) keys;
        Printf.sprintf "load key %s: ok (%s)" k labels.(!cur)
      | _ -> (
        match Query.parse line with
        | Error e -> Engine.render_error ~json:false ~q:line e
        | Ok q -> Engine.render_text q (Engine.eval engines.(!cur) q)))
    script

(* One query of each of the nine forms. *)
let base_queries =
  [|
    "pts Main::main/0$ra";
    "pointed-by \"Main::main/new A#2\"";
    "alias Main::main/0$ra Main::main/0$rb";
    "callees \"Main::main/call get#2\"";
    "callers Box::get/0";
    "reach Main::main/0 Box::get/0";
    "fieldpts \"Main::main/new Box#0\" Box::val";
    "taint";
    "stats";
  |]

(* Client [c]'s deterministic script: queries with a [load key] hot-swap
   every 5th line, staggered per client so swaps interleave across
   sessions. *)
let swap_script c n =
  List.concat
    (List.init n (fun i ->
         let q = base_queries.((i + c) mod Array.length base_queries) in
         if i mod 5 = 4 then
           [ Printf.sprintf "load key %s" (if ((i / 5) + c) mod 2 = 0 then key_b else key_a); q ]
         else [ q ]))

(* ---------- socket scaffolding ---------- *)

let connect path =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec go tries =
    match Unix.connect sock (Unix.ADDR_UNIX path) with
    | () -> ()
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when tries > 0 ->
      Unix.sleepf 0.02;
      go (tries - 1)
  in
  go 250;
  sock

(* Start a socket server in its own domain, run [k], then stop, drain and
   join before returning — so counters read after [with_server] are final
   (no session still active). *)
let with_server ?cache ?limits ?log ?(jobs = 1) ~dir (p, label, sol) k =
  let path = Filename.concat dir "ipa.sock" in
  let run pool =
    let server =
      Server.create ?cache ?pool ?limits ?log ~json:false ~timings:false ~program:p ~label sol
    in
    let domain = Domain.spawn (fun () -> Server.serve_socket server ~path) in
    (* The socket file appears only once the server is accepting (bind on a
       temp name, rename after listen) — wait for it so [k] never races the
       startup. A file-existence poll, not a connect: a probe connection
       would inflate the [sessions] counter the tests assert exactly. *)
    let rec wait_ready tries =
      if (not (Sys.file_exists path)) && tries > 0 then begin
        Unix.sleepf 0.02;
        wait_ready (tries - 1)
      end
    in
    wait_ready 250;
    let joined = ref None in
    let res =
      Fun.protect
        ~finally:(fun () ->
          Server.request_stop server;
          joined := Some (Domain.join domain))
        (fun () -> k server path)
    in
    (match !joined with
    | Some (Error e) -> Alcotest.failf "serve_socket: %s" e
    | _ -> ());
    (server, res)
  in
  if jobs <= 1 then run None
  else Ipa_support.Domain_pool.with_pool ~jobs (fun pool -> run (Some pool))

(* One lockstep client: write a line, read the answer, compare against
   the expected transcript. Returns the first mismatch, if any. *)
let lockstep_client path script expected =
  let sock = connect path in
  Fun.protect ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
  @@ fun () ->
  let ic = Unix.in_channel_of_descr sock and oc = Unix.out_channel_of_descr sock in
  let err = ref None in
  (try
     List.iter2
       (fun line want ->
         if !err = None then begin
           output_string oc (line ^ "\n");
           flush oc;
           let got = input_line ic in
           if got <> want then
             err := Some (Printf.sprintf "sent %S:\n  want %S\n  got  %S" line want got)
         end)
       script expected;
     output_string oc "quit\n";
     flush oc
   with End_of_file | Sys_error _ -> err := Some "server closed the connection early");
  !err

let join_clients domains =
  List.iter
    (fun d -> match Domain.join d with None -> () | Some e -> Alcotest.fail e)
    domains

(* ---------- concurrent sessions with interleaved hot-swaps ---------- *)

(* [n_clients] concurrent sessions, each hot-swapping between the two
   snapshots on its own schedule. Per-session views mean every client's
   transcript must be byte-identical to its private sequential
   simulation; a swap leaking across sessions, a batch answered out of
   order, or an eviction corrupting a pinned snapshot all surface as a
   byte diff. Returns the server, the cache and every line sent. *)
let run_swap_workload ~jobs ~n_clients ~mem_budget () =
  let p, s1 = solve insens in
  let _, s2 = solve twoobj in
  T.with_temp_dir (fun dir ->
      let size_a, size_b = publish_snapshots dir p s1 s2 in
      let budget =
        match mem_budget with
        | `Unbounded -> None
        | `Both -> Some (2 * (size_a + size_b))
        | `One -> Some (max size_a size_b + (min size_a size_b / 2))
      in
      let cache = Cache.create ~dir ?mem_budget:budget () in
      let engines = [| Engine.create s1; Engine.create s2 |] in
      let labels = [| "insens"; "2objH" |] in
      let scripts = List.init n_clients (fun c -> swap_script c 25) in
      let expected = List.map (simulate ~engines ~labels) scripts in
      let server, () =
        with_server ~cache ~jobs ~dir (p, "insens", s1) (fun _server path ->
            join_clients
              (List.map2
                 (fun script want -> Domain.spawn (fun () -> lockstep_client path script want))
                 scripts expected))
      in
      (server, cache, List.concat scripts))

let test_concurrent_hot_swaps () =
  let server, _, sent = run_swap_workload ~jobs:4 ~n_clients:4 ~mem_budget:`Unbounded () in
  check Alcotest.int "every line answered exactly once" (List.length sent) (Server.served server);
  check Alcotest.int "no errors" 0 (Server.errors server);
  check Alcotest.int "four sessions" 4 (List.assoc "sessions" (Server.metrics server));
  check Alcotest.int "all sessions drained" 0
    (List.assoc "active_sessions" (Server.metrics server))

(* Budget-forced eviction during live queries: the cache can hold only
   one snapshot, so concurrent sessions serving different snapshots force
   constant evict/reload churn — answers must not change, and the budget
   must hold again once the sessions' pins are released. *)
let test_eviction_under_live_queries () =
  let server, cache, _ = run_swap_workload ~jobs:4 ~n_clients:3 ~mem_budget:`One () in
  let stats = Cache.stats cache in
  check Alcotest.int "no errors under eviction churn" 0 (Server.errors server);
  check Alcotest.bool "budget forced evictions" true (stats.evictions > 0);
  check Alcotest.bool "evicted snapshots re-served from disk" true (stats.disk_hits > 2);
  (match Cache.mem_budget cache with
  | None -> Alcotest.fail "cache lost its budget"
  | Some b ->
    check Alcotest.bool "resident bytes within budget after pins released" true
      (stats.resident_bytes <= b));
  check Alcotest.int "all sessions drained" 0
    (List.assoc "active_sessions" (Server.metrics server))

(* A fixed script fixes the serving counters exactly, however many
   sessions interleave: every line sent is answered once, none is an
   error, and every [load key] line loads. The cache holds one snapshot
   only, so the swaps must evict. *)
let test_exact_counters_one_snapshot n_clients () =
  let server, cache, sent = run_swap_workload ~jobs:n_clients ~n_clients ~mem_budget:`One () in
  let load_lines = List.filter (String.starts_with ~prefix:"load key ") sent in
  check Alcotest.int "served = lines sent" (List.length sent) (Server.served server);
  check Alcotest.int "no errors" 0 (Server.errors server);
  check Alcotest.int "loads = load key lines" (List.length load_lines) (Server.loads server);
  check Alcotest.bool "one-snapshot budget forced evictions" true
    ((Cache.stats cache).evictions > 0)

(* Every counter the metrics endpoint reports must be identical at jobs=1
   and jobs=4 for the same workload — concurrency changes wall-clock
   only. Latency estimates are the documented exception. *)
let test_metrics_jobs_determinism () =
  let counters_of jobs =
    let server, _, _ = run_swap_workload ~jobs ~n_clients:4 ~mem_budget:`Both () in
    List.filter (fun (k, _) -> k <> "p50_us" && k <> "p99_us") (Server.metrics server)
  in
  let seq = counters_of 1 in
  let par = counters_of 4 in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "metrics counters identical at jobs=1 and jobs=4" seq par

(* ---------- connection faults ---------- *)

let test_half_closed_connection () =
  let p, s1 = solve insens in
  T.with_temp_dir (fun dir ->
      let script = [ "pts Main::main/0$ra"; "stats"; "callers Box::get/0" ] in
      let expected = simulate ~engines:[| Engine.create s1 |] ~labels:[| "insens" |] script in
      let server, () =
        with_server ~dir (p, "insens", s1) (fun _server path ->
            let sock = connect path in
            Fun.protect ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
            @@ fun () ->
            let oc = Unix.out_channel_of_descr sock in
            List.iter (fun l -> output_string oc (l ^ "\n")) script;
            flush oc;
            (* half-close: no more requests, but the read side stays open
               for the answers already in flight *)
            Unix.shutdown sock Unix.SHUTDOWN_SEND;
            let ic = Unix.in_channel_of_descr sock in
            List.iter
              (fun want -> check Alcotest.string "answer after half-close" want (input_line ic))
              expected;
            check Alcotest.bool "clean EOF after the last answer" true
              (match input_line ic with exception End_of_file -> true | _ -> false))
      in
      check Alcotest.int "all three answered" 3 (Server.served server);
      check Alcotest.int "no disconnects" 0 (List.assoc "disconnects" (Server.metrics server)))

let test_abrupt_drop_then_next_client () =
  let p, s1 = solve insens in
  T.with_temp_dir (fun dir ->
      let server, () =
        with_server ~dir (p, "insens", s1) (fun _server path ->
            (* client 1 vanishes mid-request without reading its answer *)
            let sock = connect path in
            let oc = Unix.out_channel_of_descr sock in
            output_string oc "pts Main::main/0$ra\nstats\n";
            flush oc;
            Unix.close sock;
            (* the server must shrug it off and serve the next client *)
            let sock2 = connect path in
            Fun.protect ~finally:(fun () -> try Unix.close sock2 with Unix.Unix_error _ -> ())
            @@ fun () ->
            let ic = Unix.in_channel_of_descr sock2
            and oc2 = Unix.out_channel_of_descr sock2 in
            output_string oc2 "stats\nquit\n";
            flush oc2;
            check Alcotest.bool "next client is served normally" true
              (String.starts_with ~prefix:"stats:" (input_line ic)))
      in
      check Alcotest.int "two sessions" 2 (List.assoc "sessions" (Server.metrics server));
      check Alcotest.int "all sessions drained" 0
        (List.assoc "active_sessions" (Server.metrics server)))

(* ---------- input faults: oversized and malformed lines ---------- *)

let test_oversized_line_mid_stream () =
  let p, s1 = solve insens in
  T.with_temp_dir (fun dir ->
      let limits = { Server.default_limits with max_line = 64 } in
      let expected_ok =
        List.hd (simulate ~engines:[| Engine.create s1 |] ~labels:[| "insens" |]
                   [ "pts Main::main/0$ra" ])
      in
      let server, () =
        with_server ~limits ~dir (p, "insens", s1) (fun _server path ->
            let sock = connect path in
            Fun.protect ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
            @@ fun () ->
            let ic = Unix.in_channel_of_descr sock and oc = Unix.out_channel_of_descr sock in
            let ask line =
              output_string oc (line ^ "\n");
              flush oc;
              input_line ic
            in
            (* fits one read: rejected after the newline arrives *)
            check Alcotest.string "over-limit line answers the exact error"
              "<oversized line>: error: line exceeds limit (200 > 64 bytes); line dropped"
              (ask (String.make 200 'x'));
            (* larger than the reader's buffer: the line streams through
               the discard path, total length still reported exactly *)
            check Alcotest.string "streamed over-limit line reports its full length"
              "<oversized line>: error: line exceeds limit (100000 > 64 bytes); line dropped"
              (ask (String.make 100_000 'y'));
            (* the session survives both *)
            check Alcotest.string "session usable after oversized lines" expected_ok
              (ask "pts Main::main/0$ra"))
      in
      check Alcotest.int "two line-limit hits" 2
        (List.assoc "line_limit_hits" (Server.metrics server));
      check Alcotest.int "served counts the error replies" 3 (Server.served server);
      check Alcotest.int "errors counted" 2 (Server.errors server))

(* Structured error replies with exact messages — and after every one of
   them, the session keeps answering. *)
let test_error_replies_exact () =
  let p, s1 = solve insens in
  let _, s2 = solve twoobj in
  T.with_temp_dir (fun dir ->
      ignore (publish_snapshots dir p s1 s2);
      let cache = Cache.create ~dir () in
      let bad_parse =
        match Query.parse "pts" with
        | Error e -> Engine.render_error ~json:false ~q:"pts" e
        | Ok _ -> Alcotest.fail "bare pts should not parse"
      in
      let script =
        [
          "load key 0000";
          "load frob";
          "metrics now";
          "pts";
          "pts Main::main/0$ra";
        ]
      in
      let expected_last =
        List.hd (simulate ~engines:[| Engine.create s1 |] ~labels:[| "insens" |]
                   [ "pts Main::main/0$ra" ])
      in
      let expected =
        [
          "load key 0000: error: cache miss for key 0000";
          "load frob: error: usage: load path <file> | load key <key>";
          "metrics now: error: usage: metrics";
          bad_parse;
          expected_last;
        ]
      in
      let server, () =
        with_server ~cache ~dir (p, "insens", s1) (fun _server path ->
            match lockstep_client path script expected with
            | None -> ()
            | Some e -> Alcotest.fail e)
      in
      check Alcotest.int "five replies" 5 (Server.served server);
      check Alcotest.int "four structured errors" 4 (Server.errors server);
      check Alcotest.int "no successful load" 0 (Server.loads server))

(* ---------- limits: idle timeout and query budget ---------- *)

let test_idle_timeout () =
  let p, s1 = solve insens in
  T.with_temp_dir (fun dir ->
      let limits = { Server.default_limits with idle_timeout = Some 0.3 } in
      let server, () =
        with_server ~limits ~dir (p, "insens", s1) (fun _server path ->
            let sock = connect path in
            Fun.protect ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
            @@ fun () ->
            let ic = Unix.in_channel_of_descr sock and oc = Unix.out_channel_of_descr sock in
            output_string oc "stats\n";
            flush oc;
            check Alcotest.bool "answered while active" true
              (String.starts_with ~prefix:"stats:" (input_line ic));
            (* go quiet: the server must close the session with a
               structured reply, not just drop the connection *)
            check Alcotest.string "idle timeout reply"
              "<idle>: error: idle timeout (0.3s); closing session" (input_line ic);
            check Alcotest.bool "EOF after the timeout reply" true
              (match input_line ic with exception End_of_file -> true | _ -> false))
      in
      check Alcotest.int "timeout counted" 1 (List.assoc "timeouts" (Server.metrics server)))

(* Channel sessions (no socket needed) for the limit semantics. *)
let channel_session ?cache ?limits ?log ~json script p label sol =
  T.with_temp_dir (fun dir ->
      let script_path = Filename.concat dir "script.txt" in
      let out_path = Filename.concat dir "out.txt" in
      Out_channel.with_open_text script_path (fun oc ->
          Out_channel.output_string oc (String.concat "\n" script ^ "\n"));
      let server =
        Server.create ?cache ?limits ?log ~json ~timings:false ~program:p ~label sol
      in
      let outcome =
        In_channel.with_open_text script_path (fun ic ->
            Out_channel.with_open_text out_path (fun oc -> Server.session server ic oc))
      in
      let lines =
        String.split_on_char '\n'
          (String.trim (In_channel.with_open_text out_path In_channel.input_all))
      in
      (server, outcome, lines))

let test_query_limit () =
  let p, s1 = solve insens in
  let limits = { Server.default_limits with max_queries = Some 2 } in
  (* the line over the limit answers an exact error and closes the session *)
  let server, outcome, lines =
    channel_session ~limits ~json:false [ "stats"; "stats"; "stats"; "stats" ] p "insens" s1
  in
  check Alcotest.bool "session closed by the limit" true (outcome = `Limit);
  check Alcotest.int "two answers plus the error reply" 3 (List.length lines);
  check Alcotest.string "exact limit message"
    "stats: error: query limit reached (2 per session); closing session"
    (List.nth lines 2);
  check Alcotest.int "limit hit counted" 1
    (List.assoc "query_limit_hits" (Server.metrics server));
  (* control commands are not queries: an exhausted session still quits
     cleanly and still answers [metrics] *)
  let _, outcome, lines =
    channel_session ~limits ~json:false [ "stats"; "stats"; "metrics"; "quit" ] p "insens" s1
  in
  check Alcotest.bool "quit accepted after the limit" true (outcome = `Quit);
  check Alcotest.int "metrics answered after the limit" 3 (List.length lines);
  check Alcotest.bool "metrics reply" true
    (String.starts_with ~prefix:"metrics:" (List.nth lines 2))

(* Channel sessions read through the same bounded reader as sockets: an
   over-limit line streams through the discard path, answers the exact
   error, and the next line is served. *)
let test_oversized_line_on_channel () =
  let p, s1 = solve insens in
  let limits = { Server.default_limits with max_line = 64 } in
  let server, outcome, lines =
    channel_session ~limits ~json:false [ String.make 100_000 'a'; "stats" ] p "insens" s1
  in
  check Alcotest.bool "session ends at end of input" true (outcome = `Quit);
  check Alcotest.int "error reply plus the stats record" 2 (List.length lines);
  check Alcotest.string "exact line-limit message"
    "<oversized line>: error: line exceeds limit (100000 > 64 bytes); line dropped"
    (List.nth lines 0);
  check Alcotest.bool "stats answered after the dropped line" true
    (String.starts_with ~prefix:"stats:" (List.nth lines 1));
  check Alcotest.int "line-limit hit counted" 1
    (List.assoc "line_limit_hits" (Server.metrics server))

let test_metrics_json_record () =
  let p, s1 = solve insens in
  let _, _, lines = channel_session ~json:true [ "metrics"; "quit" ] p "insens" s1 in
  let line = List.hd lines in
  check Alcotest.bool "metrics is a structured ok record" true
    (String.starts_with ~prefix:{|{"q":"metrics","ok":true,"kind":"metrics",|} line);
  List.iter
    (fun field ->
      let sub = Printf.sprintf {|"%s":|} field in
      let n = String.length sub and len = String.length line in
      let rec found i = i + n <= len && (String.sub line i n = sub || found (i + 1)) in
      check Alcotest.bool (field ^ " present") true (found 0))
    [ "served"; "errors"; "loads"; "sessions"; "active_sessions"; "timeouts";
      "line_limit_hits"; "query_limit_hits"; "disconnects"; "evictions";
      "resident_bytes"; "p50_us"; "p99_us" ]

(* ---------- JSONL request log ---------- *)

let test_request_log () =
  let p, s1 = solve insens in
  T.with_temp_dir (fun dir ->
      let log_path = Filename.concat dir "requests.jsonl" in
      Out_channel.with_open_text log_path (fun log ->
          ignore
            (channel_session ~log ~json:false
               [ "pts Main::main/0$ra"; "pts \"oops"; "quit" ]
               p "insens" s1));
      let records =
        String.split_on_char '\n'
          (String.trim (In_channel.with_open_text log_path In_channel.input_all))
      in
      check Alcotest.int "one record per request, quit unlogged" 2 (List.length records);
      let contains ~sub s =
        let n = String.length sub and len = String.length s in
        let rec go i = i + n <= len && (String.sub s i n = sub || go (i + 1)) in
        go 0
      in
      List.iteri
        (fun i record ->
          check Alcotest.bool "seq numbers the records in order" true
            (String.starts_with ~prefix:(Printf.sprintf {|{"seq":%d,"session":|} i) record))
        records;
      check Alcotest.bool "the answered query logs ok:true" true
        (contains ~sub:{|"q":"pts Main::main/0$ra","ok":true|} (List.nth records 0));
      check Alcotest.bool "the malformed line logs ok:false" true
        (contains ~sub:{|"ok":false|} (List.nth records 1)))

(* ---------- socket-path lifecycle ---------- *)

let test_socket_path_not_a_socket () =
  let p, s1 = solve insens in
  T.with_temp_dir (fun dir ->
      let path = Filename.concat dir "occupied" in
      Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc "data\n");
      let server = Server.create ~json:false ~timings:false ~program:p ~label:"insens" s1 in
      (match Server.serve_socket server ~path with
      | Ok () -> Alcotest.fail "bound over a regular file"
      | Error msg ->
        check Alcotest.string "refused with the exact reason"
          (path ^ ": exists and is not a socket") msg);
      check Alcotest.bool "the file was not clobbered" true (Sys.file_exists path))

let test_socket_path_stale_file_reclaimed () =
  let p, s1 = solve insens in
  T.with_temp_dir (fun dir ->
      let path = Filename.concat dir "ipa.sock" in
      (* fabricate an unclean shutdown: a bound-then-abandoned socket file *)
      let dead = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind dead (Unix.ADDR_UNIX path);
      Unix.close dead;
      check Alcotest.bool "stale socket file exists" true (Sys.file_exists path);
      let server, () =
        with_server ~dir (p, "insens", s1) (fun _server path ->
            let sock = connect path in
            Fun.protect ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
            @@ fun () ->
            let ic = Unix.in_channel_of_descr sock and oc = Unix.out_channel_of_descr sock in
            output_string oc "stats\nquit\n";
            flush oc;
            check Alcotest.bool "server live on the reclaimed path" true
              (String.starts_with ~prefix:"stats:" (input_line ic)))
      in
      check Alcotest.int "one session" 1 (List.assoc "sessions" (Server.metrics server));
      check Alcotest.bool "socket file removed on shutdown" true (not (Sys.file_exists path)))

let test_socket_path_live_server_refused () =
  let p, s1 = solve insens in
  T.with_temp_dir (fun dir ->
      let _, () =
        with_server ~dir (p, "insens", s1) (fun _server path ->
            let rival =
              Server.create ~json:false ~timings:false ~program:p ~label:"insens" s1
            in
            match Server.serve_socket rival ~path with
            | Ok () -> Alcotest.fail "two servers bound the same socket"
            | Error msg ->
              check Alcotest.string "refused: the socket is live"
                (path ^ ": another server is live on this socket") msg)
      in
      ())

let () =
  Alcotest.run "serve"
    [
      ( "concurrency",
        [
          Alcotest.test_case "4 clients, interleaved hot-swaps, byte-identical" `Quick
            test_concurrent_hot_swaps;
          Alcotest.test_case "budget-forced eviction during live queries" `Quick
            test_eviction_under_live_queries;
          Alcotest.test_case "metrics counters: jobs=4 = jobs=1" `Quick
            test_metrics_jobs_determinism;
          Alcotest.test_case "1 client, one-snapshot budget: exact counters" `Quick
            (test_exact_counters_one_snapshot 1);
          Alcotest.test_case "8 clients, one-snapshot budget: exact counters" `Quick
            (test_exact_counters_one_snapshot 8);
        ] );
      ( "faults",
        [
          Alcotest.test_case "half-closed connection drains its answers" `Quick
            test_half_closed_connection;
          Alcotest.test_case "abrupt drop does not poison the server" `Quick
            test_abrupt_drop_then_next_client;
          Alcotest.test_case "oversized lines mid-stream" `Quick test_oversized_line_mid_stream;
          Alcotest.test_case "exact structured error replies" `Quick test_error_replies_exact;
        ] );
      ( "limits",
        [
          Alcotest.test_case "idle timeout closes with a reply" `Quick test_idle_timeout;
          Alcotest.test_case "query limit per session" `Quick test_query_limit;
          Alcotest.test_case "oversized line on a channel" `Quick
            test_oversized_line_on_channel;
          Alcotest.test_case "metrics record shape" `Quick test_metrics_json_record;
          Alcotest.test_case "JSONL request log" `Quick test_request_log;
        ] );
      ( "socket-path",
        [
          Alcotest.test_case "regular file refused" `Quick test_socket_path_not_a_socket;
          Alcotest.test_case "stale socket file reclaimed" `Quick
            test_socket_path_stale_file_reclaimed;
          Alcotest.test_case "live server refused" `Quick test_socket_path_live_server_refused;
        ] );
    ]

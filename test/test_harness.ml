(* Tests for the experiment harness at tiny scale. *)

module E = Ipa_harness.Experiments
module Config = Ipa_harness.Config
module Flavors = Ipa_core.Flavors

let check = Alcotest.check

let tiny : Config.t =
  { scale = 0.02; budget = 2_000_000; jobs = 1; cache = Ipa_harness.Cache.create () }

let test_config_default () =
  check Alcotest.bool "scale" true (Config.default.scale = 1.0);
  check Alcotest.int "budget" 10_000_000 Config.default.budget;
  check Alcotest.bool "jobs" true (Config.default.jobs >= 1)

let test_fig1 () =
  let runs = E.Fig1.compute tiny in
  check Alcotest.int "two runs per benchmark" 18 (List.length runs);
  List.iter
    (fun (r : E.run) ->
      check Alcotest.bool (r.bench ^ " completes at tiny scale") false r.timed_out;
      check Alcotest.bool "precision present" true (r.precision <> None))
    runs;
  let analyses = List.sort_uniq compare (List.map (fun (r : E.run) -> r.analysis) runs) in
  check (Alcotest.list Alcotest.string) "analyses" [ "2objH"; "insens" ] analyses

let test_fig4 () =
  let rows = E.Fig4.compute tiny in
  check Alcotest.int "7 + average" 8 (List.length rows);
  let last = List.nth rows 7 in
  check Alcotest.string "average row" "average" last.bench;
  List.iter
    (fun (r : E.Fig4.row) ->
      let in_range x = x >= 0.0 && x <= 100.0 in
      if
        not
          (in_range r.a_sites_pct && in_range r.b_sites_pct && in_range r.a_objects_pct
          && in_range r.b_objects_pct)
      then Alcotest.failf "%s: percentage out of range" r.bench)
    rows;
  (* the average row is the mean of the others *)
  let body = List.filteri (fun i _ -> i < 7) rows in
  let mean f = List.fold_left (fun a r -> a +. f r) 0.0 body /. 7.0 in
  check (Alcotest.float 0.001) "average correct" (mean (fun r -> r.E.Fig4.a_sites_pct))
    last.a_sites_pct

let test_figs567 () =
  let runs = E.Figs567.compute tiny (Flavors.Object_sens { depth = 2; heap = 1 }) in
  check Alcotest.int "4 runs x 6 benchmarks" 24 (List.length runs);
  let labels =
    List.sort_uniq compare (List.map (fun (r : E.run) -> r.analysis) runs)
  in
  check
    (Alcotest.list Alcotest.string)
    "labels"
    [ "2objH"; "2objH-IntroA"; "2objH-IntroB"; "insens" ]
    labels

let test_run_to_row () =
  let row =
    E.run_to_row
      {
        bench = "x";
        analysis = "2objH";
        seconds = 1.5;
        derivations = 42;
        timed_out = false;
        precision = None;
        tainted_sinks = Some 3;
        counters = Ipa_core.Solution.zero_counters;
      }
  in
  check (Alcotest.list Alcotest.string) "row" [ "2objH"; "1.50"; "42"; "-"; "-"; "-"; "3" ] row;
  let row =
    E.run_to_row
      {
        bench = "x";
        analysis = "2objH";
        seconds = 99.0;
        derivations = 7;
        timed_out = true;
        precision = None;
        tainted_sinks = None;
        counters = Ipa_core.Solution.zero_counters;
      }
  in
  check Alcotest.string "timeout cell" "timeout" (List.nth row 1);
  check Alcotest.string "timeout taint cell" "-" (List.nth row 6)

let test_taint_study () =
  let runs = E.Taint_study.compute tiny in
  check Alcotest.int "four runs" 4 (List.length runs);
  let by label = List.find (fun (r : E.run) -> r.analysis = label) runs in
  let sinks label =
    match (by label).tainted_sinks with
    | Some n -> n
    | None -> Alcotest.failf "%s timed out at tiny scale" label
  in
  (* Context-insensitively the hot secret reaches every client's sink;
     every 2objH variant pins it to the one genuinely hot sink. *)
  check Alcotest.bool "insens conflates"
    true
    (sinks "insens" >= E.Taint_study.clients tiny);
  check Alcotest.int "2objH exact" 1 (sinks "2objH");
  check Alcotest.int "IntroA exact" 1 (sinks "2objH-IntroA");
  check Alcotest.int "IntroB exact" 1 (sinks "2objH-IntroB")

let test_ablation_smoke () =
  (* The ablation studies must run end-to-end at tiny scale. *)
  let cfg : Config.t =
    { scale = 0.02; budget = 1_000_000; jobs = 2; cache = Ipa_harness.Cache.create () }
  in
  Ipa_harness.Ablation.grid cfg;
  Ipa_harness.Ablation.components cfg

let test_timeouts_render () =
  (* With an absurdly small budget everything times out and compute still
     returns well-formed rows. *)
  let cfg : Config.t =
    { scale = 0.02; budget = 10; jobs = 1; cache = Ipa_harness.Cache.create () }
  in
  let runs = E.Fig1.compute cfg in
  List.iter
    (fun (r : E.run) ->
      check Alcotest.bool "timed out" true r.timed_out;
      check Alcotest.bool "no precision" true (r.precision = None))
    runs

(* ---------- cache graceful degradation ----------

   An unusable --cache-dir must degrade to memory-only operation: no
   exception, the failure counted as a disk error, and solves still
   deduplicated by the in-memory layer. Permission-based fixtures don't
   work here (the suite may run as root, which bypasses mode bits), so
   the unusable directories are paths through regular files. *)

let degraded_cache_roundtrip cache =
  let p = Ipa_testlib.parse_exn Ipa_testlib.boxes_src in
  let cold, _ = Ipa_harness.Cache.base_pass cache ~budget:0 p in
  let warm, _ = Ipa_harness.Cache.base_pass cache ~budget:0 p in
  check Alcotest.bool "solves fine without a disk layer" false cold.timed_out;
  check Alcotest.bool "second solve is an in-memory hit" true
    (Ipa_testlib.canon_native cold.solution = Ipa_testlib.canon_native warm.solution);
  Ipa_harness.Cache.stats cache

let test_cache_dir_is_a_file () =
  Ipa_testlib.with_temp_dir (fun dir ->
      let file = Filename.concat dir "occupied" in
      Out_channel.with_open_text file (fun oc -> Out_channel.output_string oc "not a dir\n");
      let cache = Ipa_harness.Cache.create ~dir:file () in
      let s = degraded_cache_roundtrip cache in
      check Alcotest.bool "degraded to memory-only" true (Ipa_harness.Cache.dir cache = None);
      check Alcotest.bool "failure counted" true (s.disk_errors >= 1);
      check Alcotest.int "one miss, one mem hit" 1 s.misses;
      check Alcotest.int "mem hit" 1 s.mem_hits;
      check Alcotest.int "nothing published" 0 s.writes)

let test_cache_dir_beneath_a_file () =
  Ipa_testlib.with_temp_dir (fun dir ->
      let file = Filename.concat dir "occupied" in
      Out_channel.with_open_text file (fun oc -> Out_channel.output_string oc "x");
      let cache = Ipa_harness.Cache.create ~dir:(Filename.concat file "sub") () in
      let s = degraded_cache_roundtrip cache in
      check Alcotest.bool "degraded to memory-only" true (Ipa_harness.Cache.dir cache = None);
      check Alcotest.bool "failure counted" true (s.disk_errors >= 1))

let test_cache_missing_dir_created () =
  (* A merely missing directory is not a failure: it is created. *)
  Ipa_testlib.with_temp_dir (fun dir ->
      let sub = Filename.concat dir "fresh" in
      let cache = Ipa_harness.Cache.create ~dir:sub () in
      let s = degraded_cache_roundtrip cache in
      check Alcotest.bool "disk layer active" true (Ipa_harness.Cache.dir cache = Some sub);
      check Alcotest.int "no disk errors" 0 s.disk_errors;
      check Alcotest.int "snapshot published" 1 s.writes;
      (* remove the published snapshot so with_temp_dir can clean up *)
      ignore (Ipa_harness.Cache.clear ~dir:sub ());
      Unix.rmdir sub)

let test_cache_find_bytes_counts () =
  let cache = Ipa_harness.Cache.create () in
  check Alcotest.bool "miss on empty cache" true
    (Ipa_harness.Cache.find_bytes cache ~key:"no-such-key" = None);
  let s = Ipa_harness.Cache.stats cache in
  check Alcotest.int "miss counted" 1 s.misses;
  check Alcotest.int "no disk errors" 0 s.disk_errors

(* A hit reports the solve time its snapshot recorded, not its decode
   time: the miss, a memory hit and a disk hit through a second cache over
   the same directory all return the same bits. *)
let test_cache_hit_reports_solve_time () =
  Ipa_testlib.with_temp_dir (fun dir ->
      let p = Ipa_testlib.parse_exn Ipa_testlib.boxes_src in
      let config = Ipa_core.Solver.plain p (Flavors.strategy p Flavors.Insensitive) in
      let seconds cache =
        let r, _ = Ipa_harness.Cache.solve cache p ~label:"insens" config in
        Int64.bits_of_float r.seconds
      in
      let cache = Ipa_harness.Cache.create ~dir () in
      let miss = seconds cache in
      let mem_hit = seconds cache in
      let second = Ipa_harness.Cache.create ~dir () in
      let disk_hit = seconds second in
      check Alcotest.int "memory hit" 1 (Ipa_harness.Cache.stats cache).mem_hits;
      check Alcotest.int "disk hit" 1 (Ipa_harness.Cache.stats second).disk_hits;
      check Alcotest.int64 "memory hit time" miss mem_hit;
      check Alcotest.int64 "disk hit time" miss disk_hit;
      ignore (Ipa_harness.Cache.clear ~dir ()))

(* ---------- in-memory LRU budget ----------

   [find_bytes] serves raw snapshot bytes without decoding them, so the
   LRU layer can be exercised with fake [.snap] files of known sizes:
   four 100-byte entries against a 250-byte budget force evictions on the
   third distinct access. *)

module Cache = Ipa_harness.Cache

let lru_body i = String.make 100 (Char.chr (Char.code 'a' + i))

let lru_fixture dir n =
  for i = 0 to n - 1 do
    Out_channel.with_open_bin
      (Filename.concat dir (Printf.sprintf "k%d.snap" i))
      (fun oc -> Out_channel.output_string oc (lru_body i))
  done

let lru_get cache i =
  check
    (Alcotest.option Alcotest.string)
    (Printf.sprintf "k%d content" i)
    (Some (lru_body i))
    (Cache.find_bytes cache ~key:(Printf.sprintf "k%d" i))

let test_lru_eviction_order () =
  Ipa_testlib.with_temp_dir (fun dir ->
      lru_fixture dir 4;
      let cache = Cache.create ~dir ~mem_budget:250 () in
      lru_get cache 0;
      lru_get cache 1;
      check (Alcotest.list Alcotest.string) "both resident" [ "k0"; "k1" ]
        (Cache.resident_keys cache);
      lru_get cache 2;
      (* 300 bytes > 250: the least recently used entry goes *)
      check (Alcotest.list Alcotest.string) "k0 evicted first" [ "k1"; "k2" ]
        (Cache.resident_keys cache);
      lru_get cache 1;
      (* the touch restamped k1, so the next eviction picks k2 *)
      lru_get cache 3;
      check (Alcotest.list Alcotest.string) "k2 evicted after k1 touch" [ "k1"; "k3" ]
        (Cache.resident_keys cache);
      let s = Cache.stats cache in
      check Alcotest.int "two evictions" 2 s.evictions;
      check Alcotest.int "resident bytes" 200 s.resident_bytes;
      check Alcotest.int "one memory hit (the k1 touch)" 1 s.mem_hits;
      (* eviction drops only the memory copy: the disk layer still serves
         k0, and the promotion re-enters it into the LRU order *)
      lru_get cache 0;
      let s = Cache.stats cache in
      check Alcotest.int "evicted entries re-read from disk" 5 s.disk_hits;
      check (Alcotest.list Alcotest.string) "promotion displaced the LRU entry"
        [ "k0"; "k3" ] (Cache.resident_keys cache))

let test_lru_pinning () =
  Ipa_testlib.with_temp_dir (fun dir ->
      lru_fixture dir 2;
      let cache = Cache.create ~dir ~mem_budget:150 () in
      lru_get cache 0;
      check Alcotest.bool "pin resident key" true (Cache.pin cache ~key:"k0");
      check Alcotest.bool "pin counted twice" true (Cache.pin cache ~key:"k0");
      check Alcotest.bool "pin absent key refused" false (Cache.pin cache ~key:"k1");
      lru_get cache 1;
      (* over budget, but k0 is pinned: the incoming unpinned entry is the
         victim, even though it is the most recently used *)
      check (Alcotest.list Alcotest.string) "pinned entry survives" [ "k0" ]
        (Cache.resident_keys cache);
      Cache.unpin cache ~key:"k0";
      lru_get cache 1;
      (* one pin released, one still held: k0 remains protected *)
      check (Alcotest.list Alcotest.string) "counted pin still protects" [ "k0" ]
        (Cache.resident_keys cache);
      Cache.unpin cache ~key:"k0";
      lru_get cache 1;
      (* fully unpinned, plain LRU resumes: k0 is the older entry *)
      check (Alcotest.list Alcotest.string) "unpinned entry evictable again" [ "k1" ]
        (Cache.resident_keys cache);
      let s = Cache.stats cache in
      check Alcotest.int "evictions" 3 s.evictions;
      check Alcotest.bool "resident within budget" true (s.resident_bytes <= 150))

(* Replay one access sequence on two fresh caches: same resident set,
   same eviction count — ticks are issued under the lock, so eviction
   order is a deterministic function of the access order. The budget
   holds as an invariant after every access (nothing is pinned). *)
let lru_trace dir seq budget =
  let cache = Cache.create ~dir ~mem_budget:budget () in
  List.iter
    (fun i ->
      lru_get cache i;
      let s = Cache.stats cache in
      if s.resident_bytes > budget then
        Alcotest.failf "resident %d bytes exceeds budget %d" s.resident_bytes budget)
    seq;
  (Cache.resident_keys cache, (Cache.stats cache).evictions)

let test_lru_deterministic_under_budget () =
  Ipa_testlib.with_temp_dir (fun dir ->
      lru_fixture dir 4;
      let seq = [ 0; 1; 2; 1; 3; 0; 2; 3; 1; 0; 3; 2; 0; 1 ] in
      let a = lru_trace dir seq 250 in
      let b = lru_trace dir seq 250 in
      check
        (Alcotest.pair (Alcotest.list Alcotest.string) Alcotest.int)
        "same access order, same evictions" a b;
      check Alcotest.bool "evictions occurred" true (snd a > 0))

let test_parse_budget () =
  let ok s n =
    match Cache.parse_budget s with
    | Ok v -> check Alcotest.int s n v
    | Error e -> Alcotest.failf "%s rejected: %s" s e
  and err s =
    match Cache.parse_budget s with
    | Ok v -> Alcotest.failf "%S accepted as %d" s v
    | Error _ -> ()
  in
  ok "0" 0;
  ok "123" 123;
  ok "64k" 65_536;
  ok "64K" 65_536;
  ok "2M" 2_097_152;
  ok "1g" 1_073_741_824;
  err "";
  err "12q";
  err "-5";
  err "k";
  err "1.5m"

let test_negative_budget_rejected () =
  (match Cache.create ~mem_budget:(-1) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative budget accepted");
  check Alcotest.bool "zero budget allowed" true
    (Cache.mem_budget (Cache.create ~mem_budget:0 ()) = Some 0)

(* ---------- disk-store maintenance ----------

   [entries] and [clear ?kind] back the [cache stats] and
   [cache clear] subcommands. A directory may hold files no current reader
   understands — e.g. an ["IPSM"] summary blob published by an older build —
   which must be listed as unreadable, never raise, and still be cleared. *)

let test_cache_maintenance () =
  Ipa_testlib.with_temp_dir (fun dir ->
      let p = Ipa_testlib.parse_exn Ipa_testlib.boxes_src in
      let r = Ipa_core.Analysis.run_plain p Flavors.Insensitive in
      let snapshot label =
        Ipa_core.Snapshot.encode
          {
            Ipa_core.Snapshot.key = "k";
            program_digest = Ipa_core.Snapshot.digest_program p;
            label;
            seconds = 0.0;
            solution = r.solution;
            metrics = None;
          }
      in
      let write file bytes =
        Out_channel.with_open_bin (Filename.concat dir file) (fun oc ->
            Out_channel.output_string oc bytes)
      in
      write "a.snap" (snapshot "insens");
      write "b.snap" (snapshot "demand:insens");
      write "c.snap" "IPSM\001\000\032leftover summary blob";
      let kinds () =
        List.map (fun (e : Cache.disk_entry) -> (e.entry_file, e.entry_kind)) (Cache.entries ~dir)
      in
      let kind =
        Alcotest.(option (of_pp (fun ppf k -> Format.pp_print_string ppf (Cache.kind_name k))))
      in
      check
        Alcotest.(list (pair string kind))
        "classified by content"
        [
          ("a.snap", Some Cache.Snapshot_entry);
          ("b.snap", Some Cache.Demand_entry);
          ("c.snap", None);
        ]
        (kinds ());
      check Alcotest.int "clear demand slices" 1 (Cache.clear ~kind:Cache.Demand_entry ~dir ());
      check
        Alcotest.(list (pair string kind))
        "only the slice went"
        [ ("a.snap", Some Cache.Snapshot_entry); ("c.snap", None) ]
        (kinds ());
      check Alcotest.int "plain clear removes the rest" 2 (Cache.clear ~dir ());
      check Alcotest.int "directory empty" 0 (List.length (Cache.entries ~dir)))

(* ---------- the bench record and its counter gate ---------- *)

module Record = Ipa_harness.Bench_record

let record : Record.t =
  {
    selection = "incr";
    params = [ ("scale", Ipa_support.Json.Float 0.1); ("bench", Ipa_support.Json.Str "antlr") ];
    counters = [ ("cold_derivations", 2751); ("edit_warm_derivations", 7) ];
    measured = [ ("cold_seconds", 0.005743); ("warm_seconds", 0.25) ];
  }

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_record_round_trip () =
  Ipa_testlib.with_temp_dir (fun dir ->
      let path = Filename.concat dir "BENCH_incr.json" in
      Record.write path record;
      match Record.read path with
      | Ok r -> check Alcotest.bool "read back equal" true (r = record)
      | Error e -> Alcotest.fail (Record.error_to_string e))

let test_record_identical_passes () =
  check Alcotest.(list string) "no differences" [] (Record.diff ~baseline:record record)

let test_record_drift_fails () =
  let fresh =
    { record with counters = [ ("cold_derivations", 2751); ("edit_warm_derivations", 8) ] }
  in
  match Record.diff ~baseline:record fresh with
  | [ msg ] ->
    List.iter
      (fun part ->
        check Alcotest.bool (Printf.sprintf "%S names %S" msg part) true (contains msg part))
      [ "incr"; "edit_warm_derivations"; "baseline 7"; "fresh 8" ]
  | diffs -> Alcotest.failf "expected one difference, got %d" (List.length diffs)

let test_record_missing_counter_fails () =
  let fewer = { record with counters = [ ("cold_derivations", 2751) ] } in
  let missing_from_fresh = Record.diff ~baseline:record fewer in
  let missing_from_baseline = Record.diff ~baseline:fewer record in
  check Alcotest.int "missing from the fresh run" 1 (List.length missing_from_fresh);
  check Alcotest.int "missing from the baseline" 1 (List.length missing_from_baseline);
  List.iter
    (fun msg -> check Alcotest.bool msg true (contains msg "edit_warm_derivations"))
    (missing_from_fresh @ missing_from_baseline)

let test_record_measured_ignored () =
  let fresh = { record with measured = [ ("cold_seconds", 9.0) ]; params = [] } in
  check Alcotest.(list string) "measured and params are not gated" []
    (Record.diff ~baseline:record fresh)

let test_record_bad_baseline () =
  Ipa_testlib.with_temp_dir (fun dir ->
      let expect_error what want path =
        match Record.read path with
        | Ok _ -> Alcotest.failf "%s: read succeeded" what
        | Error e -> check Alcotest.bool what true (want e)
      in
      let unreadable = function Record.Unreadable _ -> true | Record.Malformed _ -> false in
      let malformed = function Record.Malformed _ -> true | Record.Unreadable _ -> false in
      expect_error "missing file" unreadable (Filename.concat dir "absent.json");
      expect_error "a directory" unreadable dir;
      List.iteri
        (fun i text ->
          let path = Filename.concat dir (Printf.sprintf "bad%d.json" i) in
          Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc text);
          expect_error (Printf.sprintf "malformed %S" text) malformed path)
        [
          "";
          {|{"selection": "incr"|};
          "[1, 2]";
          {|{"selection": "incr", "params": {}, "counters": {"a": 1.5}, "measured": {}}|};
          {|{"selection": "incr", "params": {}, "counters": {}, "measured": {"a": "x"}}|};
          (* the pre-record layout of a committed baseline *)
          {|{"scale": 0.1, "n_sccs": 168}|};
        ])

let () =
  Alcotest.run "harness"
    [
      ( "cache-degradation",
        [
          Alcotest.test_case "cache dir is a regular file" `Quick test_cache_dir_is_a_file;
          Alcotest.test_case "cache dir beneath a regular file" `Quick
            test_cache_dir_beneath_a_file;
          Alcotest.test_case "missing cache dir is created" `Quick test_cache_missing_dir_created;
          Alcotest.test_case "find_bytes counts misses" `Quick test_cache_find_bytes_counts;
        ] );
      ( "cache-hits",
        [
          Alcotest.test_case "a hit reports the solve time" `Quick
            test_cache_hit_reports_solve_time;
        ] );
      ( "cache-lru",
        [
          Alcotest.test_case "eviction follows access order" `Quick test_lru_eviction_order;
          Alcotest.test_case "pinned entries survive" `Quick test_lru_pinning;
          Alcotest.test_case "deterministic and within budget" `Quick
            test_lru_deterministic_under_budget;
          Alcotest.test_case "parse_budget" `Quick test_parse_budget;
          Alcotest.test_case "negative budget rejected" `Quick test_negative_budget_rejected;
        ] );
      ( "cache-maintenance",
        [ Alcotest.test_case "entries and clear by kind" `Quick test_cache_maintenance ] );
      ( "bench-record",
        [
          Alcotest.test_case "write then read round trip" `Quick test_record_round_trip;
          Alcotest.test_case "identical record passes" `Quick test_record_identical_passes;
          Alcotest.test_case "one drifted counter fails" `Quick test_record_drift_fails;
          Alcotest.test_case "missing counter fails" `Quick test_record_missing_counter_fails;
          Alcotest.test_case "measured differences pass" `Quick test_record_measured_ignored;
          Alcotest.test_case "bad baseline is a typed error" `Quick test_record_bad_baseline;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "config" `Quick test_config_default;
          Alcotest.test_case "fig1" `Slow test_fig1;
          Alcotest.test_case "fig4" `Slow test_fig4;
          Alcotest.test_case "figs567" `Slow test_figs567;
          Alcotest.test_case "run_to_row" `Quick test_run_to_row;
          Alcotest.test_case "taint study" `Slow test_taint_study;
          Alcotest.test_case "timeouts" `Quick test_timeouts_render;
          Alcotest.test_case "ablation smoke" `Slow test_ablation_smoke;
        ] );
    ]

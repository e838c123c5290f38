module Snapshot = Ipa_core.Snapshot
module Analysis = Ipa_core.Analysis
module Introspection = Ipa_core.Introspection
module Flavors = Ipa_core.Flavors
module Solver = Ipa_core.Solver

type entry = {
  bytes : string;
  mutable pins : int;  (** > 0 exempts the entry from eviction *)
  mutable tick : int;  (** last-access stamp from [clock]; larger = more recent *)
}

type t = {
  dir : string option;
  mem_budget : int option;  (** byte budget for the in-memory layer *)
  lock : Mutex.t;
  mem : (string, entry) Hashtbl.t;  (** key -> encoded snapshot bytes *)
  mutable clock : int;  (** monotone access counter (under [lock]) *)
  mutable resident : int;  (** total bytes held by [mem] (under [lock]) *)
  mem_hits : int Atomic.t;
  disk_hits : int Atomic.t;
  misses : int Atomic.t;
  stale : int Atomic.t;
  writes : int Atomic.t;
  write_conflicts : int Atomic.t;
  disk_errors : int Atomic.t;
  evictions : int Atomic.t;
}

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let create ?dir ?mem_budget () =
  (match mem_budget with
  | Some b when b < 0 -> invalid_arg "Cache.create: mem_budget must be >= 0"
  | _ -> ());
  let disk_errors = Atomic.make 0 in
  (* An unusable directory (unwritable parent, path through a regular
     file, ...) degrades to a memory-only cache: the failure is counted,
     never raised — a bad --cache-dir slows runs down, it cannot fail them. *)
  let dir =
    match dir with
    | None -> None
    | Some d -> (
      try
        mkdir_p d;
        if Sys.is_directory d then Some d
        else begin
          Atomic.incr disk_errors;
          None
        end
      with _ ->
        Atomic.incr disk_errors;
        None)
  in
  {
    dir;
    mem_budget;
    lock = Mutex.create ();
    mem = Hashtbl.create 16;
    clock = 0;
    resident = 0;
    mem_hits = Atomic.make 0;
    disk_hits = Atomic.make 0;
    misses = Atomic.make 0;
    stale = Atomic.make 0;
    writes = Atomic.make 0;
    write_conflicts = Atomic.make 0;
    disk_errors;
    evictions = Atomic.make 0;
  }

let dir t = t.dir
let mem_budget t = t.mem_budget

(* Human-friendly byte sizes for --mem-budget: a non-negative integer with
   an optional k/m/g suffix (binary multiples, case-insensitive). *)
let parse_budget s =
  let fail () = Error (Printf.sprintf "bad size %S (expected BYTES, or with a k/m/g suffix)" s) in
  let n = String.length s in
  if n = 0 then fail ()
  else
    let unit, digits =
      match Char.lowercase_ascii s.[n - 1] with
      | 'k' -> (1024, String.sub s 0 (n - 1))
      | 'm' -> (1024 * 1024, String.sub s 0 (n - 1))
      | 'g' -> (1024 * 1024 * 1024, String.sub s 0 (n - 1))
      | _ -> (1, s)
    in
    match int_of_string_opt digits with
    | Some v when v >= 0 && digits <> "" -> Ok (v * unit)
    | _ -> fail ()

let default_dir () =
  match Sys.getenv_opt "XDG_CACHE_HOME" with
  | Some d when d <> "" -> Filename.concat d "ipa"
  | _ -> (
    match Sys.getenv_opt "HOME" with
    | Some h when h <> "" -> Filename.concat (Filename.concat h ".cache") "ipa"
    | _ -> "_ipa_cache")

type stats = {
  mem_hits : int;
  disk_hits : int;
  misses : int;
  stale : int;
  writes : int;
  write_conflicts : int;
  disk_errors : int;
  evictions : int;
  resident_bytes : int;
}

let stats (t : t) =
  Mutex.lock t.lock;
  let resident_bytes = t.resident in
  Mutex.unlock t.lock;
  {
    mem_hits = Atomic.get t.mem_hits;
    disk_hits = Atomic.get t.disk_hits;
    misses = Atomic.get t.misses;
    stale = Atomic.get t.stale;
    writes = Atomic.get t.writes;
    write_conflicts = Atomic.get t.write_conflicts;
    disk_errors = Atomic.get t.disk_errors;
    evictions = Atomic.get t.evictions;
    resident_bytes;
  }

let stats_line t =
  let s = stats t in
  Printf.sprintf
    "cache: %d mem hits, %d disk hits, %d misses, %d stale, %d writes, %d write conflicts, %d disk errors, %d evictions, %d resident bytes"
    s.mem_hits s.disk_hits s.misses s.stale s.writes s.write_conflicts s.disk_errors s.evictions
    s.resident_bytes

(* ---------- the two storage layers ---------- *)

(* The in-memory layer under a budget: every hit restamps its entry with
   the (monotone) clock, and whenever the resident total exceeds the
   budget the least-recently-used unpinned entries are dropped, oldest
   stamp first, key order breaking (impossible) ties. Pinned entries are
   never dropped, so the resident total can exceed the budget only when
   pins alone force it. A dropped entry is only an in-memory copy: the
   disk layer (when configured) still holds the snapshot, so the next
   [find_bytes] degrades to a disk hit, never to a wrong answer. *)

let evict_locked t =
  match t.mem_budget with
  | None -> ()
  | Some budget ->
    while
      t.resident > budget
      &&
      let victim =
        Hashtbl.fold
          (fun key (e : entry) best ->
            if e.pins > 0 then best
            else
              (* ticks are unique (monotone under the lock), so oldest-tick
                 selection is total and deterministic *)
              match best with
              | Some (_, b) when b.tick < e.tick -> best
              | _ -> Some (key, e))
          t.mem None
      in
      match victim with
      | None -> false (* everything left is pinned *)
      | Some (key, e) ->
        Hashtbl.remove t.mem key;
        t.resident <- t.resident - String.length e.bytes;
        Atomic.incr t.evictions;
        true
    do
      ()
    done

let mem_find t key =
  Mutex.lock t.lock;
  let found =
    match Hashtbl.find_opt t.mem key with
    | None -> None
    | Some e ->
      t.clock <- t.clock + 1;
      e.tick <- t.clock;
      Some e.bytes
  in
  Mutex.unlock t.lock;
  found

let mem_store t key bytes =
  Mutex.lock t.lock;
  if not (Hashtbl.mem t.mem key) then begin
    t.clock <- t.clock + 1;
    Hashtbl.add t.mem key { bytes; pins = 0; tick = t.clock };
    t.resident <- t.resident + String.length bytes;
    evict_locked t
  end;
  Mutex.unlock t.lock

let pin t ~key =
  Mutex.lock t.lock;
  let pinned =
    match Hashtbl.find_opt t.mem key with
    | None -> false
    | Some e ->
      e.pins <- e.pins + 1;
      true
  in
  Mutex.unlock t.lock;
  pinned

let unpin t ~key =
  Mutex.lock t.lock;
  (match Hashtbl.find_opt t.mem key with
  | Some e when e.pins > 0 ->
    e.pins <- e.pins - 1;
    (* the budget may have been overridden by this pin; re-enforce *)
    if e.pins = 0 then evict_locked t
  | _ -> ());
  Mutex.unlock t.lock

let resident_keys t =
  Mutex.lock t.lock;
  let keys = Hashtbl.fold (fun key _ acc -> key :: acc) t.mem [] in
  Mutex.unlock t.lock;
  List.sort compare keys

let snap_path dir key = Filename.concat dir (key ^ ".snap")

let disk_read t key =
  match t.dir with
  | None -> None
  | Some dir -> (
    let path = snap_path dir key in
    match In_channel.with_open_bin path In_channel.input_all with
    | bytes -> Some bytes
    | exception Sys_error _ ->
      (* An absent file is an ordinary miss; an unreadable present one is a
         disk-layer failure, degraded to a miss and counted. *)
      if Sys.file_exists path then Atomic.incr t.disk_errors;
      None)

let disk_drop t key =
  match t.dir with
  | None -> ()
  | Some dir -> ( try Sys.remove (snap_path dir key) with Sys_error _ -> ())

(* Single-writer publication: write a private temp file, then [link] it to
   the final name. [link] is atomic and fails with EEXIST for every racer
   after the first, so a key is written at most once and no reader ever
   sees a partial file. Any disk failure degrades to not caching. *)
let disk_publish t key bytes =
  match t.dir with
  | None -> ()
  | Some dir -> (
    match Filename.temp_file ~temp_dir:dir "ipa" ".tmp" with
    | exception Sys_error _ -> Atomic.incr t.disk_errors
    | tmp ->
      let cleanup () = try Sys.remove tmp with Sys_error _ -> () in
      (try Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc bytes)
       with Sys_error _ ->
         Atomic.incr t.disk_errors;
         cleanup ());
      if Sys.file_exists tmp then begin
        (match Unix.link tmp (snap_path dir key) with
        | () -> Atomic.incr t.writes
        | exception Unix.Unix_error (Unix.EEXIST, _, _) -> Atomic.incr t.write_conflicts
        | exception Unix.Unix_error _ -> Atomic.incr t.disk_errors);
        cleanup ()
      end)

let put_bytes t ~key bytes =
  mem_store t key bytes;
  disk_publish t key bytes

let find_bytes t ~key =
  match mem_find t key with
  | Some bytes ->
    Atomic.incr t.mem_hits;
    Some bytes
  | None -> (
    match disk_read t key with
    | Some bytes ->
      Atomic.incr t.disk_hits;
      mem_store t key bytes;
      Some bytes
    | None ->
      Atomic.incr t.misses;
      None)

(* ---------- solve-through ---------- *)

let of_snapshot ~label (snap : Snapshot.t) =
  {
    Analysis.label;
    solution = snap.solution;
    seconds = snap.seconds;
    timed_out = snap.solution.Ipa_core.Solution.outcome = Budget_exceeded;
  }

let metrics_of (snap : Snapshot.t) =
  match snap.metrics with Some m -> m | None -> Introspection.compute snap.solution

let solve t p ~label config =
  let program_digest = Snapshot.digest_program p in
  let key = Snapshot.config_key ~program_digest config in
  let decode bytes = Snapshot.decode ~program:p ~config bytes in
  let from_mem () =
    match mem_find t key with
    | None -> None
    | Some bytes -> (
      match decode bytes with
      | Ok snap ->
        Atomic.incr t.mem_hits;
        Some (of_snapshot ~label snap, metrics_of snap)
      | Error _ ->
        (* memory holds only bytes this process encoded; a decode failure
           here is a bug, but stay on the never-wrong side: recompute *)
        Atomic.incr t.stale;
        None)
  in
  let from_disk () =
    match disk_read t key with
    | None -> None
    | Some bytes -> (
      match decode bytes with
      | Ok snap ->
        Atomic.incr t.disk_hits;
        mem_store t key bytes;
        Some (of_snapshot ~label snap, metrics_of snap)
      | Error _ ->
        Atomic.incr t.stale;
        disk_drop t key;
        None)
  in
  match from_mem () with
  | Some hit -> hit
  | None -> (
    match from_disk () with
    | Some hit -> hit
    | None ->
      Atomic.incr t.misses;
      let result = Analysis.run_config p ~label config in
      let metrics = Introspection.compute result.solution in
      let snap =
        {
          Snapshot.key;
          program_digest;
          label;
          seconds = result.seconds;
          solution = result.solution;
          metrics = Some metrics;
        }
      in
      let bytes = Snapshot.encode snap in
      mem_store t key bytes;
      disk_publish t key bytes;
      (result, metrics))

let base_pass t ~budget p =
  let config = Solver.plain p ~budget (Flavors.strategy p Flavors.Insensitive) in
  solve t p ~label:(Flavors.to_string Flavors.Insensitive) config

(* ---------- disk-store maintenance ---------- *)

type kind = Snapshot_entry | Demand_entry

let kind_name = function Snapshot_entry -> "snapshot" | Demand_entry -> "demand-slice-v1"

let has_prefix prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

(* Demand slices are ordinary snapshots under a slice-derived key; the
   evaluator marks them by label (see [Query.Demand]), which is the only
   place the distinction lives on disk. *)
let demand_label_prefix = "demand:"

type disk_entry = {
  entry_file : string;
  entry_bytes : int;
  entry_kind : kind option;
  entry_describe : string;
  entry_seconds : float option;
}

let snap_files dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | files ->
    Array.to_list files
    |> List.filter (fun f -> Filename.check_suffix f ".snap")
    |> List.sort compare

let entries ~dir =
  List.map
    (fun file ->
      let path = Filename.concat dir file in
      match In_channel.with_open_bin path In_channel.input_all with
      | exception Sys_error msg ->
        { entry_file = file; entry_bytes = 0; entry_kind = None; entry_describe = msg;
          entry_seconds = None }
      | bytes ->
        let entry_bytes = String.length bytes in
        match Snapshot.inspect bytes with
        | Ok info ->
          let kind =
            if has_prefix demand_label_prefix info.info_label then Demand_entry
            else Snapshot_entry
          in
          { entry_file = file; entry_bytes; entry_kind = Some kind;
            entry_describe = info.info_label; entry_seconds = Some info.info_seconds }
        | Error e ->
          { entry_file = file; entry_bytes; entry_kind = None;
            entry_describe = Snapshot.error_to_string e; entry_seconds = None })
    (snap_files dir)

let clear ?kind ~dir () =
  match kind with
  | None ->
    List.fold_left
      (fun n file ->
        match Sys.remove (Filename.concat dir file) with
        | () -> n + 1
        | exception Sys_error _ -> n)
      0 (snap_files dir)
  | Some k ->
    List.fold_left
      (fun n e ->
        if e.entry_kind = Some k then
          match Sys.remove (Filename.concat dir e.entry_file) with
          | () -> n + 1
          | exception Sys_error _ -> n
        else n)
      0 (entries ~dir)

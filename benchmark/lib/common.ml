(* Run context, correctness bookkeeping and measurement helpers shared by
   the workloads. *)

type ctx = {
  seed : int;
  seconds : float;  (** measured time per run *)
  trace : bool;
  quick : bool;  (** tiny inputs and one set-up: the test-suite smoke mode *)
  work : string;  (** scratch directory for caches, sockets and traces *)
}

(* ---------- correctness ---------- *)

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      prerr_endline ("CHECK FAILED: " ^ msg))
    fmt

let check cond fmt = Printf.ksprintf (fun msg -> if not cond then fail "%s" msg) fmt

(* Wall time and GC work, read together. *)
type meter = { secs : float; words : float; majors : int }

let zero = { secs = 0.0; words = 0.0; majors = 0 }

let meter () =
  let s = Gc.quick_stat () in
  {
    secs = Trace.clock ();
    words = s.minor_words +. s.major_words -. s.promoted_words;
    majors = s.major_collections;
  }

let minus a b = { secs = a.secs -. b.secs; words = a.words -. b.words; majors = a.majors - b.majors }
let plus a b = { secs = a.secs +. b.secs; words = a.words +. b.words; majors = a.majors + b.majors }

(* Work done for checking only: excluded from the measured cost of the
   unit it interrupts, and traced under the "check" layer, which the
   per-layer shares leave out. *)
let excluded = ref zero

let untimed f =
  let m0 = meter () in
  Fun.protect
    ~finally:(fun () -> excluded := plus !excluded (minus (meter ()) m0))
    (fun () -> Trace.span ~layer:"check" "check" f)

(* What the measured units cost in total, checks excluded. *)
let measured = ref zero

(* Run one measured unit of work; returns its seconds. *)
let timed_unit f =
  let ex0 = !excluded and m0 = meter () in
  let v = Trace.span ~layer:"bench" "unit" f in
  let cost = minus (minus (meter ()) m0) (minus !excluded ex0) in
  measured := plus !measured cost;
  (v, cost.secs)

(* GC work per measured unit. *)
let gc_per_op ops =
  let m = !measured and n = float_of_int (max 1 ops) in
  [
    ("gc.alloc_mwords_per_op", m.words /. 1e6 /. n);
    ("gc.major_collections_per_op", float_of_int m.majors /. n);
  ]

(* Call [f 0], [f 1], ... while another call still fits in the run's
   measured time (always at least one); returns the number of calls. *)
let repeat_for ctx f =
  let t0 = Trace.clock () in
  let rec go i =
    let start = Trace.clock () in
    Trace.set_unit i;
    f i;
    let last = Trace.clock () -. start in
    if (not ctx.quick) && Trace.clock () -. t0 +. last <= ctx.seconds then go (i + 1)
    else i + 1
  in
  go 0

(* Set-up runs at least five times and until it has taken a second in
   all, and its median time is reported, so work moved into set-up shows;
   every set-up but the last is disposed of. *)
let setup ctx ~dispose f =
  let rec go times prev =
    Option.iter dispose prev;
    Gc.compact ();
    let t0 = Trace.clock () in
    let state = Trace.span ~layer:"bench" "setup" f in
    let times = (Trace.clock () -. t0) :: times in
    let n = List.length times in
    if ctx.quick || (n >= 5 && List.fold_left ( +. ) 0.0 times >= 1.0) then (Array.of_list times, state)
    else go times (Some state)
  in
  let times, state = go [] None in
  (Stat.median times, state)

(* ---------- process measurements ---------- *)

(* Peak resident set (VmHWM) of a process, in kB; 0 where /proc is absent. *)
let vmhwm_kb pid =
  match In_channel.with_open_text (Printf.sprintf "/proc/%s/status" pid) In_channel.input_all with
  | exception Sys_error _ -> 0
  | status ->
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> Scanf.sscanf_opt (String.trim v) "%d kB" Fun.id
        | _ -> None)
      (String.split_on_char '\n' status)
    |> Option.value ~default:0

let peak_rss_mb () = float_of_int (vmhwm_kb "self") /. 1024.0

(* ---------- files ---------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { st_kind = S_DIR; _ } ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

(* A fresh private directory under the run's scratch directory. *)
let fresh_dir ctx name =
  let dir = Filename.concat ctx.work (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  remove_tree dir;
  mkdir_p dir;
  dir

(* The text report's companions of a median latency (seconds in): the
   sample count, the p99, and the highest percentile with at least ten
   samples beyond it. *)
let latency_extra samples =
  let ms x = 1000.0 *. x in
  ("latency_samples", float_of_int (Array.length samples), "count")
  :: (if Array.length samples = 0 then []
      else
        ("latency_p99_ms", ms (Stat.percentile samples 0.99), "ms")
        ::
        (match Stat.tail samples with
        | Some (q, v) -> [ (Printf.sprintf "latency_tail_p%g_ms" (100.0 *. q), ms v, "ms") ]
        | None -> []))

(* ---------- per-layer shares ---------- *)

(* Each layer's self time as a percentage of the measured units' time
   (checks excluded), over the spans under the units. *)
let layer_pcts spans =
  let inside = Trace.within ~root:(fun s -> s.Trace.name = "unit") spans in
  let total =
    List.fold_left
      (fun acc (s : Trace.span) ->
        if s.name = "unit" then acc +. Trace.duration s
        else if s.layer = "check" then acc -. Trace.duration s
        else acc)
      0.0 inside
  in
  let self = Trace.layer_self ~keep:(fun s -> s.Trace.layer <> "check") inside in
  List.map
    (fun l ->
      let v = Option.value ~default:0.0 (List.assoc_opt l self) in
      (l ^ ".self_pct", if total > 0.0 then 100.0 *. v /. total else 0.0))
    Catalog.layers

let layer_summary spans =
  List.filter_map
    (fun (l, secs) ->
      if l = "check" then None else Some (Printf.sprintf "self.%s_s" l, secs, "s"))
    (Trace.layer_self (Trace.within ~root:(fun s -> s.Trace.name = "unit") spans))

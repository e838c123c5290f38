(* In-memory span recorder for traced runs.

   Spans are recorded by the benchmark's own code around each call into a
   layer's public functions; nothing inside the program is instrumented.
   With tracing off, [span] is a flag test and a direct call. Spans stay in
   memory and are written out as JSON lines when the run ends. *)

let clock () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type span = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  name : string;
  layer : string;
  unit_id : int;  (** the repeat, edit or request the span belongs to *)
  start : float;  (** seconds on the monotonic clock *)
  stop : float;
}

let on = ref false
let recorded : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let current_unit = ref 0

let enable () =
  on := true;
  recorded := [];
  stack := [];
  next_id := 0

let set_unit u = current_unit := u

let span ~layer name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let unit_id = !current_unit in
    let start = clock () in
    let finish () =
      let stop = clock () in
      stack := (match !stack with _ :: rest -> rest | [] -> []);
      recorded := { id; parent; name; layer; unit_id; start; stop } :: !recorded
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* In start order, so every parent precedes its children. *)
let spans () = List.sort (fun a b -> compare a.id b.id) !recorded

let duration s = s.stop -. s.start

(* A span's self time is its duration minus the part its child spans
   cover. Children of one parent never overlap (the recorder is
   single-threaded), so that part is the sum of their durations. *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt children s.parent)))
    spans;
  List.map
    (fun s -> (s, duration s -. Option.value ~default:0.0 (Hashtbl.find_opt children s.id)))
    spans

(* Self time summed per layer, over the spans for which [keep] holds. *)
let layer_self ?(keep = fun _ -> true) spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      if keep s then
        Hashtbl.replace tbl s.layer (self +. Option.value ~default:0.0 (Hashtbl.find_opt tbl s.layer)))
    (self_times spans);
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* Spans below (and including) the spans satisfying [root]; [spans] must be
   in start order. *)
let within ~root spans =
  let inside = Hashtbl.create 1024 in
  List.iter
    (fun s -> if root s || Hashtbl.mem inside s.parent then Hashtbl.replace inside s.id ())
    spans;
  List.filter (fun s -> Hashtbl.mem inside s.id) spans

let quote s = "\"" ^ Ipa_support.Json.escape s ^ "\""

let write_jsonl path spans =
  let t0 = match spans with s :: _ -> s.start | [] -> 0.0 in
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"name\":%s,\"layer\":%s,\"unit\":%d,\"start_us\":%.3f,\"end_us\":%.3f}\n"
            s.id s.parent (quote s.name) (quote s.layer)
            s.unit_id
            ((s.start -. t0) *. 1e6)
            ((s.stop -. t0) *. 1e6))
        spans)

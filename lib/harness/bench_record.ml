module Json = Ipa_support.Json

type t = {
  selection : string;
  params : (string * Json.t) list;
  counters : (string * int) list;
  measured : (string * float) list;
}

type error = Unreadable of string | Malformed of string

let error_to_string = function
  | Unreadable msg -> "cannot read baseline: " ^ msg
  | Malformed msg -> "malformed baseline: " ^ msg

let to_json r =
  Json.Obj
    [
      ("selection", Json.Str r.selection);
      ("params", Json.Obj r.params);
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.counters));
      ("measured", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) r.measured));
    ]

let write path r =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Json.to_string ~pretty:true (to_json r) ^ "\n"))

let of_json json =
  let ( let* ) = Result.bind in
  let obj name = function
    | Some (Json.Obj kvs) -> Ok kvs
    | _ -> Error (Printf.sprintf "%S is not an object" name)
  in
  let values ~expected of_value kvs =
    List.fold_right
      (fun (k, v) acc ->
        let* acc = acc in
        match of_value v with
        | Some x -> Ok ((k, x) :: acc)
        | None -> Error (Printf.sprintf "%S is not %s" k expected))
      kvs (Ok [])
  in
  let* selection =
    match Json.member "selection" json with
    | Some (Json.Str s) -> Ok s
    | _ -> Error "no \"selection\" string"
  in
  let* params = obj "params" (Json.member "params" json) in
  let* counters = obj "counters" (Json.member "counters" json) in
  let* counters =
    values ~expected:"an integer" (function Json.Int i -> Some i | _ -> None) counters
  in
  let* measured = obj "measured" (Json.member "measured" json) in
  let* measured =
    values ~expected:"a number"
      (function Json.Float f -> Some f | Json.Int i -> Some (float_of_int i) | _ -> None)
      measured
  in
  Ok { selection; params; counters; measured }

let read path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error (Unreadable msg)
  | text -> (
    match Result.bind (Json.of_string text) of_json with
    | Ok r -> Ok r
    | Error msg -> Error (Malformed (Printf.sprintf "%s: %s" path msg)))

let diff ~baseline fresh =
  let sel = fresh.selection in
  let header =
    if baseline.selection = sel then []
    else [ Printf.sprintf "%s: the baseline is a %S record" sel baseline.selection ]
  in
  let base = Hashtbl.of_seq (List.to_seq baseline.counters) in
  let changed =
    List.filter_map
      (fun (name, v) ->
        match Hashtbl.find_opt base name with
        | None -> Some (Printf.sprintf "%s: %s: missing from the baseline (fresh %d)" sel name v)
        | Some b when b <> v -> Some (Printf.sprintf "%s: %s: baseline %d, fresh %d" sel name b v)
        | Some _ -> None)
      fresh.counters
  in
  let seen = Hashtbl.of_seq (List.to_seq fresh.counters) in
  let missing =
    List.filter_map
      (fun (name, b) ->
        if Hashtbl.mem seen name then None
        else Some (Printf.sprintf "%s: %s: missing from the fresh run (baseline %d)" sel name b))
      baseline.counters
  in
  header @ changed @ missing

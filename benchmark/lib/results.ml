(* Result files: one run's full report ([detail]) and the result set that
   [run --out] writes and [compare] reads. *)

module Json = Ipa_support.Json

type run = {
  workload : string;
  seed : int;
  trace : bool;
  report : Catalog.report;
}

let run_to_json r =
  let rep = r.report in
  Json.Obj
    [
      ("workload", Str r.workload);
      ("seed", Int r.seed);
      ("trace", Bool r.trace);
      ("correct", Bool rep.correct);
      ("attempted", Int rep.attempted);
      ("failed", Int rep.failed);
      ("values", Obj (List.map (fun (k, v) -> (k, Json.Float v)) rep.values));
      ( "extra",
        Obj
          (List.map (fun (k, v, u) -> (k, Json.Obj [ ("value", Float v); ("unit", Str u) ])) rep.extra)
      );
    ]

let number = function Json.Int i -> Some (float_of_int i) | Json.Float f -> Some f | _ -> None

let run_of_json j =
  let ( let* ) = Option.bind in
  let* workload = Option.bind (Json.member "workload" j) Json.to_str in
  let* seed = Option.bind (Json.member "seed" j) Json.to_int in
  let* trace = match Json.member "trace" j with Some (Bool b) -> Some b | _ -> None in
  let* correct = match Json.member "correct" j with Some (Bool b) -> Some b | _ -> None in
  let* attempted = Option.bind (Json.member "attempted" j) Json.to_int in
  let* failed = Option.bind (Json.member "failed" j) Json.to_int in
  let* values = match Json.member "values" j with Some (Obj kvs) -> Some kvs | _ -> None in
  let values = List.filter_map (fun (k, v) -> Option.map (fun v -> (k, v)) (number v)) values in
  let extra =
    match Json.member "extra" j with
    | Some (Obj kvs) ->
      List.filter_map
        (fun (k, v) ->
          match (Option.bind (Json.member "value" v) number, Option.bind (Json.member "unit" v) Json.to_str) with
          | Some x, Some u -> Some (k, x, u)
          | _ -> None)
        kvs
    | _ -> []
  in
  Some { workload; seed; trace; report = { Catalog.correct; attempted; failed; values; extra } }

let read path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> Json.of_string text

let write path json =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string ~pretty:true json);
      output_char oc '\n')

(* A result set: every run of one [run] invocation. *)
let set_to_json ~seed ~seconds runs overheads =
  Json.Obj
    [
      ("seed", Int seed);
      ("seconds", Float seconds);
      ("runs", List (List.map run_to_json runs));
      ("trace_overhead_pct", Obj (List.map (fun (w, v) -> (w, Json.Float v)) overheads));
    ]

(* The runs of a result set, or of every set of a file that bundles
   several under "sets" (like results/seed-commit.json). *)
let rec runs_of_set j =
  match (Json.member "runs" j, Json.member "sets" j) with
  | Some (List rs), _ -> List.filter_map run_of_json rs
  | _, Some (List sets) -> List.concat_map runs_of_set sets
  | _ -> []

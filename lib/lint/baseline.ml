(* Baseline files: the set of accepted finding fingerprints, so CI fails
   only on findings that are new relative to the committed baseline.
   Identity is Diagnostic.fingerprint — (rule id, entity) — which survives
   renumbered lines and reworded messages. The file keeps rule/entity next
   to each fingerprint so reviewers can read diffs. *)

module Diagnostic = Ipa_ir.Diagnostic
module Json = Ipa_support.Json

type t = (string, unit) Hashtbl.t

let empty () : t = Hashtbl.create 16

let mem (t : t) (d : Diagnostic.t) = Hashtbl.mem t (Diagnostic.fingerprint d)

let to_json ds =
  let entries =
    List.map
      (fun (d : Diagnostic.t) ->
        Json.Obj
          [
            ("fingerprint", Json.Str (Diagnostic.fingerprint d));
            ("rule", Json.Str d.rule);
            ("entity", Json.Str d.entity);
          ])
      (List.sort_uniq Diagnostic.compare ds)
  in
  (* One fingerprint may cover several diagnostics (same rule+entity,
     different messages); keep the first occurrence only. *)
  let seen = Hashtbl.create 16 in
  let entries =
    List.filter
      (fun e ->
        match Json.member "fingerprint" e with
        | Some (Json.Str fp) ->
          if Hashtbl.mem seen fp then false
          else begin
            Hashtbl.add seen fp ();
            true
          end
        | _ -> true)
      entries
  in
  Json.Obj [ ("version", Json.Int 1); ("findings", Json.List entries) ]

let save path ds =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Json.to_string ~pretty:true (to_json ds) ^ "\n"))

let of_json j : (t, string) result =
  match Json.member "version" j with
  | Some (Json.Int 1) -> (
    match Option.bind (Json.member "findings" j) Json.to_list with
    | None -> Error "baseline: missing findings array"
    | Some entries ->
      let t = empty () in
      let bad = ref None in
      List.iter
        (fun e ->
          match Option.bind (Json.member "fingerprint" e) Json.to_str with
          | Some fp -> Hashtbl.replace t fp ()
          | None -> bad := Some "baseline: entry without a fingerprint")
        entries;
      (match !bad with Some m -> Error m | None -> Ok t))
  | Some (Json.Int v) -> Error (Printf.sprintf "baseline: unsupported version %d" v)
  | _ -> Error "baseline: missing version"

let load path : (t, string) result =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | src -> (
    match Json.of_string src with
    | Error e -> Error (Printf.sprintf "%s: %s" path e)
    | Ok j -> ( match of_json j with Error e -> Error (Printf.sprintf "%s: %s" path e) | ok -> ok))

let filter_new (t : t) ds = List.filter (fun d -> not (mem t d)) ds

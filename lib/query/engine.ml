module Solution = Ipa_core.Solution
module Program = Ipa_ir.Program
module Int_set = Ipa_support.Int_set

type names = {
  vars : (string, int) Hashtbl.t;
  heaps : (string, int) Hashtbl.t;
  meths : (string, int) Hashtbl.t;
  invos : (string, int) Hashtbl.t;
  fields : (string, int list) Hashtbl.t;  (** full and bare names; bare may be ambiguous *)
}

type t = { sol : Solution.t; names : names }

(* The tables depend on the program alone: every snapshot a server loads
   for its program shares one set, and so do demand slices' roots. *)
let names =
  Program.memo (fun p ->
      let tbl size = Hashtbl.create size in
      let n =
        {
          vars = tbl (Program.n_vars p);
          heaps = tbl (Program.n_heaps p);
          meths = tbl (Program.n_meths p);
          invos = tbl (Program.n_invos p);
          fields = tbl (Program.n_fields p);
        }
      in
      for v = 0 to Program.n_vars p - 1 do
        Hashtbl.replace n.vars (Program.var_full_name p v) v
      done;
      for h = 0 to Program.n_heaps p - 1 do
        Hashtbl.replace n.heaps (Program.heap_full_name p h) h
      done;
      for m = 0 to Program.n_meths p - 1 do
        Hashtbl.replace n.meths (Program.meth_full_name p m) m
      done;
      for i = 0 to Program.n_invos p - 1 do
        Hashtbl.replace n.invos (Program.invo_info p i).invo_name i
      done;
      let add_field key f =
        Hashtbl.replace n.fields key (f :: (try Hashtbl.find n.fields key with Not_found -> []))
      in
      for f = 0 to Program.n_fields p - 1 do
        add_field (Program.field_full_name p f) f;
        add_field (Program.field_info p f).field_name f
      done;
      n)

let create sol = { sol; names = names sol.Solution.program }
let solution t = t.sol

let warm t = Solution.warm_indexes t.sol

(* The one index [eval q] reads for each form; [warm] for the forms that
   read whole-program tables. *)
let warm_for t (q : Query.t) =
  let s = t.sol in
  match q with
  | Query.Pts _ | Query.Alias _ -> ignore (Solution.collapsed_var_pts s)
  | Query.Pointed_by _ -> ignore (Solution.inverted_var_pts s)
  | Query.Callees _ -> ignore (Solution.call_targets s)
  | Query.Callers _ -> ignore (Solution.caller_sites s)
  | Query.Reach _ -> ignore (Solution.callee_meths s)
  | Query.Fieldpts _ -> ignore (Solution.collapsed_fld_pts s)
  | Query.Taint _ | Query.Stats -> warm t

type answer =
  | Names of { kind : string; items : string list }
  | Truth of { holds : bool; witness : string list }
  | Taint_report of { seeds : int; findings : (string * int * string) list }
  | Stats_report of (string * int) list

(* ---------- name resolution ---------- *)

let ( let* ) = Result.bind

let resolve what tbl name =
  match Hashtbl.find_opt tbl name with
  | Some id -> Ok id
  | None -> Error (Printf.sprintf "unknown %s %S" what name)

let resolve_field t name =
  match Hashtbl.find_opt t.names.fields name with
  | Some [ f ] -> Ok f
  | Some (_ :: _ :: _ as fs) ->
    Error
      (Printf.sprintf "ambiguous field %S (candidates: %s)" name
         (String.concat ", "
            (List.sort compare
               (List.map (Program.field_full_name t.sol.Solution.program) fs))))
  | Some [] | None -> Error (Printf.sprintf "unknown field %S" name)

let find_var names name = Hashtbl.find_opt names.vars name

let find_field names name =
  match Hashtbl.find_opt names.fields name with Some [ f ] -> Some f | _ -> None

(* ---------- evaluation ---------- *)

let sorted_names of_id set = List.sort compare (Int_set.fold (fun id acc -> of_id id :: acc) set [])

let eval t (q : Query.t) : (answer, string) result =
  let s = t.sol in
  let p = s.Solution.program in
  let nm = t.names in
  let var = resolve "variable" nm.vars in
  let heap = resolve "allocation site" nm.heaps in
  let meth = resolve "method" nm.meths in
  let invo = resolve "invocation site" nm.invos in
  match q with
  | Query.Pts v ->
    let* v = var v in
    Ok (Names { kind = "objects"; items = sorted_names (Program.heap_full_name p) (Solution.collapsed_var_pts s).(v) })
  | Query.Pointed_by h ->
    let* h = heap h in
    Ok (Names { kind = "vars"; items = sorted_names (Program.var_full_name p) (Solution.inverted_var_pts s).(h) })
  | Query.Alias (a, b) ->
    let* a = var a in
    let* b = var b in
    let vpt = Solution.collapsed_var_pts s in
    let common = Int_set.fold (fun h acc -> if Int_set.mem vpt.(b) h then h :: acc else acc) vpt.(a) [] in
    let witness = List.sort compare (List.map (Program.heap_full_name p) common) in
    Ok (Truth { holds = witness <> []; witness })
  | Query.Callees site ->
    let* site = invo site in
    let items =
      match Hashtbl.find_opt (Solution.call_targets s) site with
      | None -> []
      | Some targets -> sorted_names (Program.meth_full_name p) targets
    in
    Ok (Names { kind = "methods"; items })
  | Query.Callers m ->
    let* m = meth m in
    let items = sorted_names (fun i -> (Program.invo_info p i).invo_name) (Solution.caller_sites s).(m) in
    Ok (Names { kind = "sites"; items })
  | Query.Reach (src, tgt) ->
    let* src = meth src in
    let* tgt = meth tgt in
    let succs = Solution.callee_meths s in
    (* BFS with parent links for a shortest call path. *)
    let parent = Array.make (Program.n_meths p) (-1) in
    let seen = Array.make (Program.n_meths p) false in
    seen.(src) <- true;
    let queue = Queue.create () in
    Queue.add src queue;
    let found = ref (src = tgt) in
    while (not !found) && not (Queue.is_empty queue) do
      let m = Queue.pop queue in
      Int_set.iter
        (fun c ->
          if not seen.(c) then begin
            seen.(c) <- true;
            parent.(c) <- m;
            if c = tgt then found := true else Queue.add c queue
          end)
        succs.(m)
    done;
    if not !found then Ok (Truth { holds = false; witness = [] })
    else begin
      let rec path m acc = if m = src then m :: acc else path parent.(m) (m :: acc) in
      Ok (Truth { holds = true; witness = List.map (Program.meth_full_name p) (path tgt []) })
    end
  | Query.Fieldpts (h, f) ->
    let* h = heap h in
    let* f = resolve_field t f in
    if (Program.field_info p f).is_static_field then
      Error (Printf.sprintf "field %S is static; its slot is not per-object" (Program.field_full_name p f))
    else begin
      let items =
        match Hashtbl.find_opt (Solution.collapsed_fld_pts s) (Solution.fld_pts_key s ~heap:h ~field:f) with
        | None -> []
        | Some set -> sorted_names (Program.heap_full_name p) set
      in
      Ok (Names { kind = "objects"; items })
    end
  | Query.Taint spec_args ->
    let spec =
      match spec_args with
      | None -> Ipa_clients.Taint.default_spec
      | Some (source, sink) ->
        { Ipa_clients.Taint.sources = [ source ]; source_classes = [ source ]; sinks = [ sink ]; sanitizers = [] }
    in
    let res = Ipa_clients.Taint.analyze ~spec s in
    Ok
      (Taint_report
         {
           seeds = res.n_seeds;
           findings =
             List.map
               (fun (f : Ipa_clients.Taint.finding) ->
                 ((Program.invo_info p f.invo).invo_name, f.arg, Program.meth_full_name p f.sink))
               res.findings;
         })
  | Query.Stats ->
    let st = Solution.stats s in
    Ok
      (Stats_report
         [
           ("vpt_tuples", st.vpt_tuples);
           ("fpt_tuples", st.fpt_tuples);
           ("exc_tuples", st.exc_tuples);
           ("cg_edges", st.cg_edges);
           ("reach_pairs", st.reach_pairs);
           ("n_contexts", st.n_contexts);
           ("n_objects", st.n_objects);
           ("derivations", s.Solution.derivations);
           ("complete", if s.Solution.outcome = Solution.Complete then 1 else 0);
         ])

(* ---------- rendering ---------- *)

let json_string s = "\"" ^ Ipa_support.Json.escape s ^ "\""

let json_list items = "[" ^ String.concat "," (List.map json_string items) ^ "]"

let truth_kind = function Query.Alias _ -> "alias" | _ -> "reach"

let render_json ?latency_us q result =
  let qs = json_string (Query.to_string q) in
  let base =
    match result with
  | Error e -> Printf.sprintf {|{"q":%s,"ok":false,"error":%s}|} qs (json_string e)
  | Ok (Names { kind; items }) ->
    Printf.sprintf {|{"q":%s,"ok":true,"kind":%s,"n":%d,"items":%s}|} qs (json_string kind)
      (List.length items) (json_list items)
  | Ok (Truth { holds; witness }) ->
    Printf.sprintf {|{"q":%s,"ok":true,"kind":%s,"holds":%b,"witness":%s}|} qs
      (json_string (truth_kind q)) holds (json_list witness)
  | Ok (Taint_report { seeds; findings }) ->
    Printf.sprintf {|{"q":%s,"ok":true,"kind":"taint","seeds":%d,"findings":[%s]}|} qs seeds
      (String.concat ","
         (List.map
            (fun (site, arg, sink) ->
              Printf.sprintf {|{"site":%s,"arg":%d,"sink":%s}|} (json_string site) arg
                (json_string sink))
            findings))
    | Ok (Stats_report kvs) ->
      Printf.sprintf {|{"q":%s,"ok":true,"kind":"stats",%s}|} qs
        (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s:%d" (json_string k) v) kvs))
  in
  match latency_us with
  | None -> base
  | Some us ->
    (* every record above closes with '}'; splice the latency in before it *)
    String.sub base 0 (String.length base - 1) ^ Printf.sprintf {|,"us":%d}|} us

let render_text ?latency_us q result =
  let qs = Query.to_string q in
  let base =
    match result with
  | Error e -> Printf.sprintf "%s: error: %s" qs e
  | Ok (Names { kind; items }) ->
    Printf.sprintf "%s: %d %s%s" qs (List.length items) kind
      (if items = [] then "" else ": " ^ String.concat ", " items)
  | Ok (Truth { holds; witness }) ->
    let label = match q with Query.Alias _ -> "witness" | _ -> "path" in
    Printf.sprintf "%s: %b%s" qs holds
      (if witness = [] then ""
       else Printf.sprintf " (%s: %s)" label
              (String.concat (match q with Query.Reach _ -> " -> " | _ -> ", ") witness))
  | Ok (Taint_report { seeds; findings }) ->
    Printf.sprintf "%s: %d finding(s), %d seed(s)%s" qs (List.length findings) seeds
      (if findings = [] then ""
       else
         ": "
         ^ String.concat "; "
             (List.map
                (fun (site, arg, sink) -> Printf.sprintf "%s arg %d -> %s" site arg sink)
                findings))
    | Ok (Stats_report kvs) ->
      Printf.sprintf "%s: %s" qs
        (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) kvs))
  in
  match latency_us with None -> base | Some us -> Printf.sprintf "%s [%dus]" base us

let render_error ~json ~q msg =
  if json then Printf.sprintf {|{"q":%s,"ok":false,"error":%s}|} (json_string q) (json_string msg)
  else Printf.sprintf "%s: error: %s" q msg

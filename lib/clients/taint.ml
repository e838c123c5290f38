module Program = Ipa_ir.Program
module Int_set = Ipa_support.Int_set
module Solution = Ipa_core.Solution
module Value_flow = Ipa_core.Value_flow

type spec = {
  sources : string list;
  source_classes : string list;
  sinks : string list;
  sanitizers : string list;
}

let default_spec =
  {
    sources = [ "*::mkSecret/0" ];
    source_classes = [ "Secret*" ];
    sinks = [ "*::consume/1" ];
    sanitizers = [ "*::scrub/1" ];
  }

(* Glob with '*' as "any substring"; everything else is literal. *)
let glob_match ~pat s =
  let np = String.length pat in
  let ns = String.length s in
  let rec go i j =
    if i = np then j = ns
    else if pat.[i] = '*' then go (i + 1) j || (j < ns && go i (j + 1))
    else j < ns && pat.[i] = s.[j] && go (i + 1) (j + 1)
  in
  go 0 0

let matches_any pats s = List.exists (fun pat -> glob_match ~pat s) pats

let spec_of_string text =
  let spec = ref { sources = []; source_classes = []; sinks = []; sanitizers = [] } in
  let error = ref None in
  String.split_on_char '\n' text
  |> List.iteri (fun lineno line ->
         if !error = None then begin
           let line =
             match String.index_opt line '#' with
             | Some i -> String.sub line 0 i
             | None -> line
           in
           match String.split_on_char ' ' (String.trim line) |> List.filter (( <> ) "") with
           | [] -> ()
           | [ "source"; pat ] -> spec := { !spec with sources = pat :: !spec.sources }
           | [ "source-class"; pat ] ->
             spec := { !spec with source_classes = pat :: !spec.source_classes }
           | [ "sink"; pat ] -> spec := { !spec with sinks = pat :: !spec.sinks }
           | [ "sanitizer"; pat ] -> spec := { !spec with sanitizers = pat :: !spec.sanitizers }
           | word :: _ ->
             error :=
               Some
                 (Printf.sprintf
                    "line %d: expected 'source|source-class|sink|sanitizer PATTERN', got '%s'"
                    (lineno + 1) word)
         end);
  match !error with
  | Some e -> Error e
  | None ->
    let s = !spec in
    Ok
      {
        sources = List.rev s.sources;
        source_classes = List.rev s.source_classes;
        sinks = List.rev s.sinks;
        sanitizers = List.rev s.sanitizers;
      }

let spec_of_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> spec_of_string text
  | exception Sys_error msg -> Error msg

let spec_to_string spec =
  String.concat "\n"
    (List.map (fun p -> "source " ^ p) spec.sources
    @ List.map (fun p -> "source-class " ^ p) spec.source_classes
    @ List.map (fun p -> "sink " ^ p) spec.sinks
    @ List.map (fun p -> "sanitizer " ^ p) spec.sanitizers)

type finding = {
  invo : Program.invo_id;
  sink : Program.meth_id;
  arg : int;
  path : Value_flow.node list;
}

type result = {
  spec : spec;
  findings : finding list;
  n_seeds : int;
  vfg : Value_flow.t option;
}

let analyze ?(spec = default_spec) (s : Solution.t) =
  let p = s.Solution.program in
  let reachable = Solution.reachable_meths s in
  (* Taint-introduction sites, found on the program text of reachable
     methods — cheap enough to decide the fast path before building the
     value-flow graph. *)
  let source_rets = ref [] in
  let source_allocs = ref [] in
  Int_set.iter
    (fun m ->
      let mi = Program.meth_info p m in
      (if matches_any spec.sources (Program.meth_full_name p m) then
         match mi.ret_var with
         | Some rv -> source_rets := rv :: !source_rets
         | None -> ());
      if spec.source_classes <> [] then
        Array.iter
          (fun (i : Program.instr) ->
            match i with
            | Alloc { target; heap } ->
              if
                matches_any spec.source_classes
                  (Program.class_name p (Program.heap_info p heap).heap_class)
              then source_allocs := target :: !source_allocs
            | _ -> ())
          mi.body)
    reachable;
  let n_seeds = List.length !source_rets + List.length !source_allocs in
  if n_seeds = 0 then { spec; findings = []; n_seeds = 0; vfg = None }
  else begin
    let vfg = Value_flow.build s in
    let seeds = List.map (Value_flow.var_node vfg) (!source_rets @ !source_allocs) in
    let sanitizer_meths = Array.make (Program.n_meths p) false in
    if spec.sanitizers <> [] then
      Int_set.iter
        (fun m ->
          if matches_any spec.sanitizers (Program.meth_full_name p m) then
            sanitizer_meths.(m) <- true)
        reachable;
    let blocked n =
      match Value_flow.kind vfg n with
      | Value_flow.Var v -> sanitizer_meths.((Program.var_info p v).var_owner)
      | Value_flow.Exc m -> sanitizer_meths.(m)
      | Value_flow.Fld _ | Value_flow.Static_fld _ -> false
    in
    let tainted = Value_flow.reachable ~blocked vfg ~seeds in
    let targets = Solution.call_targets s in
    let findings = ref [] in
    for invo = Program.n_invos p - 1 downto 0 do
      match Hashtbl.find_opt targets invo with
      | None -> ()
      | Some meths ->
        let sink_targets =
          Int_set.fold
            (fun m acc -> if matches_any spec.sinks (Program.meth_full_name p m) then m :: acc else acc)
            meths []
        in
        (match List.sort compare sink_targets with
        | [] -> ()
        | sink :: _ ->
          let ii = Program.invo_info p invo in
          Array.iteri
            (fun arg actual ->
              let node = Value_flow.var_node vfg actual in
              if Int_set.mem tainted node then
                let path = Value_flow.find_path ~blocked vfg ~seeds ~target:node in
                findings :=
                  { invo; sink; arg; path = Option.value path ~default:[] } :: !findings)
            ii.actuals)
    done;
    { spec; findings = !findings; n_seeds; vfg = Some vfg }
  end

let tainted_sink_count ?spec s = List.length (analyze ?spec s).findings


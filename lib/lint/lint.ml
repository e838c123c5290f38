module Program = Ipa_ir.Program
module Diagnostic = Ipa_ir.Diagnostic
module Wf = Ipa_ir.Wf
module Solution = Ipa_core.Solution
module Taint = Ipa_clients.Taint

type ctx = {
  program : Program.t;
  solution : Solution.t option;
  taint_spec : Taint.spec option;
  megamorphic_threshold : int;
}

let make_ctx ?solution ?taint_spec ?(megamorphic_threshold = 3) program =
  { program; solution; taint_spec; megamorphic_threshold }

type source = Syntactic | Solution_backed

type rule = {
  id : string;
  name : string;
  doc : string;
  severity : Diagnostic.severity;
  source : source;
  monotone : bool;
  run : ctx -> Diagnostic.t list;
}

let syn ~id ~name ~doc ~severity run =
  { id; name; doc; severity; source = Syntactic; monotone = true; run = (fun ctx -> run ctx.program) }

let sem ~id ~name ~doc ~severity ~monotone run =
  {
    id;
    name;
    doc;
    severity;
    source = Solution_backed;
    monotone;
    run = (fun ctx -> match ctx.solution with None -> [] | Some s -> run s);
  }

(* The registry, in id order. IPA-W000 fans out to the per-check IPA-Wnnn
   ids of the well-formedness checker; programs built through Builder or the
   front-end are always well-formed, so it only fires on handcrafted
   Program.make values — but lint must not assume its input's provenance. *)
let all_rules : rule list =
  [
    {
      id = "IPA-W000";
      name = "well-formedness";
      doc = "Structural invariants of the IR (reported under IPA-W001 .. IPA-W020).";
      severity = Error;
      source = Syntactic;
      monotone = true;
      run = (fun ctx -> Wf.diagnostics ctx.program);
    };
    syn ~id:"IPA-S001" ~name:"unreachable-method"
      ~doc:"Concrete method unreachable from the entry points under name-and-arity dispatch."
      ~severity:Warning Syntactic.unreachable_method;
    syn ~id:"IPA-S002" ~name:"unused-variable"
      ~doc:"Declared local never referenced by any instruction or catch clause."
      ~severity:Info Syntactic.unused_variable;
    syn ~id:"IPA-S003" ~name:"write-only-field"
      ~doc:"Field written but never read (or never referenced at all)."
      ~severity:Info Syntactic.write_only_field;
    syn ~id:"IPA-S004" ~name:"impossible-cast"
      ~doc:"Cast to a type with no allocated subtype anywhere in the program."
      ~severity:Warning Syntactic.impossible_cast;
    syn ~id:"IPA-S005" ~name:"shadowed-catch"
      ~doc:"Catch clause fully shadowed by an earlier clause of a supertype."
      ~severity:Warning Syntactic.shadowed_catch;
    sem ~id:"IPA-P001" ~name:"may-fail-cast"
      ~doc:"Cast with at least one points-to witness that fails it." ~severity:Warning
      ~monotone:true Semantic.may_fail_cast;
    sem ~id:"IPA-P002" ~name:"failing-cast"
      ~doc:"Cast with a non-empty points-to set in which every object fails." ~severity:Error
      ~monotone:false Semantic.failing_cast;
    sem ~id:"IPA-P003" ~name:"empty-deref"
      ~doc:"Dereference whose base has an empty points-to set in a reachable method."
      ~severity:Warning ~monotone:false Semantic.empty_deref;
    {
      id = "IPA-P004";
      name = "megamorphic-call";
      doc = "Virtual call resolving to at least the threshold number of targets.";
      severity = Info;
      source = Solution_backed;
      monotone = true;
      run =
        (fun ctx ->
          match ctx.solution with
          | None -> []
          | Some s -> Semantic.megamorphic_call ~threshold:ctx.megamorphic_threshold s);
    };
    {
      id = "IPA-P005";
      name = "taint-flow";
      doc = "Tainted value reaching a sink argument, with a value-flow witness path.";
      severity = Error;
      source = Solution_backed;
      monotone = true;
      run =
        (fun ctx ->
          match ctx.solution with
          | None -> []
          | Some s -> Semantic.taint_flow ?spec:ctx.taint_spec s);
    };
    sem ~id:"IPA-P006" ~name:"dead-method"
      ~doc:"Concrete non-entry method unreachable in the solution's call graph." ~severity:Info
      ~monotone:false Semantic.dead_method;
  ]

let find_rule id = List.find_opt (fun r -> r.id = id) all_rules

(* Rule selection: comma-separated ids and [id-] exclusions; "all",
   "syntactic", "semantic" select families. *)
let select_rules spec =
  match spec with
  | None -> Ok all_rules
  | Some spec ->
    let toks =
      String.split_on_char ',' spec |> List.map String.trim
      |> List.filter (fun s -> s <> "")
    in
    let unknown =
      List.filter
        (fun t ->
          let t = if String.length t > 1 && t.[String.length t - 1] = '-' then String.sub t 0 (String.length t - 1) else t in
          not (List.mem t [ "all"; "syntactic"; "semantic" ]) && find_rule t = None)
        toks
    in
    if unknown <> [] then Error (Printf.sprintf "unknown rule(s): %s" (String.concat ", " unknown))
    else begin
      let excluded =
        List.filter_map
          (fun t ->
            if String.length t > 1 && t.[String.length t - 1] = '-' then
              Some (String.sub t 0 (String.length t - 1))
            else None)
          toks
      in
      let included = List.filter (fun t -> not (String.length t > 1 && t.[String.length t - 1] = '-')) toks in
      let base =
        if included = [] then all_rules
        else
          List.filter
            (fun r ->
              List.exists
                (fun t ->
                  t = "all" || t = r.id
                  || (t = "syntactic" && r.source = Syntactic)
                  || (t = "semantic" && r.source = Solution_backed))
                included)
            all_rules
      in
      Ok (List.filter (fun r -> not (List.mem r.id excluded)) base)
    end

type timing = { rule_id : string; seconds : float; n_findings : int }

let run ?(rules : rule list option) (ctx : ctx) : Diagnostic.t list * timing list =
  let rules = match rules with Some rs -> rs | None -> all_rules in
  let timed (r : rule) =
    let t0 = Unix.gettimeofday () in
    let ds = r.run ctx in
    let dt = Unix.gettimeofday () -. t0 in
    (ds, { rule_id = r.id; seconds = dt; n_findings = List.length ds })
  in
  let results = List.map timed rules in
  let ds = List.concat_map fst results in
  (List.sort_uniq Diagnostic.compare ds, List.map snd results)

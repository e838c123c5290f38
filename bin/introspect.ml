(* introspect — command-line front door to the introspective points-to
   analysis library.

   Every solving subcommand (analyze, the solution reports, solve, query,
   serve, lint) takes the same analysis request — FILE, -a, -i, --budget —
   parsed by one term and solved by [solve_request]. The rest: check, gen,
   metrics, compare, export-dl, datalog, cache and experiments. *)

module Program = Ipa_ir.Program
module Flavors = Ipa_core.Flavors
module Heuristics = Ipa_core.Heuristics
module Analysis = Ipa_core.Analysis
module Snapshot = Ipa_core.Snapshot
module Cache = Ipa_harness.Cache
open Cmdliner

let load_program path =
  match Ipa_frontend.Jir.parse_file path with
  | Ok p -> Ok p
  | Error e -> Error (Ipa_frontend.Jir.error_to_string e)

(* Run [k] on the parsed program, or print the parse error and exit 1. *)
let with_program path k =
  match load_program path with
  | Error msg ->
    prerr_endline msg;
    1
  | Ok p -> k p

(* ---------- numeric values ---------- *)

(* One converter per kind of numeric value: a bad value is a usage error
   (exit 124) when the arguments are parsed, not a crash or a silently
   ignored setting later. *)
let checked_int ~what ok =
  let parse s =
    match int_of_string_opt s with
    | Some n when ok n -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected %s integer, got %S" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

let non_negative = checked_int ~what:"a non-negative" (fun n -> n >= 0)
let positive = checked_int ~what:"a positive" (fun n -> n > 0)

let finite_positive =
  let parse s =
    match float_of_string_opt s with
    | Some x when Float.is_finite x && x > 0.0 -> Ok x
    | _ -> Error (`Msg (Printf.sprintf "expected a finite positive number, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

(* ---------- shared flags ---------- *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Input .jir program.")

let flavor_conv =
  let parse s =
    match Flavors.of_string s with
    | Some f -> Ok f
    | None -> Error (`Msg (Printf.sprintf "unknown analysis %S (try insens, 2objH, 2callH, 2typeH, 2hybH)" s))
  in
  let print ppf f = Format.pp_print_string ppf (Flavors.to_string f) in
  Arg.conv (parse, print)

let analysis_arg =
  Arg.(
    value
    & opt flavor_conv (Flavors.Object_sens { depth = 2; heap = 1 })
    & info [ "a"; "analysis" ] ~docv:"ANALYSIS"
        ~doc:"Context-sensitivity flavor: insens, 1callH, 2callH, 1objH, 2objH, 2typeH, 2hybH, ...")

let heuristic_arg =
  let parse s =
    match String.uppercase_ascii s with
    | "A" -> Ok (Some Heuristics.default_a)
    | "B" -> Ok (Some Heuristics.default_b)
    | "NONE" -> Ok None
    | _ -> Error (`Msg "expected A, B or none")
  in
  let print ppf = function
    | Some h -> Format.pp_print_string ppf (Heuristics.name h)
    | None -> Format.pp_print_string ppf "none"
  in
  Arg.(
    value
    & opt (conv (parse, print)) None
    & info [ "i"; "introspective" ] ~docv:"HEURISTIC"
        ~doc:"Run introspectively with the paper's Heuristic A or B.")

let budget_arg ?(default = 0)
    ?(doc = "Derivation budget (deterministic timeout); 0 means unlimited.") () =
  Arg.(value & opt non_negative default & info [ "budget" ] ~docv:"N" ~doc)

let scale_arg =
  Arg.(
    value
    & opt finite_positive 1.0
    & info [ "scale" ] ~docv:"S" ~doc:"Benchmark size multiplier (default 1.0).")

let output_arg ?(doc = "Output file.") () =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let json_arg ~doc = Arg.(value & flag & info [ "json" ] ~doc)

let jobs_arg ~default ~doc =
  Arg.(value & opt positive default & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let cache_dir_arg ~doc =
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let load_solution_arg ~doc =
  Arg.(value & opt (some file) None & info [ "load-solution" ] ~docv:"FILE" ~doc)

(* ---------- the analysis request ---------- *)

(* What every solving subcommand asks for: a program, a flavor, optionally
   the paper's Heuristic A or B, and a derivation budget. *)
type request = {
  path : string;
  flavor : Flavors.spec;
  heuristic : Heuristics.t option;
  budget : int;
}

let request =
  let make path flavor heuristic budget = { path; flavor; heuristic; budget } in
  Term.(const make $ file_arg $ analysis_arg $ heuristic_arg $ budget_arg ())

type solved = {
  intro : Analysis.introspective option;  (* the first pass and selection, if introspective *)
  config : Ipa_core.Solver.config;  (* what [result] solved: the snapshot key's input *)
  result : Analysis.result;
}

(* The one place a request becomes a solve: a plain pass of the flavor, or
   the paper's recipe — insens pass, the six metrics, the heuristic's
   selection, the refined pass. With [cache], the plain pass, the shared
   insens pass and the refined pass all go through the snapshot cache. *)
let solve_request ?cache p req =
  let solve ~label config =
    match cache with
    | None -> Analysis.run_config p ~label config
    | Some c -> fst (Cache.solve c p ~label config)
  in
  match req.heuristic with
  | None ->
    let config = Ipa_core.Solver.plain p ~budget:req.budget (Flavors.strategy p req.flavor) in
    { intro = None; config; result = solve ~label:(Flavors.to_string req.flavor) config }
  | Some h ->
    let base = Option.map (fun c -> Cache.base_pass c ~budget:req.budget p) cache in
    let ir = Analysis.run_introspective ~budget:req.budget ?base ~solve p req.flavor h in
    let config = Analysis.second_pass_config ~budget:req.budget p req.flavor ir.refine in
    { intro = Some ir; config; result = ir.second }

(* A snapshot file saved by [solve --save-solution], decoded against the
   program it was computed from. *)
let read_snapshot p path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | bytes ->
    Result.map_error
      (fun e -> Printf.sprintf "%s: %s" path (Snapshot.error_to_string e))
      (Snapshot.decode ~program:p bytes)

(* ---------- check ---------- *)

let check_cmd =
  let run path =
    with_program path @@ fun p ->
    Printf.printf "%s: ok (%d classes, %d methods, %d variables, %d allocation sites)\n" path
      (Program.n_classes p) (Program.n_meths p) (Program.n_vars p) (Program.n_heaps p);
    0
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Parse and validate a .jir program.")
    Term.(const run $ file_arg)

(* ---------- analyze ---------- *)

let print_result ~verbose p (r : Analysis.result) =
  let st = Ipa_core.Solution.stats r.solution in
  Printf.printf "analysis      %s\n" r.label;
  Printf.printf "time          %.3fs%s\n" r.seconds (if r.timed_out then "  (budget exceeded)" else "");
  Printf.printf "derivations   %d\n" r.solution.derivations;
  Printf.printf "var-points-to %d tuples   field-points-to %d   call edges %d   contexts %d\n"
    st.vpt_tuples st.fpt_tuples st.cg_edges st.n_contexts;
  if not r.timed_out then begin
    let prec = Ipa_core.Precision.compute r.solution in
    Printf.printf
      "precision     poly-vcalls %d   reachable methods %d   may-fail casts %d\n"
      prec.poly_vcalls prec.reachable_methods prec.may_fail_casts
  end;
  if verbose then begin
    let vpt = Ipa_core.Solution.collapsed_var_pts r.solution in
    Array.iteri
      (fun v set ->
        if Ipa_support.Int_set.cardinal set > 0 then
          Printf.printf "%s -> {%s}\n" (Program.var_full_name p v)
            (String.concat ", "
               (List.map (Program.heap_full_name p) (Ipa_support.Int_set.to_sorted_list set))))
      vpt
  end

let print_first_pass (ir : Analysis.introspective) =
  Printf.printf "first pass    %s  %.3fs  (%d derivations)\n" ir.base.label ir.base.seconds
    ir.base.solution.derivations

let analyze_cmd =
  let run req verbose =
    with_program req.path @@ fun p ->
    let s = solve_request p req in
    Option.iter
      (fun (ir : Analysis.introspective) ->
        print_first_pass ir;
        Printf.printf "selection     %d/%d sites and %d/%d objects kept context-insensitive\n"
          ir.selection.sites_skipped ir.selection.sites_total ir.selection.objects_skipped
          ir.selection.objects_total)
      s.intro;
    print_result ~verbose p s.result;
    0
  in
  let verbose_arg =
    Arg.(value & flag & info [ "points-to" ] ~doc:"Print the collapsed var-points-to relation.")
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Run a points-to analysis on a .jir program.")
    Term.(const run $ request $ verbose_arg)

(* ---------- solution reports ---------- *)

(* A report subcommand: solve the request and hand the solution to the
   printer [report] evaluates to; an [Error] (a bad spec file) stops before
   solving. [json] moves the analysis banner to stderr so machine-readable
   reports stay parseable. A budget overrun prints the partial report and
   exits 1. *)
let report_cmd name ~doc ?(json = Term.const false) report =
  let run req json = function
    | Error msg ->
      prerr_endline msg;
      1
    | Ok print ->
      with_program req.path @@ fun p ->
      let r = (solve_request p req).result in
      if r.timed_out then
        Printf.eprintf "%s exceeded its derivation budget; results are partial\n" r.label
      else
        Printf.fprintf (if json then stderr else stdout) "analysis: %s (%.3fs)\n\n" r.label
          r.seconds;
      print p r.solution;
      if r.timed_out then 1 else 0
  in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ request $ json $ report)

let findings_json_arg =
  json_arg ~doc:"Emit one JSON object per finding (the lint jsonl format) instead of text."

let devirt_cmd =
  let report json =
    Ok
      (fun _ s ->
        (* Threshold 2 = every polymorphic site, as the old report showed. *)
        let ds =
          List.sort_uniq Ipa_ir.Diagnostic.compare
            (Ipa_lint.Semantic.megamorphic_call ~threshold:2 s)
        in
        if json then print_string (Ipa_lint.Report.jsonl ds)
        else begin
          let vcalls = Ipa_core.Precision.vcalls s in
          let count pred = List.length (List.filter pred vcalls) in
          let targets n (v : Ipa_core.Precision.vcall) = List.compare_length_with v.targets n = 0 in
          Printf.printf "monomorphic %d   polymorphic %d   unreachable %d\n\n" (count (targets 1))
            (count Ipa_core.Precision.polymorphic) (count (targets 0));
          print_string (Ipa_lint.Report.human ds)
        end)
  in
  report_cmd "devirt" ~doc:"Report devirtualizable and polymorphic call sites."
    ~json:findings_json_arg
    Term.(const report $ findings_json_arg)

let casts_cmd =
  let report json =
    Ok
      (fun _ s ->
        let ds =
          List.sort_uniq Ipa_ir.Diagnostic.compare (Ipa_lint.Semantic.may_fail_cast s)
        in
        if json then print_string (Ipa_lint.Report.jsonl ds)
        else begin
          Printf.printf "casts that may fail: %d\n\n" (List.length ds);
          print_string (Ipa_lint.Report.human ds)
        end)
  in
  report_cmd "casts" ~doc:"Report casts that may fail under the analysis." ~json:findings_json_arg
    Term.(const report $ findings_json_arg)

let exceptions_cmd =
  report_cmd "exceptions" ~doc:"Report uncaught exceptions and handler contents."
    (Term.const (Ok (fun _ s -> Ipa_clients.Exception_report.print s)))

let hotspots_cmd =
  report_cmd "hotspots"
    ~doc:"Show the methods and allocation sites dominating the analysis cost."
    (Term.const (Ok (fun _ s -> Ipa_core.Diagnostics.print s)))

let callgraph_cmd =
  let report output =
    Ok
      (fun _ s ->
        match output with
        | Some out ->
          Ipa_clients.Callgraph_export.write_dot s ~path:out;
          Printf.printf "wrote %s (%d edges)\n" out
            (List.length (Ipa_clients.Callgraph_export.to_edges s))
        | None -> print_string (Ipa_clients.Callgraph_export.to_dot s))
  in
  report_cmd "callgraph" ~doc:"Export the collapsed call graph as Graphviz DOT."
    Term.(const report $ output_arg ~doc:"DOT file." ())

let taint_cmd =
  let report spec_path =
    let spec =
      match spec_path with
      | None -> Ok Ipa_clients.Taint.default_spec
      | Some sp -> Ipa_clients.Taint.spec_of_file sp
    in
    Result.map
      (fun spec p s ->
        (match Ipa_core.Solution.self_check s with
        | [] -> Printf.printf "self-check: ok\n"
        | errs ->
          Printf.printf "self-check: %d violation(s)\n" (List.length errs);
          List.iter print_endline errs);
        let res = Ipa_clients.Taint.analyze ~spec s in
        Printf.printf "tainted sinks: %d   (taint seeds: %d)\n\n" (List.length res.findings)
          res.n_seeds;
        if res.findings <> [] then begin
          Ipa_support.Ascii_table.print
            ~aligns:Ipa_support.Ascii_table.[ Left; Left; Right; Left ]
            ~header:[ "sink call site"; "in method"; "arg"; "resolved sink" ]
            (List.map
               (fun (f : Ipa_clients.Taint.finding) ->
                 let ii = Program.invo_info p f.invo in
                 [
                   ii.invo_name;
                   Program.meth_full_name p ii.invo_owner;
                   string_of_int f.arg;
                   Program.meth_full_name p f.sink;
                 ])
               res.findings);
          match res.vfg with
          | None -> ()
          | Some vfg ->
            List.iter
              (fun (f : Ipa_clients.Taint.finding) ->
                match f.path with
                | [] -> ()
                | path ->
                  Printf.printf "\n%s arg %d:\n  %s\n"
                    (Program.invo_info p f.invo).invo_name f.arg
                    (String.concat " -> "
                       (List.map (Ipa_core.Value_flow.node_to_string vfg) path)))
              res.findings
        end)
      spec
  in
  let spec_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "spec" ] ~docv:"FILE"
          ~doc:
            "Taint specification: one directive per line ($(b,source PAT), \
             $(b,source-class PAT), $(b,sink PAT), $(b,sanitizer PAT)); # comments. \
             Defaults to the built-in mkSecret/consume/scrub spec.")
  in
  report_cmd "taint"
    ~doc:"Report source-to-sink taint flows over the solution's value-flow graph."
    Term.(const report $ spec_arg)

let dump_cmd =
  let report full output =
    Ok
      (fun _ s ->
        match output with
        | Some out ->
          Ipa_clients.Facts_dump.write ~full s ~path:out;
          Printf.printf "wrote %s\n" out
        | None ->
          List.iter print_endline
            (if full then Ipa_clients.Facts_dump.full_lines s
             else Ipa_clients.Facts_dump.collapsed_lines s))
  in
  let full_arg =
    Arg.(value & flag & info [ "full" ] ~doc:"Dump the context-sensitive relations.")
  in
  report_cmd "dump" ~doc:"Dump the computed relations as diffable text facts."
    Term.(const report $ full_arg $ output_arg ())

let compare_cmd =
  let run path coarse fine budget =
    with_program path @@ fun p ->
    let a = Analysis.run_plain ~budget p coarse in
    let b = Analysis.run_plain ~budget p fine in
    if a.timed_out || b.timed_out then begin
      prerr_endline "an analysis exceeded its budget; diff would be misleading";
      1
    end
    else begin
      Printf.printf "%s (%.3fs)  vs  %s (%.3fs)\n\n" a.label a.seconds b.label b.seconds;
      Ipa_clients.Compare.print a.solution b.solution;
      0
    end
  in
  let coarse_arg =
    Arg.(
      value
      & opt flavor_conv Flavors.Insensitive
      & info [ "from" ] ~docv:"ANALYSIS" ~doc:"Coarse analysis (default insens).")
  in
  let fine_arg =
    Arg.(
      value
      & opt flavor_conv (Flavors.Object_sens { depth = 2; heap = 1 })
      & info [ "to" ] ~docv:"ANALYSIS" ~doc:"Fine analysis (default 2objH).")
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Diff the precision of two analyses, site by site.")
    Term.(const run $ file_arg $ coarse_arg $ fine_arg $ budget_arg ())

(* ---------- metrics ---------- *)

let metrics_cmd =
  let run path top =
    with_program path @@ fun p ->
    let base = Analysis.run_plain p Flavors.Insensitive in
    let m = Ipa_core.Introspection.compute base.solution in
    let show name values describe =
      let ranked =
        List.filter
          (fun (v, _) -> v > 0)
          (List.sort (fun a b -> compare b a)
             (Array.to_list (Array.mapi (fun i v -> (v, i)) values)))
      in
      Printf.printf "-- %s (top %d of %d non-zero) --\n" name top (List.length ranked);
      List.iteri
        (fun rank (v, i) -> if rank < top then Printf.printf "%8d  %s\n" v (describe i))
        ranked
    in
    let meth = Program.meth_full_name p in
    let heap = Program.heap_full_name p in
    let invo i = (Program.invo_info p i).invo_name in
    show "argument in-flow (metric 1)" m.in_flow invo;
    show "method total points-to volume (metric 2)" m.meth_total_volume meth;
    show "object max field points-to (metric 3)" m.obj_max_field heap;
    show "method max var-field points-to (metric 4)" m.meth_max_var_field meth;
    show "pointed-by-vars (metric 5)" m.pointed_by_vars heap;
    show "pointed-by-objs (metric 6)" m.pointed_by_objs heap;
    0
  in
  let top_arg =
    Arg.(value & opt non_negative 10 & info [ "top" ] ~docv:"K" ~doc:"Entries per metric.")
  in
  Cmd.v
    (Cmd.info "metrics" ~doc:"Print the six introspection cost metrics of the paper (§3).")
    Term.(const run $ file_arg $ top_arg)

(* ---------- gen ---------- *)

let gen_cmd =
  let run name scale output edits seed kinds_str =
    match Ipa_synthetic.Dacapo.find name with
    | None ->
      Printf.eprintf "unknown benchmark %S; available: %s\n" name
        (String.concat ", "
           (List.map (fun (s : Ipa_synthetic.Dacapo.spec) -> s.name) Ipa_synthetic.Dacapo.all));
      1
    | Some spec -> (
      let seed = Option.value seed ~default:spec.seed in
      let kinds =
        match kinds_str with
        | "all" -> Ok Ipa_synthetic.Edits.all_kinds
        | "monotone" -> Ok Ipa_synthetic.Edits.monotone_kinds
        | s -> (
          match Ipa_synthetic.Edits.kind_of_name s with
          | Some k -> Ok [ k ]
          | None ->
            Error
              (Printf.sprintf
                 "unknown edit kind %S (expected all, monotone, add-alloc, add-call, or \
                  rewrite-body)"
                 s))
      in
      match kinds with
      | Error msg ->
        prerr_endline msg;
        1
      | Ok kinds ->
        let p = Ipa_synthetic.Dacapo.build ~scale spec in
        let p =
          if edits <= 0 then p
          else begin
            (* Descriptions go to stderr: stdout may be the program text
               itself. *)
            let picked = Ipa_synthetic.Edits.pick ~kinds ~seed ~n:edits p in
            List.iter
              (fun e -> Printf.eprintf "edit: %s\n" (Ipa_synthetic.Edits.describe p e))
              picked;
            Ipa_synthetic.Edits.apply_all p picked
          end
        in
        let text = Ipa_ir.Pretty.program p in
        (match output with
        | Some path ->
          Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc text);
          Printf.printf "wrote %s (%d classes, %d methods)\n" path (Program.n_classes p)
            (Program.n_meths p)
        | None -> print_string text);
        0)
  in
  let name_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BENCH" ~doc:"Benchmark name (antlr, bloat, ..., xalan).")
  in
  let edit_arg =
    Arg.(
      value
      & opt int 0
      & info [ "edit" ] ~docv:"N"
          ~doc:
            "Apply $(docv) seeded random edits after generation (for the incremental-analysis \
             harness); the chosen deltas are described on stderr.")
  in
  let seed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Seed the $(b,--edit) delta picker (default: a fixed per-benchmark seed), so equal \
             seeds yield byte-identical edited programs. Generation itself takes no seed: the \
             base program depends only on the benchmark and $(b,--scale).")
  in
  let edit_kinds_arg =
    Arg.(
      value
      & opt string "all"
      & info [ "edit-kinds" ] ~docv:"KINDS"
          ~doc:
            "Restrict $(b,--edit) deltas: $(b,all), $(b,monotone) (extensions only — what the \
             warm incremental path accepts), or a single kind ($(b,add-alloc), $(b,add-call), \
             $(b,rewrite-body)).")
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a synthetic DaCapo-like benchmark as .jir text.")
    Term.(const run $ name_arg $ scale_arg $ output_arg () $ edit_arg $ seed_arg $ edit_kinds_arg)

let export_dl_cmd =
  let run path output =
    with_program path @@ fun p ->
    let text = Ipa_clients.Dl_export.script p in
    (match output with
    | Some out ->
      Out_channel.with_open_text out (fun oc -> Out_channel.output_string oc text);
      Printf.printf "wrote %s\n" out
    | None -> print_string text);
    0
  in
  Cmd.v
    (Cmd.info "export-dl"
       ~doc:"Export the program and the context-insensitive analysis as a runnable .dl file.")
    Term.(const run $ file_arg $ output_arg ())

(* ---------- datalog ---------- *)

let datalog_cmd =
  let run path budget =
    match In_channel.with_open_text path In_channel.input_all with
    | exception Sys_error msg ->
      prerr_endline msg;
      1
    | src -> (
      match Ipa_datalog.Dl.parse src with
      | Error msg ->
        Printf.eprintf "%s: %s\n" path msg;
        1
      | Ok program -> (
        match Ipa_datalog.Dl.run_to_string ~budget program with
        | Error msg ->
          Printf.eprintf "%s: %s\n" path msg;
          1
        | Ok out ->
          print_string out;
          0))
  in
  let dl_file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Datalog program (.dl).")
  in
  Cmd.v
    (Cmd.info "datalog"
       ~doc:"Evaluate a standalone Datalog program on the analysis engine.")
    Term.(const run $ dl_file $ budget_arg ())

(* ---------- solve: snapshot save/load ---------- *)

let solve_cmd =
  let print_report (r : Ipa_core.Compositional_solver.report) =
    Printf.printf "components    %d\n" r.n_sccs;
    match r.fallback with
    | Some reason -> Printf.printf "fallback      cold solve (%s)\n" reason
    | None ->
      Printf.printf "dirty sccs    [%s]\n"
        (String.concat "; " (List.map string_of_int r.dirty_sccs));
      Printf.printf "installed     %d facts, %d edges\n" r.installed_facts r.installed_edges
  in
  let load p snap_path =
    (* Load a previously saved snapshot instead of solving. *)
    match read_snapshot p snap_path with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok snap ->
      let r =
        {
          Analysis.label = snap.label;
          solution = snap.solution;
          seconds = snap.seconds;
          timed_out = snap.solution.outcome = Budget_exceeded;
        }
      in
      Printf.printf "loaded %s (solved in %.3fs when saved)\n" snap_path snap.seconds;
      print_result ~verbose:false p r;
      (match Ipa_core.Solution.self_check snap.solution with
      | [] ->
        Printf.printf "self-check    ok\n";
        0
      | errs ->
        Printf.printf "self-check    %d violation(s)\n" (List.length errs);
        List.iter print_endline errs;
        1)
  in
  let solve p req edit_from =
    match (edit_from, req.heuristic) with
    | Some _, Some _ -> Error "--edit-from runs a single-pass analysis; drop --introspective"
    | Some base_path, None ->
      (* [req.path] is the edited program, [base_path] the baseline it
         (presumably) extends; the baseline is solved cold here, then the
         edited program warm-starts from it. Parsed ids are file-order
         artifacts, so the edited program is first realigned onto the
         baseline's ids by entity name; an unalignable delta simply fails
         the monotonicity check and solves cold. *)
      Result.map
        (fun base_program ->
          let p =
            Option.value ~default:p (Ipa_core.Summary.align ~old_p:base_program ~new_p:p)
          in
          let base = Analysis.run_plain base_program req.flavor in
          Printf.printf "baseline      %s  %.3fs  (%d derivations)\n" base.label base.seconds
            base.solution.derivations;
          let result, report =
            Analysis.run_incremental p ~base_program ~base_solution:base.solution req.flavor
          in
          let config = Ipa_core.Solver.plain p (Flavors.strategy p req.flavor) in
          (p, result, config, Some report))
        (load_program base_path)
    | None, _ ->
      let s = solve_request p req in
      Option.iter print_first_pass s.intro;
      Ok (p, s.result, s.config, None)
  in
  let save p (result : Analysis.result) config out =
    let program_digest = Snapshot.digest_program p in
    let key = Snapshot.config_key ~program_digest config in
    let snap =
      {
        Snapshot.key;
        program_digest;
        label = result.label;
        seconds = result.seconds;
        solution = result.solution;
        metrics = Some (Ipa_core.Introspection.compute result.solution);
      }
    in
    let bytes = Snapshot.encode snap in
    Out_channel.with_open_bin out (fun oc -> Out_channel.output_string oc bytes);
    Printf.printf "saved         %s (%d bytes, key %s)\n" out (String.length bytes) key
  in
  let run req save_path load_path edit_from =
    with_program req.path @@ fun p ->
    match load_path with
    | Some snap_path -> load p snap_path
    | None -> (
      match solve p req edit_from with
      | Error msg ->
        prerr_endline msg;
        1
      | Ok (p, result, config, report) ->
        print_result ~verbose:false p result;
        Option.iter print_report report;
        Option.iter (save p result config) save_path;
        0)
  in
  let save_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-solution" ] ~docv:"FILE"
          ~doc:"Write the solved analysis (tables, counters, metrics) as a snapshot file.")
  in
  let edit_from_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "edit-from" ] ~docv:"BASE.jir"
          ~doc:
            "Incremental mode: treat $(i,FILE) as an edited version of $(docv), solve the \
             baseline, and re-solve the edit warm from its fixpoint — only the facts the \
             edit adds are derived. The dirty call-graph components are reported, not \
             re-derived.")
  in
  Cmd.v
    (Cmd.info "solve"
       ~doc:"Run an analysis and save the solution as a snapshot, or reload a saved one.")
    Term.(
      const run $ request $ save_arg
      $ load_solution_arg
          ~doc:
            "Load a snapshot saved with $(b,--save-solution) instead of solving; the program \
             must be the same one the snapshot was computed from."
      $ edit_from_arg)

(* ---------- cache maintenance ---------- *)

let cache_group_dir =
  Term.(
    const (Option.value ~default:(Cache.default_dir ()))
    $ cache_dir_arg
        ~doc:"Snapshot cache directory (default: \\$XDG_CACHE_HOME/ipa or ~/.cache/ipa).")

let cache_stats_cmd =
  let run dir =
    let entries = Cache.entries ~dir in
    if entries = [] then Printf.printf "%s: no cached entries\n" dir
    else begin
      Printf.printf "%s: %d cached entr%s\n" dir (List.length entries)
        (if List.length entries = 1 then "y" else "ies");
      let rows =
        List.map
          (fun (e : Cache.disk_entry) ->
            [
              e.entry_file;
              (match e.entry_kind with
              | Some k -> Cache.kind_name k
              | None -> "invalid");
              string_of_int e.entry_bytes;
              e.entry_describe;
              (match e.entry_seconds with Some s -> Printf.sprintf "%.3f" s | None -> "-");
            ])
          entries
      in
      Ipa_support.Ascii_table.print
        ~header:[ "entry"; "kind"; "bytes"; "label"; "solve(s)" ]
        rows;
      (* Per-kind rollup: entry counts and resident (on-disk) bytes. *)
      let bucket kind =
        List.fold_left
          (fun (n, bytes) (e : Cache.disk_entry) ->
            if e.entry_kind = kind then (n + 1, bytes + e.entry_bytes) else (n, bytes))
          (0, 0) entries
      in
      let kinds =
        [
          Some Cache.Snapshot_entry;
          Some Cache.Demand_entry;
          None;
        ]
      in
      List.iter
        (fun kind ->
          let n, bytes = bucket kind in
          if n > 0 then
            Printf.printf "%s: %d entr%s, %d bytes\n"
              (match kind with
              | Some k -> Cache.kind_name k
              | None -> "invalid")
              n
              (if n = 1 then "y" else "ies")
              bytes)
        kinds;
      let total =
        List.fold_left
          (fun acc (e : Cache.disk_entry) -> acc + e.entry_bytes)
          0 entries
      in
      Printf.printf "total %d bytes\n" total
    end;
    0
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"List the cached entries: analysis snapshots and demand slices.")
    Term.(const run $ cache_group_dir)

let cache_kind_arg =
  let kinds = Cache.[ Snapshot_entry; Demand_entry ] in
  Arg.(
    value
    & opt (some (enum (List.map (fun k -> (Cache.kind_name k, k)) kinds))) None
    & info [ "kind" ] ~docv:"KIND"
        ~doc:
          "Only remove entries of this kind: $(b,snapshot) or $(b,demand-slice-v1). Default: \
           every kind.")

let cache_clear_cmd =
  let run dir kind =
    let n = Cache.clear ?kind ~dir () in
    (match kind with
    | None -> Printf.printf "removed %d cached entr%s from %s\n" n (if n = 1 then "y" else "ies") dir
    | Some k ->
      Printf.printf "removed %d %s entr%s from %s\n" n (Cache.kind_name k)
        (if n = 1 then "y" else "ies")
        dir);
    0
  in
  Cmd.v
    (Cmd.info "clear" ~doc:"Remove cached entries, optionally filtered by kind.")
    Term.(const run $ cache_group_dir $ cache_kind_arg)

let cache_cmd =
  Cmd.group
    (Cmd.info "cache" ~doc:"Inspect or clear the on-disk analysis snapshot cache.")
    [ cache_stats_cmd; cache_clear_cmd ]

(* ---------- query / serve ---------- *)

(* The initial solution of a query session: a saved snapshot when
   --load-solution is given, otherwise the request solved (through the
   snapshot cache when the server has one). *)
let obtain_solution ?cache req load =
  let ( let* ) = Result.bind in
  let* p = load_program req.path in
  match load with
  | Some snap_path ->
    let* snap = read_snapshot p snap_path in
    Ok (p, snap.label, snap.solution)
  | None ->
    let r = (solve_request ?cache p req).result in
    Ok (p, r.label, r.solution)

let session_load_arg =
  load_solution_arg
    ~doc:"Answer queries over a snapshot saved with $(b,solve --save-solution) instead of solving."

let answers_json_arg = json_arg ~doc:"Emit one JSON object per answer line."

let timings_arg =
  Arg.(value & flag & info [ "timings" ] ~doc:"Append per-query evaluation latency to each answer.")

let demand_mode_arg =
  let mode_conv =
    Arg.enum
      [
        ("off", Ipa_query.Server.Demand_off);
        ("auto", Ipa_query.Server.Demand_auto);
        ("on", Ipa_query.Server.Demand_on);
      ]
  in
  Arg.(
    value
    & opt ~vopt:Ipa_query.Server.Demand_auto mode_conv Ipa_query.Server.Demand_off
    & info [ "demand" ] ~docv:"MODE"
        ~doc:
          "Demand-driven solving: answer eligible queries (pts, pointed-by, alias, callees, \
           callers, reach, fieldpts) from a backward constraint slice solved without budget, \
           instead of the loaded solution. $(b,auto) (the bare-flag default) slices only when \
           the loaded solution was budget-truncated; $(b,on) always slices; $(b,off) (default) \
           never. Sessions can switch with the $(b,demand on|off|auto) command.")

(* The demand evaluator always slices the *plain* flavor configuration at
   budget 0 — exact answers are the point; introspective refinement is a
   precision trade the slice does not reproduce. *)
let make_demand ?cache ~warm p flavor mode =
  if mode = Ipa_query.Server.Demand_off then None
  else
    let config = Ipa_core.Solver.plain p (Flavors.strategy p flavor) in
    Some
      (Ipa_query.Demand.create ?cache ~warm ~program:p ~label:(Flavors.to_string flavor)
         config)

let query_cmd =
  let run req load queries json timings demand_mode timeout =
    match obtain_solution req load with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok (p, label, sol) ->
      let demand = make_demand ~warm:false p req.flavor demand_mode in
      let server =
        Ipa_query.Server.create ?demand ~demand_mode ?query_timeout:timeout ~json ~timings
          ~program:p ~label sol
      in
      let session ic = ignore (Ipa_query.Server.session server ic stdout) in
      (match queries with
      | None -> session stdin
      | Some f -> In_channel.with_open_text f session);
      Printf.eprintf "query: %d answered (%d errors)\n" (Ipa_query.Server.served server)
        (Ipa_query.Server.errors server);
      if Ipa_query.Server.errors server = 0 then 0 else 1
  in
  let queries_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "queries" ] ~docv:"FILE" ~doc:"Query script, one query per line (default: stdin).")
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some finite_positive) None
      & info [ "timeout" ] ~docv:"SECS"
          ~doc:
            "Per-query wall-clock guard: an evaluation running longer than SECS is abandoned \
             and answered with a structured $(b,timeout) error record. Batch (sequential) \
             query mode only.")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Answer points-to queries (pts, alias, callees, reach, taint, ...) over a solution.")
    Term.(
      const run $ request $ session_load_arg $ queries_arg $ answers_json_arg $ timings_arg
      $ demand_mode_arg $ timeout_arg)

let serve_cmd =
  let run req load cache_dir mem_budget jobs json timings socket log_path read_timeout max_line
      max_queries demand_mode =
    let ( let* ) r k =
      match r with
      | Error msg ->
        Printf.eprintf "serve: %s\n" msg;
        1
      | Ok v -> k v
    in
    let* mem_budget =
      match mem_budget with
      | None -> Ok None
      | Some s -> Result.map Option.some (Cache.parse_budget s)
    in
    let cache = Option.map (fun dir -> Cache.create ~dir ?mem_budget ()) cache_dir in
    let* () =
      if mem_budget <> None && cache = None then
        Error "--mem-budget requires --cache-dir (it bounds the snapshot cache)"
      else Ok ()
    in
    let* p, label, sol = obtain_solution ?cache req load in
    let limits =
      {
        Ipa_query.Server.max_line;
        max_queries;
        idle_timeout = (if read_timeout > 0.0 then Some read_timeout else None);
      }
    in
    let with_log k =
      match log_path with
      | None -> k None
      | Some f -> Out_channel.with_open_text f (fun oc -> k (Some oc))
    in
    with_log @@ fun log ->
    let serve pool =
      let demand = make_demand ?cache ~warm:(pool <> None) p req.flavor demand_mode in
      let server =
        Ipa_query.Server.create ?cache ?pool ?log ?demand ~demand_mode ~limits ~json ~timings
          ~program:p ~label sol
      in
      let t0 = Ipa_support.Timer.now () in
      let status =
        match socket with
        | Some sock_path -> (
          match Ipa_query.Server.serve_socket server ~path:sock_path with
          | Ok () -> 0
          | Error msg ->
            Printf.eprintf "serve: %s\n" msg;
            1)
        | None ->
          ignore (Ipa_query.Server.session server stdin stdout);
          0
      in
      Printf.eprintf "serve: %d served (%d errors), %d loads, %.3fs\n"
        (Ipa_query.Server.served server) (Ipa_query.Server.errors server)
        (Ipa_query.Server.loads server)
        (Ipa_support.Timer.now () -. t0);
      prerr_endline (Ipa_query.Server.metrics_line server);
      (match cache with Some c -> prerr_endline (Cache.stats_line c) | None -> ());
      status
    in
    if jobs = 1 then serve None
    else Ipa_support.Domain_pool.with_pool ~jobs (fun pool -> serve (Some pool))
  in
  let cache_dir_arg =
    cache_dir_arg
      ~doc:
        "Snapshot cache: the initial solve is cached under DIR and $(b,load key <key>) serves \
         snapshots from it."
  in
  let jobs_arg =
    jobs_arg ~default:1
      ~doc:
        "Worker domains for concurrent socket sessions ($(b,--socket)); a stdin session is \
         unaffected. Answers are identical at any job count; only latency varies."
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Serve connections on a Unix-domain socket instead of stdin/stdout. With \
             $(b,--jobs) > 1, connections are served concurrently.")
  in
  let mem_budget_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "mem-budget" ] ~docv:"BYTES"
          ~doc:
            "Bound the bytes of snapshots held in memory (suffixes k/m/g); least-recently-used \
             unpinned snapshots are evicted to disk. Requires $(b,--cache-dir).")
  in
  let log_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "log" ] ~docv:"FILE" ~doc:"Append one JSONL record per request to FILE.")
  in
  let read_timeout_arg =
    Arg.(
      value
      & opt float 0.0
      & info [ "read-timeout" ] ~docv:"SECONDS"
          ~doc:"Close a socket session idle longer than SECONDS (0 disables; the default).")
  in
  let max_line_arg =
    Arg.(
      value
      & opt positive Ipa_query.Server.default_limits.max_line
      & info [ "max-line" ] ~docv:"BYTES"
          ~doc:"Longest accepted input line; an over-limit line answers an error record.")
  in
  let max_queries_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-queries" ] ~docv:"N"
          ~doc:"Close a session after N queries/loads with a structured error reply.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a persistent query session: answers queries line by line, hot-loads snapshots \
          with $(b,load path/key), reports $(b,metrics), ends at $(b,quit) or end of input.")
    Term.(
      const run $ request $ session_load_arg $ cache_dir_arg $ mem_budget_arg $ jobs_arg
      $ answers_json_arg $ timings_arg $ socket_arg $ log_arg $ read_timeout_arg $ max_line_arg
      $ max_queries_arg $ demand_mode_arg)

(* ---------- lint ---------- *)

let lint_cmd =
  let run req rules_spec no_solve format output baseline_path update_baseline mega
      taint_spec_path =
    let ( let* ) r k =
      match r with
      | Error msg ->
        Printf.eprintf "lint: %s\n" msg;
        1
      | Ok v -> k v
    in
    let* rules = Ipa_lint.Lint.select_rules rules_spec in
    let* taint_spec =
      match taint_spec_path with
      | None -> Ok None
      | Some sp -> Result.map Option.some (Ipa_clients.Taint.spec_of_file sp)
    in
    let* p = load_program req.path in
    let solution =
      if no_solve then None
      else begin
        let r = (solve_request p req).result in
        if r.timed_out then
          Printf.eprintf
            "lint: %s exceeded its derivation budget; solution-backed findings are partial\n"
            r.label
        else Printf.eprintf "lint: analysis %s (%.3fs)\n" r.label r.seconds;
        Some r.solution
      end
    in
    let ctx = Ipa_lint.Lint.make_ctx ?solution ?taint_spec ~megamorphic_threshold:mega p in
    let findings, timings = Ipa_lint.Lint.run ~rules ctx in
    if update_baseline then begin
      match baseline_path with
      | None ->
        prerr_endline "lint: --update-baseline requires --baseline FILE";
        1
      | Some bp ->
        Ipa_lint.Baseline.save bp findings;
        Printf.eprintf "lint: wrote %s (%d finding(s))\n" bp (List.length findings);
        0
    end
    else begin
      let* baseline =
        match baseline_path with
        | None -> Ok None
        | Some bp -> Result.map Option.some (Ipa_lint.Baseline.load bp)
      in
      let fresh =
        match baseline with None -> findings | Some b -> Ipa_lint.Baseline.filter_new b findings
      in
      let text = Ipa_lint.Report.render ~rules format fresh in
      (match output with
      | None -> print_string text
      | Some out ->
        Out_channel.with_open_text out (fun oc -> Out_channel.output_string oc text);
        Printf.eprintf "lint: wrote %s\n" out);
      let rule_time =
        List.fold_left (fun a (t : Ipa_lint.Lint.timing) -> a +. t.seconds) 0. timings
      in
      Printf.eprintf "lint: %d finding(s)%s from %d rule(s) in %.3fs\n" (List.length findings)
        (match baseline with
        | None -> ""
        | Some _ -> Printf.sprintf ", %d new" (List.length fresh))
        (List.length rules) rule_time;
      if fresh = [] then 0 else 1
    end
  in
  let rules_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "rules" ] ~docv:"SPEC"
          ~doc:
            "Comma-separated rule ids and family selectors ($(b,all), $(b,syntactic), \
             $(b,semantic)); a trailing $(b,-) excludes a rule, e.g. $(b,all,IPA-P006-). \
             Default: every rule.")
  in
  let no_solve_arg =
    Arg.(
      value & flag
      & info [ "no-solve" ]
          ~doc:"Skip the points-to analysis: run only the syntactic rule family.")
  in
  let format_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("human", Ipa_lint.Report.Human);
               ("jsonl", Ipa_lint.Report.Jsonl);
               ("sarif", Ipa_lint.Report.Sarif);
             ])
          Ipa_lint.Report.Human
      & info [ "format" ] ~docv:"FMT" ~doc:"Report format: $(b,human), $(b,jsonl), or $(b,sarif).")
  in
  let baseline_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Baseline file of accepted findings: only findings not in it are reported, and the \
             exit status is nonzero only for those new findings.")
  in
  let update_baseline_arg =
    Arg.(
      value & flag
      & info [ "update-baseline" ]
          ~doc:"Rewrite the $(b,--baseline) file to accept the current findings, then exit 0.")
  in
  let mega_arg =
    Arg.(
      value
      & opt int 3
      & info [ "megamorphic" ] ~docv:"K"
          ~doc:"Target count at which IPA-P004 flags a virtual call (default 3).")
  in
  let taint_spec_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "taint-spec" ] ~docv:"FILE"
          ~doc:"Taint specification for IPA-P005 (defaults to the built-in spec).")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the diagnostics suite: syntactic rules plus solution-backed rules grounded in a \
          points-to analysis.")
    Term.(
      const run $ request $ rules_arg $ no_solve_arg $ format_arg
      $ output_arg ~doc:"Write the report to FILE instead of stdout." ()
      $ baseline_arg $ update_baseline_arg $ mega_arg $ taint_spec_arg)

(* ---------- experiments ---------- *)

let experiments_cmd =
  let run figure scale budget jobs cache_dir =
    let cache = Cache.create ?dir:cache_dir () in
    let cfg = { Ipa_harness.Config.scale; budget; jobs; cache } in
    match figure with
    | Some n when not (List.mem n [ 1; 4; 5; 6; 7 ]) ->
      Printf.eprintf "no figure %d (have 1, 4, 5, 6, 7)\n" n;
      1
    | _ ->
      (match figure with
      | None -> Ipa_harness.Experiments.print_all cfg
      | Some 1 -> Ipa_harness.Experiments.Fig1.print cfg
      | Some 4 -> Ipa_harness.Experiments.Fig4.print cfg
      | Some 5 ->
        Ipa_harness.Experiments.Figs567.print cfg (Flavors.Object_sens { depth = 2; heap = 1 })
      | Some 6 ->
        Ipa_harness.Experiments.Figs567.print cfg (Flavors.Type_sens { depth = 2; heap = 1 })
      | Some 7 ->
        Ipa_harness.Experiments.Figs567.print cfg (Flavors.Call_site { depth = 2; heap = 1 })
      | Some _ -> assert false);
      print_endline (Cache.stats_line cache);
      0
  in
  let figure_arg =
    Arg.(value & opt (some int) None & info [ "figure" ] ~docv:"N" ~doc:"Figure number (1, 4-7).")
  in
  let budget_arg =
    budget_arg ~default:Ipa_harness.Config.default.budget ~doc:"Derivation budget per run." ()
  in
  let jobs_arg =
    jobs_arg ~default:Ipa_harness.Config.default.jobs
      ~doc:
        "Worker domains for independent analyses (default: the machine's recommended domain \
         count). Results are identical at any job count; only timings vary."
  in
  let cache_dir_arg =
    cache_dir_arg
      ~doc:
        "Persist and reuse the shared context-insensitive first passes under DIR. Without it \
         the cache is in-memory only (still deduplicates within the run)."
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Regenerate the paper's tables and figures.")
    Term.(const run $ figure_arg $ scale_arg $ budget_arg $ jobs_arg $ cache_dir_arg)

let () =
  let info =
    Cmd.info "introspect" ~version:"1.0.0"
      ~doc:"Introspective context-sensitive points-to analysis (PLDI 2014 reproduction)."
  in
  let group =
    Cmd.group info
          [
            check_cmd;
            lint_cmd;
            analyze_cmd;
            solve_cmd;
            cache_cmd;
            metrics_cmd;
            gen_cmd;
            query_cmd;
            serve_cmd;
            experiments_cmd;
            devirt_cmd;
            casts_cmd;
            taint_cmd;
            exceptions_cmd;
            hotspots_cmd;
            callgraph_cmd;
            compare_cmd;
            dump_cmd;
            datalog_cmd;
            export_dl_cmd;
          ]
  in
  exit (Cmd.eval' group)

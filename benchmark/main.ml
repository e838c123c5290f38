(* The repository's benchmark. See README.md in this directory.

   One run of one workload:
     main.exe --workload W --seed N --seconds S --trace 0|1
              [--quick] [--work DIR] [--detail FILE] [--record-expected FILE]
   Every workload, each in a fresh child process:
     main.exe run --seed N [--trace] [--seconds S] [--quick] --out FILE
   The regression gate over result sets of two commits:
     main.exe compare --parent FILE... --change FILE... [--bench BENCHMARK.json] *)

open Ipa_benchmark

let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("benchmark: " ^ msg); exit 2) fmt

type opts = {
  mutable workload : string option;
  mutable seed : int option;
  mutable seconds : float;
  mutable trace : bool;
  mutable quick : bool;
  mutable work : string;
  mutable detail : string option;
  mutable record : string option;
}

let default_seconds = 25.0

let parse_opts args =
  let o =
    {
      workload = None; seed = None; seconds = default_seconds; trace = false; quick = false;
      work = Filename.concat "benchmark" "_out"; detail = None; record = None;
    }
  in
  let rec go = function
    | [] -> o
    | "--workload" :: w :: rest ->
      if not (List.mem w Catalog.workloads) then
        die "unknown workload %s (one of: %s)" w (String.concat ", " Catalog.workloads);
      o.workload <- Some w;
      go rest
    | "--seed" :: s :: rest ->
      (match int_of_string_opt s with Some n when n >= 0 -> o.seed <- Some n | _ -> die "bad --seed %s" s);
      go rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with
      | Some x when x > 0.0 -> o.seconds <- x
      | _ -> die "bad --seconds %s" s);
      go rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
      o.trace <- t = "1";
      go rest
    | "--quick" :: rest ->
      o.quick <- true;
      go rest
    | "--work" :: d :: rest ->
      o.work <- d;
      go rest
    | "--detail" :: f :: rest ->
      o.detail <- Some f;
      go rest
    | "--record-expected" :: f :: rest ->
      o.record <- Some f;
      go rest
    | a :: _ -> die "unexpected argument %s" a
  in
  go args

let print_metrics (report : Catalog.report) ~trace =
  let shown = if trace then Catalog.per_layer else Catalog.end_to_end in
  List.iter
    (fun (m : Catalog.def) ->
      match List.assoc_opt m.name report.values with
      | Some v -> Printf.printf "  %-34s %14.6g %s\n" m.name v m.unit
      | None -> ())
    shown;
  List.iter (fun (name, v, unit) -> Printf.printf "  %-34s %14.6g %s\n" name v unit) report.extra

let run_one args =
  let o = parse_opts args in
  let workload = match o.workload with Some w -> w | None -> die "--workload is required" in
  let seed = match o.seed with Some s -> s | None -> die "--seed is required" in
  let ctx = { Common.seed; seconds = o.seconds; trace = o.trace; quick = o.quick; work = o.work } in
  Common.mkdir_p o.work;
  if o.trace then Trace.enable ();
  let report, fingerprints =
    match workload with
    | "pipeline-cold" -> Pipeline.run ctx
    | "edit-chain" -> Edit_chain.run ctx
    | "serve-swap" -> Serve.run ctx Serve.Swap
    | _ -> Serve.run ctx Serve.Demand_mode
  in
  (match o.record with
  | Some path -> Oracle.record_expected ~path ~workload fingerprints
  | None -> if seed = 0 && not o.quick then Oracle.check_expected ~workload fingerprints);
  let ok = !Common.failures = 0 in
  let report = { report with correct = ok; failed = (if ok then report.failed else max 1 report.failed) } in
  Printf.printf "%s seed %d%s: %s, %d attempted, %d failed\n" workload seed
    (if o.trace then " (traced)" else "")
    (if ok then "correct" else "INCORRECT")
    report.attempted report.failed;
  print_metrics report ~trace:o.trace;
  if o.trace then begin
    let path = Filename.concat o.work (Printf.sprintf "trace-%s.jsonl" workload) in
    Trace.write_jsonl path (Trace.spans ());
    Printf.printf "  spans written to %s\n" path
  end;
  Option.iter
    (fun path -> Results.write path (Results.run_to_json { workload; seed; trace = o.trace; report }))
    o.detail;
  print_endline (Catalog.result_line ~trace:o.trace report);
  exit (if ok then 0 else 1)

(* ---------- run: every workload in its own process ---------- *)

let run_all args =
  let trace = ref false and out = ref None and passthrough = ref [] in
  let rec go = function
    | "--workload" :: _ -> die "run: runs every workload; use --workload W without run for one"
    | "--trace" :: tl ->
      trace := true;
      go tl
    | "--out" :: f :: tl ->
      out := Some f;
      go tl
    | x :: tl ->
      passthrough := x :: !passthrough;
      go tl
    | [] -> ()
  in
  go args;
  let workloads = Catalog.workloads in
  let trace = !trace and passthrough = List.rev !passthrough in
  let out = match !out with Some f -> f | None -> die "run: --out FILE is required" in
  let o = parse_opts passthrough in
  let seed = match o.seed with Some s -> s | None -> die "run: --seed is required" in
  Common.mkdir_p o.work;
  let runs = ref [] and all_ok = ref true in
  let child workload traced =
    let detail = Filename.concat o.work (Printf.sprintf "detail-%s-%d.json" workload (Unix.getpid ())) in
    let argv =
      [ Sys.executable_name; "--workload"; workload; "--trace"; (if traced then "1" else "0"); "--detail"; detail ]
      @ passthrough
    in
    let pid = Unix.create_process Sys.executable_name (Array.of_list argv) Unix.stdin Unix.stdout Unix.stderr in
    let _, status = Unix.waitpid [] pid in
    if status <> Unix.WEXITED 0 then all_ok := false;
    match Results.read detail with
    | Ok j -> (
      (try Sys.remove detail with Sys_error _ -> ());
      match Results.run_of_json j with
      | Some r -> runs := r :: !runs
      | None -> all_ok := false)
    | Error _ ->
      all_ok := false;
      Printf.printf "%s%s: no result\n%!" workload (if traced then " (traced)" else "")
  in
  List.iter
    (fun w ->
      child w false;
      if trace then child w true)
    workloads;
  let runs = List.rev !runs in
  let overheads =
    List.filter_map
      (fun w ->
        let p50 traced =
          List.find_map
            (fun (r : Results.run) ->
              if r.workload = w && r.trace = traced then List.assoc_opt "latency_p50_ms" r.report.values
              else None)
            runs
        in
        match (p50 false, p50 true) with
        | Some u, Some t when u > 0.0 -> Some (w, 100.0 *. (t -. u) /. u)
        | _ -> None)
      workloads
  in
  List.iter (fun (w, v) -> Printf.printf "%s trace_overhead_pct %.2f %%\n" w v) overheads;
  Results.write out (Results.set_to_json ~seed ~seconds:o.seconds runs overheads);
  Printf.printf "wrote %s\n" out;
  let ok = !all_ok && List.for_all (fun (r : Results.run) -> r.report.correct) runs in
  if not ok then prerr_endline "benchmark: some run was incorrect or did not finish";
  exit (if ok then 0 else 1)

(* ---------- compare ---------- *)

let compare_main args =
  let rec go side parent change bench = function
    | "--parent" :: tl -> go `Parent parent change bench tl
    | "--change" :: tl -> go `Change parent change bench tl
    | "--bench" :: f :: tl -> go side parent change f tl
    | f :: tl -> (
      match side with
      | `Parent -> go side (f :: parent) change bench tl
      | `Change -> go side parent (f :: change) bench tl
      | `None -> die "compare: give --parent FILE... --change FILE...")
    | [] -> (List.rev parent, List.rev change, bench)
  in
  let parent, change, bench = go `None [] [] "BENCHMARK.json" args in
  if parent = [] || change = [] then die "compare: give --parent FILE... --change FILE...";
  let bounds = match Regress.read_bounds bench with Ok b -> b | Error e -> die "%s: %s" bench e in
  let worse = Regress.compare ~bounds ~parent:(Regress.load parent) ~change:(Regress.load change) in
  exit (if worse > 0 then 1 else 0)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "serve-child" :: rest -> Serve.child_main rest
  | "run" :: rest -> run_all rest
  | "compare" :: rest -> compare_main rest
  | args -> (
    try run_one args with
    | Stack_overflow | Out_of_memory as e -> raise e
    | Failure msg | Sys_error msg -> die "%s" msg
    | Unix.Unix_error (e, f, a) -> die "%s(%s): %s" f a (Unix.error_message e))

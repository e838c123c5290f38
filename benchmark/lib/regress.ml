(* [compare]: the regression gate. Given the result sets of the parent
   commit and of a change (one [run --out] file per seed), it pairs their
   runs by seed and reports every (end-to-end metric, workload) with both
   sides' median and quartiles, the share of pairs the change won and a
   verdict under the bounds of BENCHMARK.json; exact per-layer counts are
   reported as count differences. *)

module Json = Ipa_support.Json

type bound = { name : string; unit : string; better : Stat.better; bound : float }

let read_bounds path =
  match Results.read path with
  | Error msg -> Error msg
  | Ok j -> (
    match Json.member "end_to_end" j with
    | Some (List ms) ->
      Ok
        (List.filter_map
           (fun m ->
             match
               ( Option.bind (Json.member "name" m) Json.to_str,
                 Option.bind (Json.member "unit" m) Json.to_str,
                 Option.bind (Json.member "better" m) Json.to_str,
                 Option.bind (Json.member "bound" m) Results.number )
             with
             | Some name, Some unit, Some b, Some bound ->
               Some { name; unit; better = (if b = "higher" then Stat.Higher else Lower); bound }
             | _ -> None)
           ms)
    | _ -> Error "no end_to_end list")

let load files =
  List.concat_map
    (fun f ->
      match Results.read f with
      | Ok j -> Results.runs_of_set j
      | Error msg -> failwith (Printf.sprintf "%s: %s" f msg))
    files

let pick runs ~workload ~trace =
  List.filter (fun (r : Results.run) -> r.workload = workload && r.trace = trace) runs

(* Parent and change runs of the same seed, in the parent's order; a seed
   run more than once on a side pairs its runs in order. Runs without a
   partner are counted, not compared. *)
let pair_by_seed parent change =
  let rec go pairs unpaired change = function
    | [] -> (List.rev pairs, unpaired + List.length change)
    | (p : Results.run) :: rest -> (
      match List.partition (fun (c : Results.run) -> c.seed = p.seed) change with
      | c :: same, others -> go ((p, c) :: pairs) unpaired (same @ others) rest
      | [], _ -> go pairs (unpaired + 1) change rest)
  in
  go [] 0 change parent

let value name (r : Results.run) = List.assoc_opt name r.report.values

(* One verdict row per (workload, end-to-end metric) found on both sides. *)
type row = { workload : string; metric : bound; result : Stat.comparison }

let verdicts ~bounds ~parent ~change =
  List.concat_map
    (fun workload ->
      let pairs, _ = pair_by_seed (pick parent ~workload ~trace:false) (pick change ~workload ~trace:false) in
      List.filter_map
        (fun b ->
          let both =
            List.filter_map
              (fun (p, c) ->
                match (value b.name p, value b.name c) with Some x, Some y -> Some (x, y) | _ -> None)
              pairs
          in
          if both = [] then None
          else
            let pv = Array.of_list (List.map fst both) and cv = Array.of_list (List.map snd both) in
            Some
              { workload; metric = b; result = Stat.compare_runs ~better:b.better ~bound:b.bound ~parent:pv ~change:cv })
        bounds)
    Catalog.workloads

let fmt_q (q1, q2, q3) = Printf.sprintf "%.4g [%.4g, %.4g]" q2 q1 q3

(* Prints the comparison; returns the number of (metric, workload) pairs
   found worse. *)
let compare ~bounds ~parent ~change =
  let rows = verdicts ~bounds ~parent ~change in
  let worse = ref 0 and unresolved = ref 0 in
  Printf.printf "%-14s %-24s %-30s %-30s %-6s %s\n" "workload" "metric" "parent median [q1, q3]"
    "change median [q1, q3]" "won" "verdict";
  List.iter
    (fun workload ->
      let p = pick parent ~workload ~trace:false and c = pick change ~workload ~trace:false in
      let _, unpaired = pair_by_seed p c in
      if unpaired > 0 then Printf.printf "%-14s %d run(s) with no run of the same seed on the other side\n" workload unpaired;
      List.iter
        (fun r ->
          if r.workload = workload then begin
            let c = r.result in
            (match c.verdict with Worse -> incr worse | Unresolved -> incr unresolved | _ -> ());
            Printf.printf "%-14s %-24s %-30s %-30s %-6s %s\n" workload
              (Printf.sprintf "%s (%s)" r.metric.name r.metric.unit)
              (fmt_q c.parent_q) (fmt_q c.change_q)
              (Printf.sprintf "%d/%d" c.wins c.pairs)
              (Stat.verdict_name c.verdict)
          end)
        rows;
      if p <> [] && c <> [] then begin
        (* failures count against the attempts, with no tolerance *)
        let rate runs =
          let a, f =
            List.fold_left
              (fun (a, f) (r : Results.run) -> (a + r.report.attempted, f + r.report.failed))
              (0, 0) runs
          in
          if a = 0 then 0.0 else float_of_int f /. float_of_int a
        in
        let pr = rate p and cr = rate c in
        if cr > pr then incr worse;
        Printf.printf "%-14s %-24s %-30.6g %-30.6g %-6s %s\n" workload "error_rate" pr cr ""
          (if cr > pr then "worse" else "same")
      end
      else Printf.printf "%-14s (no untraced runs on both sides)\n" workload;
      (* exact per-layer counts, from the traced runs, seed by seed *)
      let pairs, _ = pair_by_seed (pick parent ~workload ~trace:true) (pick change ~workload ~trace:true) in
      List.iter
        (fun (d : Catalog.def) ->
          if d.unit = "count" || d.unit = "B" then begin
            let differ =
              List.filter_map
                (fun (p, c) ->
                  match (value d.name p, value d.name c) with
                  | Some x, Some y when x <> y -> Some (x, y)
                  | _ -> None)
                pairs
            in
            match differ with
            | (x, y) :: _ ->
              Printf.printf "%-14s %-24s count %.0f -> %.0f (%+.0f) in %d of %d pairs\n" workload d.name x y
                (y -. x) (List.length differ) (List.length pairs)
            | [] -> ()
          end)
        Catalog.per_layer)
    Catalog.workloads;
  Printf.printf "%d worse, %d unresolved\n" !worse !unresolved;
  !worse

(* pipeline-cold: the paper's product, end to end, as a batch user runs it.
   For each program: parse the .jir text, solve context-insensitively,
   compute the six introspection metrics, then for each of 2objH/2callH
   and heuristics A/B select the refine sets and solve the refined second
   pass; every pass is encoded as a snapshot and stored in a fresh on-disk
   cache. One unit of work is that pipeline over all three programs. *)

module Solution = Ipa_core.Solution
module Solver = Ipa_core.Solver
module Snapshot = Ipa_core.Snapshot
module Flavors = Ipa_core.Flavors
module Heuristics = Ipa_core.Heuristics
module Cache = Ipa_harness.Cache
open Common

let programs = [ "bloat"; "hsqldb"; "jython" ]

(* At this size the whole pipeline takes about two seconds, so a run
   measures several repeats; the budget still truncates bloat's 2callH
   IntroB pass, the one where encoding outweighs solving. *)
let scale ctx = if ctx.quick then 0.02 else 0.1
let budget ctx = if ctx.quick then 200_000 else 2_000_000

type tally = {
  mutable parse_s : float;
  mutable parse_bytes : int;
  mutable base_s : float;
  mutable second_s : float;
  mutable encode_s : float;
  mutable put_s : float;
  mutable intro_s : float;
  mutable select_s : float;
  mutable bytes : int;
  mutable derivations : int;
  mutable batch_objs : int;
  mutable truncated : int;
}

let tally () =
  {
    parse_s = 0.0; parse_bytes = 0; base_s = 0.0; second_s = 0.0; encode_s = 0.0;
    put_s = 0.0; intro_s = 0.0; select_s = 0.0; bytes = 0; derivations = 0; batch_objs = 0;
    truncated = 0;
  }

let clocked acc f =
  let t0 = Trace.clock () in
  let v = f () in
  acc (Trace.clock () -. t0);
  v

let run ctx =
  let budget = budget ctx in
  let setup_s, texts =
    setup ctx ~dispose:ignore (fun () ->
        List.map (fun name -> (name, Inputs.jir ~scale:(scale ctx) name)) programs)
  in
  let oracle_passes = untimed (fun () -> Oracle.check_introspective programs) in
  let t = tally () in
  let fps = ref [] in
  let first_fps = Hashtbl.create 16 in
  let selections = ref [] in
  let samples = ref [] in
  let repeat rep =
    let dir = fresh_dir ctx (Printf.sprintf "cache-%d" rep) in
    let cache = Cache.create ~dir () in
    (* every repeat starts from the same heap, not from the previous
       repeat's garbage *)
    untimed Gc.full_major;
    let (), secs =
      timed_unit (fun () ->
          List.iter
            (fun (name, text) ->
              let p =
                clocked
                  (fun s -> t.parse_s <- t.parse_s +. s)
                  (fun () ->
                    Trace.span ~layer:"frontend" "Jir.parse_string" (fun () ->
                        Ipa_frontend.Jir.parse_string text))
              in
              t.parse_bytes <- t.parse_bytes + String.length text;
              let p =
                match p with
                | Ok p -> p
                | Error e -> failwith (Ipa_frontend.Jir.error_to_string e)
              in
              let digest = Trace.span ~layer:"snapshot" "Snapshot.digest_program" (fun () -> Snapshot.digest_program p) in
              let publish label config (sol : Solution.t) seconds metrics =
                let key, bytes =
                  clocked
                    (fun s -> t.encode_s <- t.encode_s +. s)
                    (fun () ->
                      Trace.span ~layer:"snapshot" "Snapshot.encode" (fun () ->
                          let key = Snapshot.config_key ~program_digest:digest config in
                          ( key,
                            Snapshot.encode
                              { Snapshot.key; program_digest = digest; label; seconds; solution = sol; metrics } )))
                in
                clocked
                  (fun s -> t.put_s <- t.put_s +. s)
                  (fun () -> Trace.span ~layer:"cache" "Cache.put_bytes" (fun () -> Cache.put_bytes cache ~key bytes));
                t.bytes <- t.bytes + String.length bytes;
                t.derivations <- t.derivations + sol.derivations;
                t.batch_objs <- t.batch_objs + sol.counters.batch_objs;
                if sol.outcome = Solution.Budget_exceeded then t.truncated <- t.truncated + 1
              in
              (* only once the pass's solution is no longer used: the
                 fingerprint fills the solution's lazy projections *)
              let verify label (sol : Solution.t) =
                let pass = name ^ "/" ^ label in
                untimed (fun () ->
                    let fp = Oracle.fingerprint sol in
                    match Hashtbl.find_opt first_fps pass with
                    | None ->
                      Hashtbl.add first_fps pass fp;
                      fps := (pass, fp) :: !fps
                    | Some first ->
                      check (first = fp) "pipeline %s: repeat %d differs from repeat 0" pass rep)
              in
              let solve phase config =
                clocked
                  (fun s ->
                    if phase = "base" then t.base_s <- t.base_s +. s else t.second_s <- t.second_s +. s)
                  (fun () -> Trace.span ~layer:"solver" ("Solver.run " ^ phase) (fun () -> Solver.run p config))
              in
              let insens = Solver.plain p ~budget (Flavors.strategy p Flavors.Insensitive) in
              let t0 = Trace.clock () in
              let base = solve "base" insens in
              let metrics =
                clocked
                  (fun s -> t.intro_s <- t.intro_s +. s)
                  (fun () ->
                    Trace.span ~layer:"introspection" "Introspection.compute" (fun () ->
                        Ipa_core.Introspection.compute base))
              in
              publish "insens" insens base (Trace.clock () -. t0) (Some metrics);
              List.iter
                (fun flavor ->
                  List.iter
                    (fun h ->
                      let refine =
                        clocked
                          (fun s -> t.select_s <- t.select_s +. s)
                          (fun () ->
                            Trace.span ~layer:"heuristics" "Heuristics.select" (fun () ->
                                Heuristics.select base metrics h))
                      in
                      if rep = 0 && flavor = List.hd Oracle.second_flavors then
                        untimed (fun () ->
                            selections := Heuristics.selection_stats base refine :: !selections);
                      let config = Ipa_core.Analysis.second_pass_config ~budget p flavor refine in
                      let t0 = Trace.clock () in
                      let sol = solve "second" config in
                      let label = Flavors.to_string flavor ^ "-" ^ Heuristics.name h in
                      publish label config sol (Trace.clock () -. t0) None;
                      verify label sol)
                    Oracle.heuristics)
                Oracle.second_flavors;
              verify "insens" base)
            texts)
    in
    untimed (fun () -> remove_tree dir);
    samples := secs :: !samples
  in
  let reps = repeat_for ctx repeat in
  let peak = peak_rss_mb () in
  let samples = Array.of_list (List.rev !samples) in
  let measured = Array.fold_left ( +. ) 0.0 samples in
  let per_rep x = x / reps and per_rep_f x = x /. float_of_int reps in
  (* plain 2objH/2callH on the same programs: the paper's comparison row
     (traced runs only; it moves no end-to-end metric) *)
  let plain_rows =
    if not ctx.trace then []
    else
      List.concat_map
        (fun (name, text) ->
          let p = Inputs.parse text in
          List.map
            (fun flavor ->
              let config = Solver.plain p ~budget (Flavors.strategy p flavor) in
              let t0 = Trace.clock () in
              let sol = Solver.run p config in
              ( Printf.sprintf "solver.plain_s.%s.%s%s" name (Flavors.to_string flavor)
                  (if sol.outcome = Solution.Budget_exceeded then ".truncated" else ""),
                Trace.clock () -. t0,
                "s" ))
            Oracle.second_flavors)
        texts
  in
  let skipped f g =
    let a, b = List.fold_left (fun (a, b) s -> (a + f s, b + g s)) (0, 0) !selections in
    if b = 0 then 0.0 else 100.0 *. float_of_int a /. float_of_int b
  in
  let mb = 1024.0 *. 1024.0 in
  let spans = if ctx.trace then Trace.spans () else [] in
  let n_programs = List.length programs in
  {
    Catalog.correct = !failures = 0;
    attempted = reps * n_programs;
    failed = min (reps * n_programs) !failures;
    values =
      [
        ("setup_s", setup_s);
        ("latency_p50_ms", 1000.0 *. Stat.median samples);
        ("throughput_per_s", float_of_int (reps * n_programs) /. measured);
        ("peak_rss_mb", peak);
        ("frontend.parse_mb_per_s", float_of_int t.parse_bytes /. mb /. t.parse_s);
        ("solver.derivations", float_of_int (per_rep t.derivations));
        ("solver.batch_objs", float_of_int (per_rep t.batch_objs));
        ("solver.budget_exceeded", float_of_int (per_rep t.truncated));
        ("solver.derivations_per_s", float_of_int t.derivations /. (t.base_s +. t.second_s));
        ( "heuristics.sites_skipped_pct",
          skipped (fun s -> s.Heuristics.sites_skipped) (fun s -> s.Heuristics.sites_total) );
        ( "heuristics.objects_skipped_pct",
          skipped (fun s -> s.Heuristics.objects_skipped) (fun s -> s.Heuristics.objects_total) );
        ("snapshot.bytes", float_of_int (per_rep t.bytes));
        ("snapshot.encode_mb_per_s", float_of_int t.bytes /. mb /. t.encode_s);
      ]
      @ gc_per_op reps @ layer_pcts spans;
    extra =
      (("repeats", float_of_int reps, "count") :: latency_extra samples)
      @ [
        ("oracle_passes", float_of_int oracle_passes, "count");
        ("frontend.parse_s", per_rep_f t.parse_s, "s");
        ("solver.base_s", per_rep_f t.base_s, "s");
        ("solver.second_s", per_rep_f t.second_s, "s");
        ("introspection.compute_s", per_rep_f t.intro_s, "s");
        ("heuristics.select_s", per_rep_f t.select_s, "s");
        ("snapshot.encode_s", per_rep_f t.encode_s, "s");
        ("cache.put_s", per_rep_f t.put_s, "s");
      ]
      @ plain_rows @ layer_summary spans;
  }, List.rev !fps

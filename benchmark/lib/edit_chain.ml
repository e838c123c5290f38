(* edit-chain: the IDE re-analysis path. A chain of seeded monotone edits
   is applied to jython in sequence; after each edit both flavors are
   re-solved incrementally from the previous warm solution. One unit of
   work is one edit re-analysed under both flavors. Every warm result must
   equal a cold solve of the edited program. *)

module Solution = Ipa_core.Solution
module Solver = Ipa_core.Solver
module Flavors = Ipa_core.Flavors
module Compositional = Ipa_core.Compositional_solver
open Common

let flavors = [ Flavors.Insensitive; Flavors.Type_sens { depth = 2; heap = 1 } ]
let program = "jython"
let scale ctx = if ctx.quick then 0.02 else 0.1
let n_edits ctx = if ctx.quick then 5 else 20

let config p flavor = Solver.plain p (Flavors.strategy p flavor)

(* Programs 0..n: the parsed base program and the result of each edit. *)
let chain ~seed ~scale ~n =
  let p0 = Inputs.parse (Inputs.jir ~scale program) in
  let edits = Inputs.edits ~seed ~n p0 in
  let progs = Array.make (List.length edits + 1) p0 in
  List.iteri (fun i e -> progs.(i + 1) <- Ipa_synthetic.Edits.apply progs.(i) e) edits;
  (progs, edits)

(* Warm and cold agree on everything but the counters and the derivation
   count (warm seeding re-asserts the baseline's facts uncounted). *)
let canonical (s : Solution.t) =
  Digest.to_hex
    (Digest.string
       (Ipa_core.Snapshot.encode
          {
            Ipa_core.Snapshot.key = "";
            program_digest = "";
            label = "";
            seconds = 0.0;
            solution = { s with counters = Solution.zero_counters; derivations = 0 };
            metrics = None;
          }))

let run ctx =
  let n = n_edits ctx in
  let setup_s, (progs, edits, bases) =
    setup ctx ~dispose:ignore (fun () ->
        let progs, edits = chain ~seed:ctx.seed ~scale:(scale ctx) ~n in
        let bases =
          List.map
            (fun flavor ->
              Trace.span ~layer:"solver" "Solver.run" (fun () -> Solver.run progs.(0) (config progs.(0) flavor)))
            flavors
        in
        (progs, edits, Array.of_list bases))
  in
  check (List.length edits = n) "edit-chain: picked %d edits, wanted %d" (List.length edits) n;
  let n = List.length edits in
  let nf = List.length flavors in
  let flavor_names = List.map Flavors.to_string flavors in
  untimed (fun () ->
      let small, _ = chain ~seed:ctx.seed ~scale:Oracle.oracle_scale ~n in
      Oracle.check_plain
        [ (program, small.(0)); (program ^ "+edits", small.(Array.length small - 1)) ]
        flavors);
  (* cold references, outside the measured time *)
  let cold_s = Array.make_matrix nf n 0.0 in
  let cold_md5 = Array.make_matrix nf n "" in
  let fps = ref [] in
  untimed (fun () ->
      for i = 0 to n - 1 do
        List.iteri
          (fun f flavor ->
            let p = progs.(i + 1) in
            let t0 = Trace.clock () in
            let cold = Solver.run p (config p flavor) in
            cold_s.(f).(i) <- Trace.clock () -. t0;
            cold_md5.(f).(i) <- canonical cold;
            fps :=
              (Printf.sprintf "%s/edit-%02d/%s" program (i + 1) (List.nth flavor_names f), Oracle.fingerprint cold)
              :: !fps)
          flavors
      done);
  let warm_s = Array.init nf (fun _ -> ref []) in
  let derivations = ref 0 and dirty = ref 0 and fallbacks = ref 0 in
  let samples = ref [] in
  let chains =
    repeat_for ctx (fun c ->
        let prev = Array.copy bases in
        untimed Gc.full_major;
        for i = 0 to n - 1 do
          Trace.set_unit ((c * 1000) + i);
          let (), secs =
            timed_unit (fun () ->
                List.iteri
                  (fun f flavor ->
                    let p = progs.(i + 1) in
                    let t0 = Trace.clock () in
                    let warm, report =
                      Trace.span ~layer:"incr" "Compositional_solver.solve_incremental" (fun () ->
                          Compositional.solve_incremental ~base_program:progs.(i) ~base_solution:prev.(f) p
                            (config p flavor))
                    in
                    let secs = Trace.clock () -. t0 in
                    untimed (fun () ->
                        warm_s.(f) := secs :: !(warm_s.(f));
                        if c = 0 then begin
                          derivations := !derivations + warm.derivations;
                          dirty := !dirty + List.length report.dirty_sccs;
                          if report.fallback <> None then incr fallbacks
                        end;
                        check (report.fallback = None) "edit-chain: edit %d (%s) fell back to a cold solve: %s"
                          (i + 1) (List.nth flavor_names f)
                          (Option.value ~default:"" report.fallback);
                        check
                          (canonical warm = cold_md5.(f).(i))
                          "edit-chain: warm %s solve after edit %d differs from the cold solve"
                          (List.nth flavor_names f) (i + 1));
                    prev.(f) <- warm)
                  flavors)
          in
          samples := secs :: !samples
        done)
  in
  let peak = peak_rss_mb () in
  let samples = Array.of_list (List.rev !samples) in
  let ops = Array.length samples in
  let measured = Array.fold_left ( +. ) 0.0 samples in
  let warm_med = Array.map (fun l -> Stat.median (Array.of_list !l)) warm_s in
  let cold_med = Array.map Stat.median cold_s in
  let sum = Array.fold_left ( +. ) 0.0 in
  let spans = if ctx.trace then Trace.spans () else [] in
  ( {
      Catalog.correct = !failures = 0;
      attempted = ops;
      failed = min ops !failures;
      values =
        [
          ("setup_s", setup_s);
          ("latency_p50_ms", 1000.0 *. Stat.median samples);
          ("throughput_per_s", float_of_int ops /. measured);
          ("peak_rss_mb", peak);
          ("incr.derivations", float_of_int !derivations);
          ("incr.dirty_sccs", float_of_int !dirty);
          ("incr.fallbacks", float_of_int !fallbacks);
          ("incr.warm_over_cold", sum warm_med /. sum cold_med);
        ]
        @ gc_per_op ops @ layer_pcts spans;
      extra =
        [ ("chains", float_of_int chains, "count"); ("edits", float_of_int n, "count") ]
        @ latency_extra samples
        @ List.concat
            (List.mapi
               (fun f name ->
                 [
                   (Printf.sprintf "edit_%s_p50_ms" name, 1000.0 *. warm_med.(f), "ms");
                   (Printf.sprintf "incr.%s.cold_ms_p50" name, 1000.0 *. cold_med.(f), "ms");
                   (Printf.sprintf "incr.%s.warm_over_cold" name, warm_med.(f) /. cold_med.(f), "ratio");
                 ])
               flavor_names)
        @ layer_summary spans;
    },
    List.rev !fps )

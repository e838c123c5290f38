(** Reproduction of every table and figure of the paper's evaluation (§4).

    Each experiment has a [compute] function returning structured results
    (used by tests at small scales); each figure also has a [print]
    function rendering the paper-style table to stdout, and the taint study
    is printed as part of {!print_report}. Timings are wall-clock seconds of the
    introspective second pass / plain run, as in the paper (the shared
    context-insensitive first pass is reported separately).

    Independent (benchmark, flavor) analyses fan out over
    {!Ipa_support.Domain_pool} with [Config.jobs] workers; every [compute]
    returns results in input order and — timing fields aside — bit-identical
    to a sequential run. Printing always happens after the parallel compute,
    on the calling domain. *)

(** One analysis execution on one benchmark. *)
type run = {
  bench : string;
  analysis : string;  (** ["insens"], ["2objH"], ["2objH-IntroA"], ... *)
  seconds : float;
  derivations : int;
  timed_out : bool;
  precision : Ipa_core.Precision.t option;  (** [None] when timed out *)
  tainted_sinks : int option;
      (** tainted sinks under [Ipa_clients.Taint.default_spec]; [None] when
          timed out, [Some 0] on workloads without taint sources *)
  counters : Ipa_core.Solution.counters;
      (** solver propagation counters for this run (see
          {!Ipa_core.Solution.counters}) *)
}

val run_to_row : run -> string list
(** Table cells: analysis, time, derivations, the three precision metrics,
    tainted sinks. *)

(** {1 Figure 1} — context-insensitive vs 2objH running time, 9 benchmarks *)

module Fig1 : sig
  val compute : Config.t -> run list
  (** Two runs (insens, 2objH) per benchmark, in benchmark order. *)

  val print : Config.t -> unit
end

(** {1 Figure 4} — fraction of call sites / objects NOT refined *)

module Fig4 : sig
  type row = {
    bench : string;
    a_sites_pct : float;
    b_sites_pct : float;
    a_objects_pct : float;
    b_objects_pct : float;
  }

  val compute : Config.t -> row list
  (** One row per hard benchmark; the final row is the average (named
      ["average"]). *)

  val print : Config.t -> unit
end

(** {1 Figures 5, 6, 7} — time + precision for introspective variants of
    2objH, 2typeH, 2callH on the charted benchmarks *)

module Figs567 : sig
  val compute : Config.t -> Ipa_core.Flavors.spec -> run list
  (** Per benchmark: insens, <flavor>-IntroA, <flavor>-IntroB, <flavor>. *)

  val print : Config.t -> Ipa_core.Flavors.spec -> unit
  (** [print cfg flavor] — Figure 5 is [2objH], 6 is [2typeH], 7 is
      [2callH]. *)
end

(** {1 Taint study} — tainted sinks on a workload separable only by context
    (the {!Ipa_synthetic.Motifs.taint_pipes} motif plus ballast): insens vs
    2objH-IntroA vs 2objH-IntroB vs full 2objH. The paper-style client
    precision argument, with taint as the client. *)

module Taint_study : sig
  val clients : Config.t -> int
  (** Number of pipeline clients at this scale (one of them hot). *)

  val compute : Config.t -> run list
  (** [insens; 2objH-IntroA; 2objH-IntroB; 2objH] on the taint workload. *)
end

(** {1 The whole evaluation as data} — computed once, printable and
    serializable (the bench harness emits it as [BENCH_solver.json]). *)

type report = {
  fig1 : run list;
  fig4 : Fig4.row list;
  fig5 : run list;  (** Figs567 with 2objH *)
  fig6 : run list;  (** Figs567 with 2typeH *)
  fig7 : run list;  (** Figs567 with 2callH *)
  taint : run list;
}

val compute_report : Config.t -> report

val print_report : Config.t -> report -> unit
(** Figures 1, 4, 5, 6, 7, then the taint study, from precomputed data. *)

val print_all : Config.t -> unit
(** [compute_report] then [print_report]. *)

(** The synthetic benchmark suite mirroring the paper's DaCapo subjects.

    Each benchmark is a deterministic composition of {!Motifs},
    sized so the paper's qualitative behavior reproduces under the harness's
    derivation budget:

    - all nine appear in Figure 1 (insens vs 2objH);
    - the "hard" subset (bloat, chart, eclipse, hsqldb, jython, pmd, xalan —
      the rows of the paper's Figure 4) is the subject set of Figures 4-7,
      with the six charted subjects (all but pmd) in Figures 5-7;
    - hsqldb and jython are engineered not to terminate under 2objH;
    - jython also defeats 2typeH and (by quadratic frame feedback that
      first-pass metrics underestimate for Heuristic B) 2objH-IntroB;
    - bloat, hsqldb, jython and xalan defeat 2callH.

    [scale] multiplies the motif sizes ([1.0] = harness default); tests use
    small scales. *)

type spec = {
  name : string;
  seed : int;  (** default seed of {!Edits.pick} for this benchmark *)
  generate : scale:float -> World.t -> unit;
}

val all : spec list
(** antlr, bloat, chart, eclipse, hsqldb, jython, lusearch, pmd, xalan. *)

val hard : spec list
(** The Figure 4 subjects: bloat, chart, eclipse, hsqldb, jython, pmd,
    xalan. *)

val charted : spec list
(** The Figures 5-7 subjects: {!hard} without pmd. *)

val find : string -> spec option

val build : ?scale:float -> spec -> Ipa_ir.Program.t
(** Generate the program (deterministic in [name] and [scale]). *)

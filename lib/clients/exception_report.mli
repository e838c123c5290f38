(** Exception-flow client: what escapes, and what does each handler see?

    Built on the analysis's escaping-exception relation: reports the
    exception objects that may reach an entry point uncaught
    ({!Ipa_core.Precision.uncaught}), and the contents of every catch
    variable (collapsed over contexts). *)

type handler = {
  meth : Ipa_ir.Program.meth_id;
  clause : int;  (** index in the method's catch chain *)
  catch_type : Ipa_ir.Program.class_id;
  objects : Ipa_ir.Program.heap_id list;  (** what the clause may bind *)
}

val handlers : Ipa_core.Solution.t -> handler list
(** Every catch clause of a reachable method (empty binding lists included —
    a dead handler is a finding too). *)

val print : Ipa_core.Solution.t -> unit

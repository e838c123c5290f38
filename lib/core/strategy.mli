(** Context constructors — the paper's [Record] and [Merge] functions.

    A strategy packages the constructor functions that fully determine a
    context-sensitivity flavor (paper §2, "Constructors for
    context-sensitivity"):

    - [record heap ctx]: the heap context given to an object allocated at
      [heap] by a method running in calling context [ctx];
    - [merge p heap hctx invo caller]: the callee's calling context for a
      virtual call at site [invo] on a receiver object [(heap, hctx)] from
      calling context [caller], in the program [p] being solved (a
      type-sensitive merge reads the class of [heap]'s allocating method);
    - [merge_static invo caller]: likewise for static calls (which have no
      receiver; not in the paper's 10-rule model but present in Doop).

    The solver is instantiated with {e two} strategies — default and refined —
    and the {!Refine} sets select which one applies at each allocation/call
    site. That is exactly the paper's [Record]/[RecordRefined] and
    [Merge]/[MergeRefined] machinery. *)

type t = {
  name : string;
  record : Ctx.t -> heap:Ipa_ir.Program.heap_id -> ctx:int -> int;
  merge :
    Ipa_ir.Program.t ->
    Ctx.t ->
    heap:Ipa_ir.Program.heap_id ->
    hctx:int ->
    invo:Ipa_ir.Program.invo_id ->
    caller:int ->
    int;
  merge_static : Ctx.t -> invo:Ipa_ir.Program.invo_id -> caller:int -> int;
}

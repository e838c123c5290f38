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

module Interner = Ipa_support.Interner
module Program = Ipa_ir.Program

module Elem = struct
  type kind = Heap | Invo | Type

  (* Tag in bits 32..33, id in bits 0..31. *)
  let tag_heap = 0
  let tag_invo = 1
  let tag_type = 2

  let make tag id =
    assert (id >= 0 && id < 1 lsl 32);
    (tag lsl 32) lor id

  let heap h = make tag_heap h
  let invo i = make tag_invo i
  let ty c = make tag_type c

  let kind e =
    match e lsr 32 with
    | 0 -> Heap
    | 1 -> Invo
    | 2 -> Type
    | t -> invalid_arg (Printf.sprintf "Ctx.Elem.kind: bad tag %d" t)

  let id e = e land ((1 lsl 32) - 1)

  let to_string p e =
    match kind e with
    | Heap -> Program.heap_full_name p (id e)
    | Invo -> (Program.invo_info p (id e)).invo_name
    | Type -> Program.class_name p (id e)
end

type t = int array Interner.t

let create () : t =
  let t = Interner.create ~dummy:[||] () in
  let zero = Interner.intern t [||] in
  assert (zero = 0);
  t

let empty = 0

let intern = Interner.intern

let elems = Interner.value

let push_trunc t ctx ~elem ~keep =
  if keep <= 0 then empty
  else begin
    let old = elems t ctx in
    let n = min keep (Array.length old + 1) in
    let fresh = Array.make n elem in
    Array.blit old 0 fresh 1 (n - 1);
    intern t fresh
  end

let trunc t ctx ~keep =
  if keep <= 0 then empty
  else begin
    let old = elems t ctx in
    if Array.length old <= keep then ctx else intern t (Array.sub old 0 keep)
  end

let count = Interner.count

let limit = 1 lsl 31

(* Keys are packed ints, so the index needs neither polymorphic hashing
   nor polymorphic equality. The multiply moves every key bit into the
   high half and the fold brings it back down, because the table indexes
   buckets by the low bits. *)
module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash k =
    let h = k * 0x3105_2E60_8C61_9E55 in
    (h lxor (h lsr 32)) land max_int
end)

type t = {
  ids : int Tbl.t; (* packed pair -> id *)
  pairs : int Dynarr.t; (* id -> packed pair *)
}

let create ?(capacity = 64) () =
  { ids = Tbl.create capacity; pairs = Dynarr.create ~capacity ~dummy:0 () }

let pack a b =
  if a < 0 || b < 0 || a >= limit || b >= limit then
    invalid_arg (Printf.sprintf "Pair_tbl: component out of range (%d, %d)" a b);
  (a lsl 31) lor b

let intern t a b =
  let key = pack a b in
  match Tbl.find_opt t.ids key with
  | Some id -> id
  | None ->
    let id = Dynarr.push_get_index t.pairs key in
    Tbl.add t.ids key id;
    id

let find_opt t a b = Tbl.find_opt t.ids (pack a b)

let fst t id = Dynarr.get t.pairs id lsr 31

let snd t id = Dynarr.get t.pairs id land (limit - 1)

let count t = Dynarr.length t.pairs

let iter f t = Dynarr.iteri (fun id key -> f id (key lsr 31) (key land (limit - 1))) t.pairs

(* Packed keys compare as the pairs do lexicographically: both components
   are below 2^31, and the first sits above the second. *)
let renumber t ~fst ~snd =
  let n = count t in
  let keys =
    Array.init n (fun id ->
        let key = Dynarr.get t.pairs id in
        pack (fst (key lsr 31)) (snd (key land (limit - 1))))
  in
  let order = Int_sort.sort_perm keys (Array.init n Fun.id) in
  let map = Array.make (max 1 n) 0 in
  let t' = create ~capacity:(max 16 n) () in
  Array.iteri
    (fun new_id old_id ->
      let key = keys.(old_id) in
      map.(old_id) <- new_id;
      Tbl.replace t'.ids key new_id;
      Dynarr.push t'.pairs key)
    order;
  if Tbl.length t'.ids <> n then invalid_arg "Pair_tbl.renumber: two pairs map to one";
  (t', map)

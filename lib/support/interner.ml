type 'a t = {
  ids : ('a, int) Hashtbl.t;
  values : 'a Dynarr.t;
}

let create ?(capacity = 64) ~dummy () =
  { ids = Hashtbl.create capacity; values = Dynarr.create ~capacity ~dummy () }

let intern t k =
  match Hashtbl.find_opt t.ids k with
  | Some id -> id
  | None ->
    let id = Dynarr.push_get_index t.values k in
    Hashtbl.add t.ids k id;
    id

let find_opt t k = Hashtbl.find_opt t.ids k

let value t id =
  if id < 0 || id >= Dynarr.length t.values then
    invalid_arg (Printf.sprintf "Interner.value: unknown id %d" id);
  Dynarr.get t.values id

let count t = Dynarr.length t.values


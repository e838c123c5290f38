module Dynarr = Ipa_support.Dynarr

type index = {
  cols : int list;
  (* projection key -> insertion indexes of matching tuples, ascending *)
  entries : (int array, int Dynarr.t) Hashtbl.t;
}

type t = {
  rel_name : string;
  rel_arity : int;
  tuples : int array Dynarr.t;
  seen : (int array, unit) Hashtbl.t;
  mutable indexes : index list;
}

let create ~name ~arity =
  {
    rel_name = name;
    rel_arity = arity;
    tuples = Dynarr.create ~dummy:[||] ();
    seen = Hashtbl.create 64;
    indexes = [];
  }

let name t = t.rel_name
let arity t = t.rel_arity
let size t = Dynarr.length t.tuples

let project cols tup = Array.of_list (List.map (Array.get tup) cols)

let index_add idx pos tup =
  let key = project idx.cols tup in
  match Hashtbl.find_opt idx.entries key with
  | Some d -> Dynarr.push d pos
  | None ->
    let d = Dynarr.create ~capacity:4 ~dummy:0 () in
    Dynarr.push d pos;
    Hashtbl.add idx.entries key d

let add t tup =
  if Array.length tup <> t.rel_arity then
    invalid_arg
      (Printf.sprintf "Relation.add: %s expects arity %d, got %d" t.rel_name t.rel_arity
         (Array.length tup));
  if Hashtbl.mem t.seen tup then false
  else begin
    Hashtbl.add t.seen tup ();
    let pos = Dynarr.push_get_index t.tuples tup in
    List.iter (fun idx -> index_add idx pos tup) t.indexes;
    true
  end

let mem t tup = Hashtbl.mem t.seen tup


let iter f t = Dynarr.iter f t.tuples

let iter_range f t ~lo ~hi =
  let hi = min hi (Dynarr.length t.tuples) in
  for i = max lo 0 to hi - 1 do
    f (Dynarr.get t.tuples i)
  done

let to_list t = Dynarr.to_list t.tuples

let clear t =
  Dynarr.clear t.tuples;
  Hashtbl.reset t.seen;
  t.indexes <- []

let find_or_create_index t cols =
  match List.find_opt (fun idx -> idx.cols = cols) t.indexes with
  | Some idx -> idx
  | None ->
    let idx = { cols; entries = Hashtbl.create 64 } in
    Dynarr.iteri (fun pos tup -> index_add idx pos tup) t.tuples;
    t.indexes <- idx :: t.indexes;
    idx

let iter_matching t ~cols ~key ~lo ~hi f =
  if cols = [] then iter_range f t ~lo ~hi
  else begin
    let idx = find_or_create_index t cols in
    match Hashtbl.find_opt idx.entries key with
    | None -> ()
    | Some positions ->
      Dynarr.iter (fun pos -> if pos >= lo && pos < hi then f (Dynarr.get t.tuples pos)) positions
  end

module Int_set = Ipa_support.Int_set

type class_id = int
type field_id = int
type sig_id = int
type meth_id = int
type var_id = int
type heap_id = int
type invo_id = int

type class_info = {
  class_name : string;
  super : class_id option;
  interfaces : class_id list;
  is_interface : bool;
  declared : (sig_id * meth_id) list;
}

type field_info = {
  field_name : string;
  field_owner : class_id;
  is_static_field : bool;
}

type sig_info = { sig_name : string; arity : int }
type var_info = { var_name : string; var_owner : meth_id }

type heap_info = {
  heap_name : string;
  heap_class : class_id;
  heap_owner : meth_id;
}

type call_kind =
  | Virtual of { base : var_id; signature : sig_id }
  | Static of { callee : meth_id }

type invo_info = {
  call : call_kind;
  actuals : var_id array;
  recv : var_id option;
  invo_owner : meth_id;
  invo_name : string;
}

type instr =
  | Alloc of { target : var_id; heap : heap_id }
  | Move of { target : var_id; source : var_id }
  | Cast of { target : var_id; source : var_id; cast_to : class_id }
  | Load of { target : var_id; base : var_id; field : field_id }
  | Store of { base : var_id; field : field_id; source : var_id }
  | Load_static of { target : var_id; field : field_id }
  | Store_static of { field : field_id; source : var_id }
  | Call of invo_id
  | Return of { source : var_id }
  | Throw of { source : var_id }

type catch_clause = { catch_type : class_id; catch_var : var_id }

type meth_info = {
  meth_name : string;
  meth_owner : class_id;
  meth_sig : sig_id;
  is_static_meth : bool;
  is_abstract : bool;
  this_var : var_id option;
  formals : var_id array;
  ret_var : var_id option;
  catches : catch_clause array;
  body : instr array;
}

type t = {
  classes : class_info array;
  fields : field_info array;
  sigs : sig_info array;
  meths : meth_info array;
  vars : var_info array;
  heaps : heap_info array;
  invos : invo_info array;
  entry_list : meth_id list;
  ancestors : Int_set.t array; (* class -> reflexive transitive supertypes *)
  dispatch_tbl : (int, meth_id) Hashtbl.t; (* (class lsl 20) lor sig -> meth *)
  class_by_name : (string, class_id) Hashtbl.t;
  sig_by_key : (string * int, sig_id) Hashtbl.t;
  impls_by_sig : meth_id list array; (* sig -> concrete methods, ascending *)
  srcloc_tbl : Srcloc.t option;
}

let n_classes t = Array.length t.classes
let n_fields t = Array.length t.fields
let n_sigs t = Array.length t.sigs
let n_meths t = Array.length t.meths
let n_vars t = Array.length t.vars
let n_heaps t = Array.length t.heaps
let n_invos t = Array.length t.invos

let get (arr : 'a array) (i : int) (what : string) : 'a =
  if i < 0 || i >= Array.length arr then
    invalid_arg (Printf.sprintf "Program.%s: id %d out of range" what i);
  arr.(i)

let class_info t c = get t.classes c "class_info"
let field_info t f = get t.fields f "field_info"
let sig_info t s = get t.sigs s "sig_info"
let meth_info t m = get t.meths m "meth_info"
let var_info t v = get t.vars v "var_info"
let heap_info t h = get t.heaps h "heap_info"
let invo_info t i = get t.invos i "invo_info"

let entries t = t.entry_list

let class_name t c = (class_info t c).class_name

let meth_full_name t m =
  let mi = meth_info t m in
  let si = sig_info t mi.meth_sig in
  Printf.sprintf "%s::%s/%d" (class_name t mi.meth_owner) si.sig_name si.arity

let var_full_name t v =
  let vi = var_info t v in
  Printf.sprintf "%s$%s" (meth_full_name t vi.var_owner) vi.var_name

let heap_full_name t h = (heap_info t h).heap_name

let field_full_name t f =
  let fi = field_info t f in
  Printf.sprintf "%s::%s" (class_name t fi.field_owner) fi.field_name

let find_class t name = Hashtbl.find_opt t.class_by_name name

let find_sig t ~name ~arity = Hashtbl.find_opt t.sig_by_key (name, arity)

let find_meth t ~class_name:cname ~name ~arity =
  match (find_class t cname, find_sig t ~name ~arity) with
  | Some c, Some s ->
    List.find_map
      (fun m ->
        let mi = t.meths.(m) in
        if mi.meth_owner = c && mi.meth_sig = s then Some m else None)
      (List.init (Array.length t.meths) Fun.id)
  | _ -> None

let subtype t ~sub ~super =
  Int_set.mem (get t.ancestors sub "subtype") super

let pack_class_sig c s = (c lsl 20) lor s

let dispatch t c s =
  ignore (class_info t c);
  ignore (sig_info t s);
  Hashtbl.find_opt t.dispatch_tbl (pack_class_sig c s)

(* Every concrete method of a signature is a dispatch target (its own
   class resolves the signature to it), so a virtual call's CHA targets are
   its signature's implementations, read per signature instead of walking
   the whole dispatch table (one entry per class and inherited signature). *)
let cha_targets t i =
  match (invo_info t i).call with
  | Static { callee } -> [ callee ]
  | Virtual { signature; _ } -> t.impls_by_sig.(signature)

let iter_dispatch t f =
  Hashtbl.iter (fun key meth -> f (key lsr 20) (key land ((1 lsl 20) - 1)) meth) t.dispatch_tbl

let catch_route t m c =
  let clauses = (meth_info t m).catches in
  let n = Array.length clauses in
  let rec go i =
    if i >= n then None
    else if subtype t ~sub:c ~super:clauses.(i).catch_type then Some i
    else go (i + 1)
  in
  go 0

(* Reflexive-transitive supertype sets, with cycle detection. *)
let compute_ancestors (classes : class_info array) : Int_set.t array =
  let n = Array.length classes in
  let result : Int_set.t option array = Array.make n None in
  let in_progress = Array.make n false in
  let rec ancestors c =
    match result.(c) with
    | Some s -> s
    | None ->
      if in_progress.(c) then
        failwith (Printf.sprintf "cyclic class hierarchy at %s" classes.(c).class_name);
      in_progress.(c) <- true;
      let s = Int_set.create () in
      ignore (Int_set.add s c);
      let absorb parent = Int_set.iter (fun a -> ignore (Int_set.add s a)) (ancestors parent) in
      (match classes.(c).super with Some p -> absorb p | None -> ());
      List.iter absorb classes.(c).interfaces;
      in_progress.(c) <- false;
      result.(c) <- Some s;
      s
  in
  Array.init n ancestors

(* Dispatch: for each (class, signature), the declaration in the class or its
   nearest ancestor along the [super] chain. Interfaces carry no concrete
   declarations, so only the class chain matters. *)
let compute_dispatch (classes : class_info array) : (int, meth_id) Hashtbl.t =
  let n = Array.length classes in
  (* Effective (sig -> meth) map per class: own declarations shadow the
     super's. Memoized so the whole computation is linear in hierarchy size. *)
  let memo : (sig_id * meth_id) list option array = Array.make n None in
  let rec effective c =
    match memo.(c) with
    | Some l -> l
    | None ->
      let inherited = match classes.(c).super with None -> [] | Some p -> effective p in
      let own = classes.(c).declared in
      let l = own @ List.filter (fun (s, _) -> not (List.mem_assoc s own)) inherited in
      memo.(c) <- Some l;
      l
  in
  let tbl = Hashtbl.create 1024 in
  for c = 0 to n - 1 do
    List.iter (fun (s, m) -> Hashtbl.replace tbl (pack_class_sig c s) m) (effective c)
  done;
  tbl

let srcloc t = t.srcloc_tbl

let memo f =
  let last = Atomic.make None in
  fun p ->
    match Option.bind (Atomic.get last) (fun e -> Ephemeron.K1.query e p) with
    | Some v -> v
    | None ->
      let v = f p in
      Atomic.set last (Some (Ephemeron.K1.make p v));
      v

let make ?srcloc ~classes ~fields ~sigs ~meths ~vars ~heaps ~invos ~entries () =
  let ancestors = compute_ancestors classes in
  let dispatch_tbl = compute_dispatch classes in
  let class_by_name = Hashtbl.create (Array.length classes) in
  Array.iteri (fun c ci -> Hashtbl.replace class_by_name ci.class_name c) classes;
  let sig_by_key = Hashtbl.create (Array.length sigs) in
  Array.iteri (fun s si -> Hashtbl.replace sig_by_key (si.sig_name, si.arity) s) sigs;
  let impls_by_sig = Array.make (Array.length sigs) [] in
  for m = Array.length meths - 1 downto 0 do
    let mi = meths.(m) in
    if not mi.is_abstract then impls_by_sig.(mi.meth_sig) <- m :: impls_by_sig.(mi.meth_sig)
  done;
  {
    classes;
    fields;
    sigs;
    meths;
    vars;
    heaps;
    invos;
    entry_list = entries;
    ancestors;
    dispatch_tbl;
    class_by_name;
    sig_by_key;
    impls_by_sig;
    srcloc_tbl = srcloc;
  }

let with_bodies t f =
  let meths =
    Array.mapi
      (fun m mi ->
        let body = f m mi.body in
        if body == mi.body then mi else { mi with body })
      t.meths
  in
  { t with meths }

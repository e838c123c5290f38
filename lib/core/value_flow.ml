module Program = Ipa_ir.Program
module Int_set = Ipa_support.Int_set

type node = int

type kind =
  | Var of Program.var_id
  | Fld of { heap : Program.heap_id; field : Program.field_id }
  | Static_fld of Program.field_id
  | Exc of Program.meth_id

(* Node id layout: variables first, then static fields, then per-method
   exception slots, then the (heap, field) plane. The plane is sparse —
   adjacency lives in a hashtable, so unused slots cost nothing. *)
type t = {
  sol : Solution.t;
  n_vars : int;
  n_fields : int;
  n_meths : int;
  base_static : int;
  base_exc : int;
  base_fld : int;
  n_nodes : int;
  succs : (int, int list ref) Hashtbl.t;
  mutable n_edges : int;
}

let n_nodes t = t.n_nodes
let n_edges t = t.n_edges

let var_node _t (v : Program.var_id) : node = v
let static_fld_node t (f : Program.field_id) : node = t.base_static + f
let exc_node t (m : Program.meth_id) : node = t.base_exc + m

let fld_node t ~(heap : Program.heap_id) ~(field : Program.field_id) : node =
  t.base_fld + (heap * t.n_fields) + field

let kind t (n : node) : kind =
  if n < 0 || n >= t.n_nodes then invalid_arg "Value_flow.kind";
  if n < t.base_static then Var n
  else if n < t.base_exc then Static_fld (n - t.base_static)
  else if n < t.base_fld then Exc (n - t.base_exc)
  else
    let off = n - t.base_fld in
    Fld { heap = off / t.n_fields; field = off mod t.n_fields }

let node_to_string t (n : node) =
  let p = t.sol.Solution.program in
  match kind t n with
  | Var v -> Program.var_full_name p v
  | Fld { heap; field } ->
    Printf.sprintf "%s.%s" (Program.heap_full_name p heap)
      (Program.field_info p field).field_name
  | Static_fld f -> Program.field_full_name p f
  | Exc m -> Program.meth_full_name p m ^ "/<exc>"

let iter_succs t n f =
  match Hashtbl.find_opt t.succs n with
  | None -> ()
  | Some l -> List.iter f !l

(* --- construction --- *)

let add_edge t seen src dst =
  let key = (src * t.n_nodes) + dst in
  if not (Hashtbl.mem seen key) then begin
    Hashtbl.add seen key ();
    (match Hashtbl.find_opt t.succs src with
    | Some l -> l := dst :: !l
    | None -> Hashtbl.add t.succs src (ref [ dst ]));
    t.n_edges <- t.n_edges + 1
  end

(* Route a value of allocation class [cls] thrown out of (or escaping into)
   method [m]: either into a catch variable of [m] or onward to [m]'s own
   escaping-exception slot. *)
let route_exc t seen ~src ~into_meth:m cls =
  let p = t.sol.Solution.program in
  let mi = Program.meth_info p m in
  match Program.catch_route p m cls with
  | Some idx -> add_edge t seen src (var_node t mi.catches.(idx).catch_var)
  | None -> add_edge t seen src (exc_node t m)

let build (sol : Solution.t) =
  let p = sol.Solution.program in
  let n_vars = Program.n_vars p in
  let n_fields = Program.n_fields p in
  let n_meths = Program.n_meths p in
  let base_static = n_vars in
  let base_exc = base_static + n_fields in
  let base_fld = base_exc + n_meths in
  let t =
    {
      sol;
      n_vars;
      n_fields;
      n_meths;
      base_static;
      base_exc;
      base_fld;
      n_nodes = base_fld + (Program.n_heaps p * n_fields);
      succs = Hashtbl.create 1024;
      n_edges = 0;
    }
  in
  let seen = Hashtbl.create 4096 in
  let vpt = Solution.collapsed_var_pts sol in
  let reachable = Solution.reachable_meths sol in
  let targets = Solution.call_targets sol in
  (* Heap classes escaping each reachable method as exceptions, collapsed
     over contexts — drives routing of callee exceptions at call sites. *)
  let exc_heaps : (int, Int_set.t) Hashtbl.t = Hashtbl.create 64 in
  Solution.iter_exc_pts sol (fun ~meth ~ctx:_ ~heap ~hctx:_ ->
      let set =
        match Hashtbl.find_opt exc_heaps meth with
        | Some s -> s
        | None ->
          let s = Int_set.create () in
          Hashtbl.add exc_heaps meth s;
          s
      in
      ignore (Int_set.add set heap));
  let do_meth m =
    let mi = Program.meth_info p m in
    Array.iter
      (fun (i : Program.instr) ->
        match i with
        | Alloc _ -> () (* allocation introduces a value; clients seed it *)
        | Move { target; source } | Cast { target; source; _ } ->
          add_edge t seen (var_node t source) (var_node t target)
        | Load { target; base; field } ->
          Int_set.iter
            (fun heap -> add_edge t seen (fld_node t ~heap ~field) (var_node t target))
            vpt.(base)
        | Store { base; field; source } ->
          Int_set.iter
            (fun heap -> add_edge t seen (var_node t source) (fld_node t ~heap ~field))
            vpt.(base)
        | Load_static { target; field } ->
          add_edge t seen (static_fld_node t field) (var_node t target)
        | Store_static { field; source } ->
          add_edge t seen (var_node t source) (static_fld_node t field)
        | Return { source } -> (
          match mi.ret_var with
          | Some rv when rv <> source -> add_edge t seen (var_node t source) (var_node t rv)
          | _ -> ())
        | Throw { source } ->
          Int_set.iter
            (fun heap ->
              route_exc t seen ~src:(var_node t source) ~into_meth:m
                (Program.heap_info p heap).heap_class)
            vpt.(source)
        | Call invo -> (
          match Hashtbl.find_opt targets invo with
          | None -> ()
          | Some meths ->
            let ii = Program.invo_info p invo in
            Int_set.iter
              (fun callee ->
                let ci = Program.meth_info p callee in
                let n_args = min (Array.length ii.actuals) (Array.length ci.formals) in
                for k = 0 to n_args - 1 do
                  add_edge t seen (var_node t ii.actuals.(k)) (var_node t ci.formals.(k))
                done;
                (match (ii.call, ci.this_var) with
                | Virtual { base; _ }, Some this ->
                  add_edge t seen (var_node t base) (var_node t this)
                | _ -> ());
                (match (ci.ret_var, ii.recv) with
                | Some rv, Some recv -> add_edge t seen (var_node t rv) (var_node t recv)
                | _ -> ());
                match Hashtbl.find_opt exc_heaps callee with
                | None -> ()
                | Some heaps ->
                  Int_set.iter
                    (fun heap ->
                      route_exc t seen ~src:(exc_node t callee) ~into_meth:m
                        (Program.heap_info p heap).heap_class)
                    heaps)
              meths))
      mi.body
  in
  Int_set.iter do_meth reachable;
  t

(* --- traversal --- *)

let no_block (_ : node) = false

let reachable ?(blocked = no_block) t ~seeds =
  let seen = Int_set.create () in
  let queue = Queue.create () in
  List.iter
    (fun s -> if (not (blocked s)) && Int_set.add seen s then Queue.add s queue)
    seeds;
  while not (Queue.is_empty queue) do
    let n = Queue.pop queue in
    iter_succs t n (fun m ->
        if (not (blocked m)) && Int_set.add seen m then Queue.add m queue)
  done;
  seen

let find_path ?(blocked = no_block) t ~seeds ~target =
  if blocked target then None
  else
    let parent : (int, int) Hashtbl.t = Hashtbl.create 64 in
    let seen = Int_set.create () in
    let queue = Queue.create () in
    let found = ref false in
    List.iter
      (fun s ->
        if (not (blocked s)) && Int_set.add seen s then begin
          Queue.add s queue;
          if s = target then found := true
        end)
      seeds;
    while (not !found) && not (Queue.is_empty queue) do
      let n = Queue.pop queue in
      iter_succs t n (fun m ->
          if (not !found) && (not (blocked m)) && Int_set.add seen m then begin
            Hashtbl.add parent m n;
            if m = target then found := true else Queue.add m queue
          end)
    done;
    if not !found then None
    else
      let rec walk n acc =
        match Hashtbl.find_opt parent n with
        | None -> n :: acc
        | Some up -> walk up (n :: acc)
      in
      Some (walk target [])

module Int_set = Ipa_support.Int_set
module Pair_tbl = Ipa_support.Pair_tbl
module Dynarr = Ipa_support.Dynarr
module Int_sort = Ipa_support.Int_sort
module Program = Ipa_ir.Program

type outcome = Complete | Budget_exceeded

type counters = {
  edges_added : int;
  edges_deduped : int;
  batches : int;
  batch_objs : int;
  max_batch : int;
  set_promotions : int;
  cycles_collapsed : int;
  nodes_merged : int;
  repropagations_avoided : int;
}

let zero_counters =
  {
    edges_added = 0;
    edges_deduped = 0;
    batches = 0;
    batch_objs = 0;
    max_batch = 0;
    set_promotions = 0;
    cycles_collapsed = 0;
    nodes_merged = 0;
    repropagations_avoided = 0;
  }

type handle = ..

type t = {
  program : Program.t;
  config : string option;
  ctxs : Ctx.t;
  objs : Pair_tbl.t;
  var_nodes : Pair_tbl.t;
  fld_nodes : Pair_tbl.t;
  pts : Int_set.t option Dynarr.t;
  reach : Pair_tbl.t;
  cg : int Dynarr.t;
  outcome : outcome;
  derivations : int;
  counters : counters;
  resume : handle option;
  mutable collapsed_vpt_cache : Int_set.t array option;
  mutable collapsed_fpt_cache : (int, Int_set.t) Hashtbl.t option;
  mutable reachable_meths_cache : Int_set.t option;
  mutable call_targets_cache : (int, Int_set.t) Hashtbl.t option;
  mutable inverted_vpt_cache : Int_set.t array option;
  mutable inverted_fpt_cache : Int_set.t array option;
  mutable callee_meths_cache : Int_set.t array option;
  mutable caller_sites_cache : Int_set.t array option;
}

module Node = struct
  let of_var_node id = id * 4
  let of_fld_node id = (id * 4) + 1
  let of_static_fld f = (f * 4) + 2
  let of_exc reach_id = (reach_id * 4) + 3

  type kind = Var_node of int | Fld_node of int | Static_fld of int | Exc_node of int

  let kind n =
    match n mod 4 with
    | 0 -> Var_node (n / 4)
    | 1 -> Fld_node (n / 4)
    | 2 -> Static_fld (n / 4)
    | _ -> Exc_node (n / 4)
end

let node_pts t n =
  if n < Dynarr.length t.pts then Dynarr.get t.pts n else None

let iter_node_objs t n f = match node_pts t n with None -> () | Some s -> Int_set.iter f s

let iter_var_pts t f =
  Pair_tbl.iter
    (fun vn var ctx ->
      iter_node_objs t (Node.of_var_node vn) (fun obj ->
          f ~var ~ctx ~heap:(Pair_tbl.fst t.objs obj) ~hctx:(Pair_tbl.snd t.objs obj)))
    t.var_nodes

let iter_fld_pts t f =
  Pair_tbl.iter
    (fun fn obj field ->
      let base_heap = Pair_tbl.fst t.objs obj in
      let base_hctx = Pair_tbl.snd t.objs obj in
      iter_node_objs t (Node.of_fld_node fn) (fun o ->
          f ~base_heap ~base_hctx ~field ~heap:(Pair_tbl.fst t.objs o)
            ~hctx:(Pair_tbl.snd t.objs o)))
    t.fld_nodes

let iter_static_fld_pts t f =
  for field = 0 to Program.n_fields t.program - 1 do
    if (Program.field_info t.program field).is_static_field then
      iter_node_objs t (Node.of_static_fld field) (fun o ->
          f ~field ~heap:(Pair_tbl.fst t.objs o) ~hctx:(Pair_tbl.snd t.objs o))
  done

let iter_reachable t f = Pair_tbl.iter (fun _ meth ctx -> f ~meth ~ctx) t.reach

let iter_exc_pts t f =
  Pair_tbl.iter
    (fun reach_id meth ctx ->
      iter_node_objs t (Node.of_exc reach_id) (fun o ->
          f ~meth ~ctx ~heap:(Pair_tbl.fst t.objs o) ~hctx:(Pair_tbl.snd t.objs o)))
    t.reach

let iter_cg t f =
  let n = Dynarr.length t.cg / 4 in
  for i = 0 to n - 1 do
    f ~invo:(Dynarr.get t.cg (4 * i))
      ~caller:(Dynarr.get t.cg ((4 * i) + 1))
      ~meth:(Dynarr.get t.cg ((4 * i) + 2))
      ~callee:(Dynarr.get t.cg ((4 * i) + 3))
  done

(* The var nodes grouped by variable, by a counting sort on the variable:
   the nodes of [v] are [order.(start.(v))] .. [order.(start.(v + 1) - 1)],
   in ascending id order. *)
let var_nodes_by_var t =
  let n_vars = Program.n_vars t.program in
  let n = Pair_tbl.count t.var_nodes in
  let start = Array.make (n_vars + 1) 0 in
  for id = 0 to n - 1 do
    let v = Pair_tbl.fst t.var_nodes id in
    start.(v + 1) <- start.(v + 1) + 1
  done;
  for v = 1 to n_vars do
    start.(v) <- start.(v) + start.(v - 1)
  done;
  let next = Array.sub start 0 n_vars in
  let order = Array.make n 0 in
  for id = 0 to n - 1 do
    let v = Pair_tbl.fst t.var_nodes id in
    order.(next.(v)) <- id;
    next.(v) <- next.(v) + 1
  done;
  (start, order)

(* Per variable, its var nodes' objects are collapsed to heaps, each heap
   kept once by stamping it with the variable, sorted, and laid out in one
   fill: no tuple is hashed. Nodes of one variable often hold the very
   same set object (equal sets are one object): each of the first
   [fold_memo] objects a variable meets is folded once, later ones
   (rare) every time they occur. *)
let fold_memo = 16

let collapsed_var_pts t =
  match t.collapsed_vpt_cache with
  | Some a -> a
  | None ->
    let start, order = var_nodes_by_var t in
    let n_heaps = Program.n_heaps t.program in
    let heap_of = Array.init (Pair_tbl.count t.objs) (Pair_tbl.fst t.objs) in
    let stamp = Array.make n_heaps (-1) in
    let buf = Array.make n_heaps 0 in
    let a =
      Array.init (Program.n_vars t.program) (fun v ->
          let k = ref 0 in
          let mark obj =
            let heap = heap_of.(obj) in
            if stamp.(heap) <> v then begin
              stamp.(heap) <- v;
              buf.(!k) <- heap;
              incr k
            end
          in
          let folded = ref [] and n_folded = ref 0 in
          for i = start.(v) to start.(v + 1) - 1 do
            match node_pts t (Node.of_var_node order.(i)) with
            | Some s when not (List.memq s !folded) ->
              if !n_folded < fold_memo then begin
                folded := s :: !folded;
                incr n_folded
              end;
              Int_set.iter mark s
            | _ -> ()
          done;
          let heaps = Int_sort.sort_distinct (Array.sub buf 0 !k) in
          Int_set.of_sorted_sub heaps ~pos:0 ~len:!k)
    in
    t.collapsed_vpt_cache <- Some a;
    a

let fld_pts_key t ~heap ~field = (heap * Program.n_fields t.program) + field

let collapsed_fld_pts t =
  match t.collapsed_fpt_cache with
  | Some h -> h
  | None ->
    let h = Hashtbl.create 1024 in
    let add key heap =
      let s =
        match Hashtbl.find_opt h key with
        | Some s -> s
        | None ->
          let s = Int_set.create ~capacity:8 () in
          Hashtbl.add h key s;
          s
      in
      ignore (Int_set.add s heap)
    in
    iter_fld_pts t (fun ~base_heap ~base_hctx:_ ~field ~heap ~hctx:_ ->
        add (fld_pts_key t ~heap:base_heap ~field) heap);
    t.collapsed_fpt_cache <- Some h;
    h

let reachable_meths t =
  match t.reachable_meths_cache with
  | Some s -> s
  | None ->
    let s = Int_set.create () in
    iter_reachable t (fun ~meth ~ctx:_ -> ignore (Int_set.add s meth));
    t.reachable_meths_cache <- Some s;
    s

let call_targets t =
  match t.call_targets_cache with
  | Some h -> h
  | None ->
    let h = Hashtbl.create 1024 in
    iter_cg t (fun ~invo ~caller:_ ~meth ~callee:_ ->
        let s =
          match Hashtbl.find_opt h invo with
          | Some s -> s
          | None ->
            let s = Int_set.create ~capacity:4 () in
            Hashtbl.add h invo s;
            s
        in
        ignore (Int_set.add s meth));
    t.call_targets_cache <- Some h;
    h

(* ---------- reverse indexes ---------- *)

(* A two-pass counting sort over the collapsed sets: count each heap's
   variables, then place them. Variables are placed in ascending order, so
   each heap's run comes out sorted. *)
let inverted_var_pts t =
  match t.inverted_vpt_cache with
  | Some a -> a
  | None ->
    let vpt = collapsed_var_pts t in
    let n_heaps = Program.n_heaps t.program in
    let start = Array.make (n_heaps + 1) 0 in
    Array.iter (Int_set.iter (fun h -> start.(h + 1) <- start.(h + 1) + 1)) vpt;
    for h = 1 to n_heaps do
      start.(h) <- start.(h) + start.(h - 1)
    done;
    let next = Array.sub start 0 n_heaps in
    let vars = Array.make start.(n_heaps) 0 in
    Array.iteri
      (fun v set ->
        Int_set.iter
          (fun h ->
            vars.(next.(h)) <- v;
            next.(h) <- next.(h) + 1)
          set)
      vpt;
    let a =
      Array.init n_heaps (fun h ->
          Int_set.of_sorted_sub vars ~pos:start.(h) ~len:(start.(h + 1) - start.(h)))
    in
    t.inverted_vpt_cache <- Some a;
    a

let inverted_fld_pts t =
  match t.inverted_fpt_cache with
  | Some a -> a
  | None ->
    let a = Array.init (Program.n_heaps t.program) (fun _ -> Int_set.create ~capacity:4 ()) in
    Hashtbl.iter
      (fun key set -> Int_set.iter (fun h -> ignore (Int_set.add a.(h) key)) set)
      (collapsed_fld_pts t);
    t.inverted_fpt_cache <- Some a;
    a

let callee_meths t =
  match t.callee_meths_cache with
  | Some a -> a
  | None ->
    let a = Array.init (Program.n_meths t.program) (fun _ -> Int_set.create ~capacity:4 ()) in
    iter_cg t (fun ~invo ~caller:_ ~meth ~callee:_ ->
        ignore (Int_set.add a.((Program.invo_info t.program invo).invo_owner) meth));
    t.callee_meths_cache <- Some a;
    a

let caller_sites t =
  match t.caller_sites_cache with
  | Some a -> a
  | None ->
    let a = Array.init (Program.n_meths t.program) (fun _ -> Int_set.create ~capacity:4 ()) in
    iter_cg t (fun ~invo ~caller:_ ~meth ~callee:_ -> ignore (Int_set.add a.(meth) invo));
    t.caller_sites_cache <- Some a;
    a

let warm_indexes t =
  ignore (collapsed_var_pts t);
  ignore (collapsed_fld_pts t);
  ignore (reachable_meths t);
  ignore (call_targets t);
  ignore (inverted_var_pts t);
  ignore (inverted_fld_pts t);
  ignore (callee_meths t);
  ignore (caller_sites t)

type stats = {
  vpt_tuples : int;
  fpt_tuples : int;
  exc_tuples : int;
  cg_edges : int;
  reach_pairs : int;
  n_contexts : int;
  n_objects : int;
}

let stats t =
  let count_nodes of_node n_ids =
    let total = ref 0 in
    for i = 0 to n_ids - 1 do
      match node_pts t (of_node i) with
      | Some s -> total := !total + Int_set.cardinal s
      | None -> ()
    done;
    !total
  in
  let vpt = count_nodes Node.of_var_node (Pair_tbl.count t.var_nodes) in
  let fpt = count_nodes Node.of_fld_node (Pair_tbl.count t.fld_nodes) in
  let sfpt = count_nodes Node.of_static_fld (Program.n_fields t.program) in
  let exc = count_nodes Node.of_exc (Pair_tbl.count t.reach) in
  {
    vpt_tuples = vpt;
    fpt_tuples = fpt + sfpt;
    exc_tuples = exc;
    cg_edges = Dynarr.length t.cg / 4;
    reach_pairs = Pair_tbl.count t.reach;
    n_contexts = Ctx.count t.ctxs;
    n_objects = Pair_tbl.count t.objs;
  }

(* --- soundness validator ---

   Checks the invariants clients (value-flow graph, taint, precision
   metrics) rely on. Everything except the entry-point check holds by
   solver construction even on a partial (budget-exceeded) fixpoint:
   filters are applied at insertion time, reach pairs are interned before
   any body edge exists, and call-graph edges are derived from receiver
   objects already recorded in the base variable's points-to set. *)

let self_check t =
  let p = t.program in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let n_ctxs = Ctx.count t.ctxs in
  let n_objs = Pair_tbl.count t.objs in
  let check_obj what obj =
    if obj < 0 || obj >= n_objs then
      err "%s: points to object id %d, but only %d objects interned" what obj n_objs
    else begin
      let heap = Pair_tbl.fst t.objs obj in
      let hctx = Pair_tbl.snd t.objs obj in
      if heap >= Program.n_heaps p then err "%s: object %d has invalid heap %d" what obj heap;
      if hctx >= n_ctxs then err "%s: object %d has uninterned heap context %d" what obj hctx
    end
  in
  (* Every populated pts slot decodes to a live node and holds valid objects. *)
  for n = 0 to Dynarr.length t.pts - 1 do
    match Dynarr.get t.pts n with
    | None -> ()
    | Some set ->
      let what =
        match Node.kind n with
        | Node.Var_node id ->
          if id >= Pair_tbl.count t.var_nodes then begin
            err "pts: var node %d not interned" id;
            None
          end
          else begin
            let var = Pair_tbl.fst t.var_nodes id in
            let ctx = Pair_tbl.snd t.var_nodes id in
            if var >= Program.n_vars p then err "pts: var node %d has invalid var %d" id var;
            if ctx >= n_ctxs then err "pts: var node %d has uninterned context %d" id ctx;
            if var < Program.n_vars p && ctx < n_ctxs then begin
              let owner = (Program.var_info p var).var_owner in
              if Pair_tbl.find_opt t.reach owner ctx = None then
                err "pts: var %s has points-to under a context in which its method %s is not reachable"
                  (Program.var_full_name p var) (Program.meth_full_name p owner)
            end;
            Some (Printf.sprintf "var node %s" (Program.var_full_name p var))
          end
        | Node.Fld_node id ->
          if id >= Pair_tbl.count t.fld_nodes then begin
            err "pts: field node %d not interned" id;
            None
          end
          else begin
            let base_obj = Pair_tbl.fst t.fld_nodes id in
            let field = Pair_tbl.snd t.fld_nodes id in
            check_obj "fld node base" base_obj;
            if field >= Program.n_fields p then
              err "pts: field node %d has invalid field %d" id field
            else if (Program.field_info p field).is_static_field then
              err "pts: field node %d keyed by static field %s" id
                (Program.field_full_name p field);
            Some (Printf.sprintf "field node #%d" id)
          end
        | Node.Static_fld f ->
          if f >= Program.n_fields p then begin
            err "pts: static field node has invalid field %d" f;
            None
          end
          else begin
            if not (Program.field_info p f).is_static_field then
              err "pts: static-field node keyed by instance field %s"
                (Program.field_full_name p f);
            Some (Printf.sprintf "static field %s" (Program.field_full_name p f))
          end
        | Node.Exc_node id ->
          if id >= Pair_tbl.count t.reach then begin
            err "pts: exception node %d not a reachable-method instance" id;
            None
          end
          else Some (Printf.sprintf "exc node of %s" (Program.meth_full_name p (Pair_tbl.fst t.reach id)))
      in
      (match what with
      | None -> ()
      | Some what -> Int_set.iter (fun obj -> check_obj what obj) set)
  done;
  (* The remaining checks decode node and object ids unguarded (via the
     collapsed projections), so bail out early on structural corruption. *)
  if !errs <> [] then List.rev !errs
  else begin
  (* Declared-type filters: a variable defined only by casts (resp. only by
     a single catch clause) may point only to objects admitted by the
     corresponding filter spec. Mirrors the solver's insertion-time specs. *)
  let n_vars = Program.n_vars p in
  let cast_targets = Array.make n_vars [] in
  let catch_defs = Array.make n_vars [] in
  let other_def = Array.make n_vars false in
  let mark v = other_def.(v) <- true in
  for m = 0 to Program.n_meths p - 1 do
    let mi = Program.meth_info p m in
    (match mi.this_var with Some v -> mark v | None -> ());
    Array.iter mark mi.formals;
    Array.iteri (fun idx (c : Program.catch_clause) ->
        catch_defs.(c.catch_var) <- (m, idx) :: catch_defs.(c.catch_var))
      mi.catches;
    Array.iter
      (fun (i : Program.instr) ->
        match i with
        | Alloc { target; _ } | Move { target; _ } | Load { target; _ }
        | Load_static { target; _ } ->
          mark target
        | Cast { target; cast_to; _ } -> cast_targets.(target) <- cast_to :: cast_targets.(target)
        | Call invo -> (
          match (Program.invo_info p invo).recv with Some v -> mark v | None -> ())
        | Return { source } -> (
          match mi.ret_var with Some rv when rv <> source -> mark rv | _ -> ())
        | Store _ | Store_static _ | Throw _ -> ())
      mi.body
  done;
  let vpt = collapsed_var_pts t in
  for v = 0 to n_vars - 1 do
    if (not other_def.(v)) && Int_set.cardinal vpt.(v) > 0 then begin
      (match (cast_targets.(v), catch_defs.(v)) with
      | [], [] | _ :: _, _ :: _ -> ()
      | targets, [] ->
        Int_set.iter
          (fun h ->
            let cls = (Program.heap_info p h).heap_class in
            if not (List.exists (fun c -> Program.subtype p ~sub:cls ~super:c) targets) then
              err "filter: cast-only var %s points to %s, not a subtype of any cast target"
                (Program.var_full_name p v) (Program.heap_full_name p h))
          vpt.(v)
      | [], [ (m, idx) ] ->
        let clauses = (Program.meth_info p m).catches in
        Int_set.iter
          (fun h ->
            let cls = (Program.heap_info p h).heap_class in
            if not (Program.subtype p ~sub:cls ~super:clauses.(idx).catch_type) then
              err "filter: catch var %s points to %s, not a subtype of its clause type"
                (Program.var_full_name p v) (Program.heap_full_name p h);
            for j = 0 to idx - 1 do
              if Program.subtype p ~sub:cls ~super:clauses.(j).catch_type then
                err "filter: catch var %s points to %s, already admitted by earlier clause %d"
                  (Program.var_full_name p v) (Program.heap_full_name p h) j
            done)
          vpt.(v)
      | [], _ :: _ :: _ -> ())
    end
  done;
  (* Call-graph edges: both endpoints reachable, and the callee is a legal
     dispatch target — for virtual calls, witnessed by a pointed-to
     receiver object of the base variable. *)
  iter_cg t (fun ~invo ~caller ~meth ~callee ->
      if invo >= Program.n_invos p then err "cg: invalid invocation id %d" invo
      else begin
        let ii = Program.invo_info p invo in
        if caller >= n_ctxs then err "cg: %s has uninterned caller context %d" ii.invo_name caller;
        if callee >= n_ctxs then err "cg: %s has uninterned callee context %d" ii.invo_name callee;
        if meth >= Program.n_meths p then err "cg: %s targets invalid method %d" ii.invo_name meth
        else begin
          if Pair_tbl.find_opt t.reach ii.invo_owner caller = None then
            err "cg: caller instance of %s (in %s) not reachable" ii.invo_name
              (Program.meth_full_name p ii.invo_owner);
          if Pair_tbl.find_opt t.reach meth callee = None then
            err "cg: Reachable not closed under edge %s -> %s" ii.invo_name
              (Program.meth_full_name p meth);
          match ii.call with
          | Static { callee = c } ->
            if meth <> c then
              err "cg: static call %s resolved to %s instead of its declared callee" ii.invo_name
                (Program.meth_full_name p meth)
          | Virtual { base; signature } ->
            if (Program.meth_info p meth).is_abstract then
              err "cg: %s targets abstract method %s" ii.invo_name (Program.meth_full_name p meth);
            let witnessed =
              Int_set.exists
                (fun h ->
                  Program.dispatch p (Program.heap_info p h).heap_class signature = Some meth)
                vpt.(base)
            in
            if not witnessed then
              err "cg: %s -> %s has no pointed-to receiver dispatching there" ii.invo_name
                (Program.meth_full_name p meth)
        end
      end);
  (* Entry points seed reachability — only guaranteed on a complete run. *)
  if t.outcome = Complete then
    List.iter
      (fun e ->
        if Pair_tbl.find_opt t.reach e Ctx.empty = None then
          err "reach: entry point %s not reachable under the empty context"
            (Program.meth_full_name p e))
      (Program.entries p);
  List.rev !errs
  end

let self_check_exn t =
  match self_check t with
  | [] -> ()
  | errs ->
    failwith
      (Printf.sprintf "Solution.self_check: %d violation(s):\n%s" (List.length errs)
         (String.concat "\n" errs))

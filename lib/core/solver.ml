module Int_set = Ipa_support.Int_set
module Int_sort = Ipa_support.Int_sort
module Pair_tbl = Ipa_support.Pair_tbl
module Dynarr = Ipa_support.Dynarr
module Union_find = Ipa_support.Union_find
module Writer = Ipa_support.Codec.Writer
module Program = Ipa_ir.Program
module Node = Solution.Node

type config = {
  default_strategy : Strategy.t;
  refined_strategy : Strategy.t;
  refine : Refine.t;
  budget : int;
  field_sensitive : bool;
}

let plain _p ?(budget = 0) strategy =
  {
    default_strategy = strategy;
    refined_strategy = strategy;
    refine = Refine.None_;
    budget;
    field_sensitive = true;
  }

(* Everything of a configuration that decides a solve's result, in the
   form the snapshot layer's configuration key also digests (with the
   format version and the program's digest before it). *)
let write_config w c =
  Writer.string w c.default_strategy.Strategy.name;
  Writer.string w c.refined_strategy.Strategy.name;
  (match c.refine with
  | Refine.None_ -> Writer.u8 w 0
  | Refine.All_except { skip_objects; skip_sites } ->
    Writer.u8 w 1;
    Writer.int_set w skip_objects;
    Writer.int_set w skip_sites);
  Writer.uint w c.budget;
  Writer.bool w c.field_sensitive

let config_digest c =
  let w = Writer.create () in
  write_config w c;
  Digest.to_hex (Digest.string (Writer.contents w))

let solved_under (s : Solution.t) c = s.config = Some (config_digest c)

exception Out_of_budget

(* Static uses of a variable as the base of a load, store, or virtual call.
   Precomputed per variable; consulted whenever a (var, ctx) node gains
   objects. *)
type use =
  | Use_load of { target : int; field : int }
  | Use_store of { source : int; field : int }
  | Use_vcall of int

(* Copy edges carry a type-filter specification: a conjunction of positive
   ("is a subtype of c") and negative ("is not a subtype of c") constraints.
   Casts use a single positive constraint; exception-handler routing chains
   use one positive plus the negations of all earlier clauses. Specs are
   hash-consed into small ids; spec 0 is the empty (always-true) spec.
   Within a spec array, [c + 1] encodes a positive constraint on class [c]
   and [-(c + 1)] a negative one. *)
module Filters = struct
  type t = int array Ipa_support.Interner.t

  let create () : t =
    let t = Ipa_support.Interner.create ~dummy:[||] () in
    let zero = Ipa_support.Interner.intern t [||] in
    assert (zero = 0);
    t

  let none = 0
  let pos c = c + 1
  let neg c = -(c + 1)
  let intern = Ipa_support.Interner.intern

  let passes t p spec cls =
    spec = none
    || Array.for_all
         (fun entry ->
           if entry > 0 then Ipa_ir.Program.subtype p ~sub:cls ~super:(entry - 1)
           else not (Ipa_ir.Program.subtype p ~sub:cls ~super:(-entry - 1)))
         (Ipa_support.Interner.value t spec)
end

(* Edges are packed into one int: destination node in the high bits, the
   filter-spec id in the low 21 bits. A spec id past the field width would
   silently corrupt the destination, so overflow is a hard failure even in
   release builds (a bare [assert] would compile away under [-noassert]). *)
let filter_bits = 21
let filter_mask = (1 lsl filter_bits) - 1

let pack_edge ~dst ~spec =
  if spec < 0 || spec > filter_mask then
    invalid_arg
      (Printf.sprintf "Solver.pack_edge: filter spec %d outside the %d-bit field" spec
         filter_bits);
  (dst lsl filter_bits) lor spec

let edge_dst e = e lsr filter_bits
let edge_spec e = e land filter_mask

(* Call-graph dedup keys pack two dense pair ids side by side; both halves
   must fit in [cg_key_bits] bits (2 * 31 = 62 < Sys.int_size). *)
let cg_key_bits = 31

(* Bound on nodes visited by the insertion-time cycle walk. *)
let walk_visit_budget = 32

type state = {
  (* The program and configuration of the current fixpoint, with what is
     derived from the program alone ([base_uses], [catch_specs]): a resumed
     state moves all four to the edited program. *)
  mutable p : Program.t;
  mutable cfg : config;
  ctxs : Ctx.t;
  (* A kept state takes the object numbering of the solution it last
     materialized, which rewrites [objs] and the object keys of
     [fld_nodes]. *)
  mutable objs : Pair_tbl.t; (* (heap, hctx) *)
  var_nodes : Pair_tbl.t; (* (var, ctx) *)
  mutable fld_nodes : Pair_tbl.t; (* (obj, field) *)
  (* Per-node state, indexed by the Solution.Node encoding. All of it lives
     on the node's current representative; merged-away nodes have their
     slots cleared. The mutable arrays are rebuilt from the others when a
     kept state resumes (see [shed]). *)
  pts : Int_set.t option Dynarr.t;
  (* [borrowed n]: [pts n] is a set object of the installed baseline,
     shared with it and possibly with other nodes. It is copied before its
     first insertion, so the baseline is never written through. *)
  mutable borrowed : bool Dynarr.t;
  edges : int Dynarr.t option Dynarr.t;
  (* Dedup index over [edges]: built lazily once a node's out-degree crosses
     the linear-scan threshold; [None] while a scan of the edge list itself
     is cheaper than a set lookup. *)
  mutable edge_seen : Int_set.t option Dynarr.t;
  mutable pending : int Dynarr.t option Dynarr.t;
  mutable on_list : bool Dynarr.t;
  worklist : int Queue.t; (* queued nodes, first in first out *)
  (* Cycle elimination. [member_count n] is the number of original nodes a
     representative stands for; [use_members n] lists merged-away var nodes
     whose base uses must fire on the representative's batches. *)
  uf : Union_find.t;
  mutable member_count : int Dynarr.t;
  mutable use_members : int Dynarr.t option Dynarr.t;
  mutable in_merge : bool;
  reach : Pair_tbl.t; (* (meth, ctx) *)
  cg : int Dynarr.t; (* flattened 4-tuples *)
  cg_caller : Pair_tbl.t; (* (invo, callerCtx) *)
  cg_seen : Int_set.t; (* packed (caller-pair, reach-pair) *)
  mutable base_uses : use list array;
  filters : Filters.t;
  (* A warm solve from a base with no live state installs the base's
     fixpoint into fresh state for the base's own program: while
     [installing] is set, [spend] neither counts nor enforces the budget
     (the facts are not new) and [add_edge] only records edges (both ends
     already hold fixpoint sets). *)
  mutable installing : bool;
  mutable base_objs : int; (* objects installed from the baseline *)
  (* Per method: the filter spec of each catch clause (the clause's type
     positively, all earlier clause types negatively) and the escape spec
     (every clause type negatively). *)
  mutable catch_specs : (int array * int) option array;
  (* Which solution's handle may resume this state: the generation that
     solution was issued with, or [claimed] while a resume runs (and for
     good once one fails). *)
  generation : int Atomic.t;
  mutable derivations : int;
  (* Instrumentation (Solution.counters). *)
  mutable edges_added : int;
  mutable edges_deduped : int;
  mutable batches : int;
  mutable batch_objs : int;
  mutable max_batch : int;
  mutable cycles_collapsed : int;
  mutable nodes_merged : int;
  mutable repropagations_avoided : int;
}

(* The base-variable use an instruction makes, if any: its base variable
   and the use. *)
let use_of p (i : Program.instr) =
  match i with
  | Load { target; base; field } -> Some (base, Use_load { target; field })
  | Store { base; field; source } -> Some (base, Use_store { source; field })
  | Call invo -> (
    match (Program.invo_info p invo).call with
    | Virtual { base; _ } -> Some (base, Use_vcall invo)
    | Static _ -> None)
  | Alloc _ | Move _ | Cast _ | Load_static _ | Store_static _ | Return _ | Throw _ -> None

(* Add the uses of [m]'s instructions from index [from] on. All uses of a
   variable sit in its owner's body, each list in reverse body order, so
   adding an appended suffix later builds the same lists. *)
let add_body_uses p uses m ~from =
  let body = (Program.meth_info p m).body in
  for k = from to Array.length body - 1 do
    match use_of p body.(k) with
    | Some (base, u) -> uses.(base) <- u :: uses.(base)
    | None -> ()
  done

(* The handle a warm solve's result carries: its state, and the
   generation the state had when the result was materialized. *)
type Solution.handle += Live of { st : state; gen : int }

let claimed = -1

let compute_base_uses (p : Program.t) : use list array =
  let uses = Array.make (Program.n_vars p) [] in
  for m = 0 to Program.n_meths p - 1 do
    add_body_uses p uses m ~from:0
  done;
  uses

(* A warm solve re-creates every node, pair and call-graph edge of its
   [base] before the edit adds a few more, so it sizes its tables from the
   base, with headroom for the edit, instead of growing them one doubling
   at a time while installing. *)
let create ?base p cfg =
  let size count =
    match base with
    | None -> 1024
    | Some (b : Solution.t) ->
      let n = count b in
      max 1024 (n + (n / 8))
  in
  let nodes = size (fun b -> Dynarr.length b.pts) in
  let pairs = size (fun b -> max (Pair_tbl.count b.var_nodes) (Pair_tbl.count b.fld_nodes)) in
  let n_cg = size (fun b -> Dynarr.length b.cg / 4) in
  {
    p;
    cfg;
    installing = false;
    base_objs = 0;
    ctxs = Ctx.create ();
    objs = Pair_tbl.create ~capacity:(size (fun b -> Pair_tbl.count b.objs)) ();
    var_nodes = Pair_tbl.create ~capacity:pairs ();
    fld_nodes = Pair_tbl.create ~capacity:pairs ();
    pts = Dynarr.create ~capacity:nodes ~dummy:None ();
    borrowed = Dynarr.create ~capacity:nodes ~dummy:false ();
    edges = Dynarr.create ~capacity:nodes ~dummy:None ();
    edge_seen = Dynarr.create ~capacity:nodes ~dummy:None ();
    pending = Dynarr.create ~capacity:nodes ~dummy:None ();
    on_list = Dynarr.create ~capacity:nodes ~dummy:false ();
    worklist = Queue.create ();
    uf = Union_find.create ~capacity:1024 ();
    member_count = Dynarr.create ~capacity:nodes ~dummy:1 ();
    use_members = Dynarr.create ~capacity:nodes ~dummy:None ();
    in_merge = false;
    reach = Pair_tbl.create ~capacity:(size (fun b -> Pair_tbl.count b.reach)) ();
    cg = Dynarr.create ~capacity:(4 * n_cg) ~dummy:0 ();
    cg_caller = Pair_tbl.create ~capacity:n_cg ();
    cg_seen = Int_set.create ~capacity:n_cg ();
    base_uses = compute_base_uses p;
    filters = Filters.create ();
    catch_specs = Array.make (Program.n_meths p) None;
    generation = Atomic.make 0;
    derivations = 0;
    edges_added = 0;
    edges_deduped = 0;
    batches = 0;
    batch_objs = 0;
    max_batch = 0;
    cycles_collapsed = 0;
    nodes_merged = 0;
    repropagations_avoided = 0;
  }

let ensure_node st n =
  while Dynarr.length st.pts <= n do
    Dynarr.push st.pts None;
    Dynarr.push st.borrowed false;
    Dynarr.push st.edges None;
    Dynarr.push st.edge_seen None;
    Dynarr.push st.pending None;
    Dynarr.push st.on_list false;
    Dynarr.push st.member_count 1;
    Dynarr.push st.use_members None
  done

let node_pts st n =
  ensure_node st n;
  match Dynarr.get st.pts n with
  | Some s -> s
  | None ->
    let s = Int_set.create ~capacity:8 () in
    Dynarr.set st.pts n (Some s);
    s

(* [pts n], ready for insertion: a borrowed set is replaced by a copy of
   its own first (copy on write). *)
let own_pts st n =
  let s = node_pts st n in
  if Dynarr.get st.borrowed n then begin
    let s = Int_set.copy s in
    Dynarr.set st.pts n (Some s);
    Dynarr.set st.borrowed n false;
    s
  end
  else s

let node_edges st n =
  ensure_node st n;
  match Dynarr.get st.edges n with
  | Some d -> d
  | None ->
    let d = Dynarr.create ~capacity:4 ~dummy:0 () in
    Dynarr.set st.edges n (Some d);
    d

let node_pending st n =
  ensure_node st n;
  match Dynarr.get st.pending n with
  | Some d -> d
  | None ->
    let d = Dynarr.create ~capacity:4 ~dummy:0 () in
    Dynarr.set st.pending n (Some d);
    d

let node_use_members st n =
  ensure_node st n;
  match Dynarr.get st.use_members n with
  | Some d -> d
  | None ->
    let d = Dynarr.create ~capacity:2 ~dummy:0 () in
    Dynarr.set st.use_members n (Some d);
    d

let spend st =
  (* Installed facts come from a baseline fixpoint, not new derivations:
     they are neither counted nor charged to the budget. *)
  if not st.installing then begin
    st.derivations <- st.derivations + 1;
    if st.cfg.budget > 0 && st.derivations > st.cfg.budget then raise Out_of_budget
  end

(* [spend] one at a time so the budget aborts at exactly [budget + 1]
   derivations, as it would without collapsing. *)
let spend_n st n =
  for _ = 1 to n do
    spend st
  done

(* The caller must have resolved and ensured [n]. *)
let enqueue st n =
  if not (Dynarr.get st.on_list n) then begin
    Dynarr.set st.on_list n true;
    Queue.push n st.worklist
  end

let var_node st var ctx = Node.of_var_node (Pair_tbl.intern st.var_nodes var ctx)

(* Field-sensitive: one node per (object, field). With field sensitivity off
   ("field-based" analysis), all base objects collapse onto a single node per
   field, i.e. fields behave like static fields. *)
let fld_node st obj field =
  let obj = if st.cfg.field_sensitive then obj else 0 in
  Node.of_fld_node (Pair_tbl.intern st.fld_nodes obj field)

let heap_class st heap = (Program.heap_info st.p heap).heap_class

(* The per-clause and escape filter specs of a method's catch chain. *)
let catch_specs st meth =
  match st.catch_specs.(meth) with
  | Some specs -> specs
  | None ->
    let clauses = (Program.meth_info st.p meth).catches in
    let clause_specs =
      Array.mapi
        (fun i (clause : Program.catch_clause) ->
          let spec = Array.make (i + 1) 0 in
          spec.(0) <- Filters.pos clause.catch_type;
          for j = 0 to i - 1 do
            spec.(j + 1) <- Filters.neg clauses.(j).catch_type
          done;
          Filters.intern st.filters spec)
        clauses
    in
    let escape =
      if Array.length clauses = 0 then Filters.none
      else
        Filters.intern st.filters
          (Array.map (fun (c : Program.catch_clause) -> Filters.neg c.catch_type) clauses)
    in
    let specs = (clause_specs, escape) in
    st.catch_specs.(meth) <- Some specs;
    specs

let var_has_uses st vn = st.base_uses.(Pair_tbl.fst st.var_nodes vn) <> []
let edge_linear_threshold = 16

(* Everything from object insertion to call-graph growth is mutually
   recursive once merging is online: merging a group applies the merged
   variables' base uses, which can dispatch calls, which process new method
   bodies, which add edges, which can close new cycles. *)

(* Raised while installing when the base's program derives something the
   baseline lacks: the baseline is not a fixpoint of that program and
   configuration, so the warm start would answer wrong. *)
exception Stale_baseline of string

(* Insert [obj] into [pts(node)], respecting the edge's filter spec. With
   collapsing, the insertion lands on the node's representative and counts
   one derivation per merged member, so [derivations] stays the semantic
   (uncollapsed) insertion count and budget-exceeded runs abort at the same
   point they always did. *)
let rec add_obj st node obj ~spec =
  let node = Union_find.find st.uf node in
  if Filters.passes st.filters st.p spec (heap_class st (Pair_tbl.fst st.objs obj)) then begin
    let s = node_pts st node in
    let fresh =
      if Dynarr.get st.borrowed node then
        (not (Int_set.mem s obj)) && Int_set.add (own_pts st node) obj
      else Int_set.add s obj
    in
    if fresh then begin
      if st.installing then raise (Stale_baseline "stale baseline: new object");
      let k = Dynarr.get st.member_count node in
      spend_n st k;
      st.repropagations_avoided <- st.repropagations_avoided + k - 1;
      Dynarr.push (node_pending st node) obj;
      enqueue st node
    end
  end

(* Duplicate copy edges used to be pushed blindly, so every pending batch
   re-propagated across them and every re-add re-flushed the full source
   set. Dedup instead: a linear scan of the edge list while the out-degree
   is small, a lazily-built seen-set once it is not. *)
and add_edge st ~src ~dst ~spec =
  let src = Union_find.find st.uf src in
  let dst = Union_find.find st.uf dst in
  if src = dst then
    (* A self copy edge can never add anything (its filtered image is a
       subset of the set itself) — count it with the duplicates. *)
    st.edges_deduped <- st.edges_deduped + 1
  else begin
    let packed = pack_edge ~dst ~spec in
    let es = node_edges st src in
    let fresh =
      match Dynarr.get st.edge_seen src with
      | Some seen -> Int_set.add seen packed
      | None ->
        let n = Dynarr.length es in
        if n < edge_linear_threshold then begin
          let rec scan i = i < n && (Dynarr.get es i = packed || scan (i + 1)) in
          not (scan 0)
        end
        else begin
          let seen = Int_set.create ~capacity:(2 * n) () in
          Dynarr.iter (fun e -> ignore (Int_set.add seen e)) es;
          Dynarr.set st.edge_seen src (Some seen);
          Int_set.add seen packed
        end
    in
    if fresh then begin
      st.edges_added <- st.edges_added + 1;
      Dynarr.push es packed;
      (* An installed edge joins two installed fixpoint sets, which already
         satisfy filter(pts src) ⊆ pts dst: nothing to flush. Objects that
         arrive later sit in pending batches and cross it when [src] is
         processed. Installed cycles are not collapsed: their members hold
         equal sets, so only what the edit adds goes round them, unless a
         counted edge closes one again ([try_collapse]). *)
      if not st.installing then begin
        (match Dynarr.get st.pts src with
        | None -> ()
        | Some s -> Int_set.iter (fun obj -> add_obj st dst obj ~spec) s);
        if spec = Filters.none && not st.in_merge then try_collapse st ~src ~dst
      end
    end
    else st.edges_deduped <- st.edges_deduped + 1
  end

(* The new unfiltered edge [src -> dst] closes a cycle iff [src] is
   reachable from [dst] over unfiltered edges. Walk a bounded DFS from
   [dst]; on a hit, merge the discovered path (it is a cycle together with
   the new edge). This walk is the only cycle detector: a cycle it does not
   reach within [walk_visit_budget] stays uncollapsed and converges like
   any other part of the graph. *)
and try_collapse st ~src ~dst =
  let visited = Int_set.create ~capacity:16 () in
  ignore (Int_set.add visited dst);
  let parent = Hashtbl.create 16 in
  let stack = ref [ dst ] in
  let found = ref false in
  let visits = ref 0 in
  let n_nodes = Dynarr.length st.edges in
  while (not !found) && !stack <> [] && !visits < walk_visit_budget do
    match !stack with
    | [] -> assert false
    | n :: rest ->
      stack := rest;
      incr visits;
      if n < n_nodes then begin
        match Dynarr.get st.edges n with
        | None -> ()
        | Some es ->
          let len = Dynarr.length es in
          let i = ref 0 in
          while (not !found) && !i < len do
            let packed = Dynarr.get es !i in
            incr i;
            if edge_spec packed = Filters.none then begin
              let d = Union_find.find st.uf (edge_dst packed) in
              if d = src then begin
                Hashtbl.replace parent src n;
                found := true
              end
              else if d <> n && Int_set.add visited d then begin
                Hashtbl.replace parent d n;
                stack := d :: !stack
              end
            end
          done
      end
  done;
  if !found then begin
    let members = ref [ src ] in
    let cur = ref src in
    while !cur <> dst do
      let p = Hashtbl.find parent !cur in
      members := p :: !members;
      cur := p
    done;
    merge_group st !members
  end

(* Merge a set of mutually-cycle-connected representatives into one class,
   keyed by the minimum node id (deterministic regardless of discovery
   order). Re-entrant cycle detection is suppressed for the duration: the
   edges a merge itself inserts are walked only by later insertions' walks. *)
and merge_group st members =
  let members = List.sort_uniq compare (List.map (Union_find.find st.uf) members) in
  match members with
  | [] | [ _ ] -> ()
  | rep :: losers ->
    st.cycles_collapsed <- st.cycles_collapsed + 1;
    let saved = st.in_merge in
    st.in_merge <- true;
    List.iter (fun l -> merge_into st ~rep ~loser:l) losers;
    st.in_merge <- saved

and merge_into st ~rep ~loser =
  ensure_node st (max rep loser);
  Union_find.union st.uf ~winner:rep ~loser;
  st.nodes_merged <- st.nodes_merged + 1;
  let cr = Dynarr.get st.member_count rep in
  let cl = Dynarr.get st.member_count loser in
  Dynarr.set st.member_count rep (cr + cl);
  (* Union the points-to sets. Derivation attribution: every object new to
     one side is a semantic insertion for each member of the other side, so
     the running total still equals the uncollapsed insertion count. *)
  (match Dynarr.get st.pts loser with
  | None -> (
    match Dynarr.get st.pts rep with
    | None -> ()
    | Some pr ->
      let n = Int_set.cardinal pr in
      st.repropagations_avoided <- st.repropagations_avoided + (cl * n);
      spend_n st (cl * n))
  | Some pl ->
    let pr = node_pts st rep in
    let common = Int_set.fold (fun o acc -> if Int_set.mem pr o then acc + 1 else acc) pl 0 in
    let fresh_to_rep = Int_set.cardinal pl - common in
    let fresh_to_loser = Int_set.cardinal pr - common in
    spend_n st ((cr * fresh_to_rep) + (cl * fresh_to_loser));
    st.repropagations_avoided <-
      st.repropagations_avoided + ((cr - 1) * fresh_to_rep) + (cl * fresh_to_loser);
    if fresh_to_rep > 0 then begin
      let pr = own_pts st rep in
      let pending = node_pending st rep in
      Int_set.iter (fun o -> if Int_set.add pr o then Dynarr.push pending o) pl;
      enqueue st rep
    end;
    Dynarr.set st.pts loser None;
    Dynarr.set st.borrowed loser false);
  (* Splice the loser's out-edges onto the representative. [add_edge]
     resolves, drops the resulting self-loops, dedups against the rep's
     list, and re-flushes the (now unioned) source set along each spliced
     edge — which also covers whatever sat undrained in the loser's pending
     batch. *)
  (match Dynarr.get st.edges loser with
  | None -> ()
  | Some les ->
    Dynarr.set st.edges loser None;
    Dynarr.set st.edge_seen loser None;
    Dynarr.iter
      (fun packed -> add_edge st ~src:rep ~dst:(edge_dst packed) ~spec:(edge_spec packed))
      les);
  Dynarr.set st.pending loser None;
  Dynarr.set st.on_list loser false;
  (* Base uses of merged-away var nodes keep firing on the representative's
     future batches; fire them once now over the full union so objects the
     loser had never seen are covered. Duplicate applications are no-ops. *)
  let transferred = Dynarr.create ~capacity:2 ~dummy:0 () in
  (match Node.kind loser with
  | Node.Var_node vn when var_has_uses st vn -> Dynarr.push transferred loser
  | _ -> ());
  (match Dynarr.get st.use_members loser with
  | None -> ()
  | Some ms ->
    Dynarr.set st.use_members loser None;
    Dynarr.iter (fun m -> Dynarr.push transferred m) ms);
  if Dynarr.length transferred > 0 then begin
    let rum = node_use_members st rep in
    Dynarr.iter (fun m -> Dynarr.push rum m) transferred;
    let objs =
      match Dynarr.get st.pts rep with
      | None -> [||]
      | Some s -> Int_set.to_sorted_array s
    in
    Dynarr.iter
      (fun m ->
        match Node.kind m with
        | Node.Var_node vn -> Array.iter (fun obj -> apply_var_uses st vn obj) objs
        | _ -> assert false)
      transferred
  end

and apply_var_uses st vn obj =
  let var = Pair_tbl.fst st.var_nodes vn in
  let ctx = Pair_tbl.snd st.var_nodes vn in
  List.iter (apply_use st ~ctx obj) st.base_uses.(var)

(* One use of a base variable in context [ctx] that points to [obj]. *)
and apply_use st ~ctx obj = function
  | Use_load { target; field } ->
    add_edge st ~src:(fld_node st obj field) ~dst:(var_node st target ctx) ~spec:Filters.none
  | Use_store { source; field } ->
    add_edge st ~src:(var_node st source ctx) ~dst:(fld_node st obj field) ~spec:Filters.none
  | Use_vcall invo -> dispatch_call st ~invo ~ctx obj

and cast_spec st cls = Filters.intern st.filters [| Filters.pos cls |]

(* Route exceptional flow out of [src] through the catch chain of the
   handling method instance [(handler, ctx)]: matched objects are bound to
   the clause variables, the rest escape to the handler's own exception
   node. *)
and route_exceptions st ~src ~handler ~ctx ~handler_reach_id =
  let clauses = (Program.meth_info st.p handler).catches in
  let clause_specs, escape_spec = catch_specs st handler in
  Array.iteri
    (fun i (clause : Program.catch_clause) ->
      add_edge st ~src ~dst:(var_node st clause.catch_var ctx) ~spec:clause_specs.(i))
    clauses;
  add_edge st ~src ~dst:(Node.of_exc handler_reach_id) ~spec:escape_spec

(* Mark (meth, ctx) reachable, processing the body on first sight; returns
   the dense id of the pair. *)
and ensure_reachable st meth ctx =
  match Pair_tbl.find_opt st.reach meth ctx with
  | Some id -> id
  | None ->
    let id = Pair_tbl.intern st.reach meth ctx in
    spend st;
    process_body st meth ctx ~reach_id:id;
    id

and process_body st meth ctx ~reach_id =
  let mi = Program.meth_info st.p meth in
  Array.iter (fun i -> process_instr st mi meth ctx ~reach_id i) mi.body

(* One instruction of [meth]'s body [mi] in context [ctx]. Loads, stores
   and virtual calls do nothing here: their base variable's points-to
   growth drives them. *)
and process_instr st (mi : Program.meth_info) meth ctx ~reach_id (i : Program.instr) =
  match i with
  | Alloc { target; heap } ->
    let strat =
      if Refine.refine_object st.cfg.refine heap then st.cfg.refined_strategy
      else st.cfg.default_strategy
    in
    let hctx = strat.record st.ctxs ~heap ~ctx in
    let obj = Pair_tbl.intern st.objs heap hctx in
    add_obj st (var_node st target ctx) obj ~spec:Filters.none
  | Move { target; source } ->
    add_edge st ~src:(var_node st source ctx) ~dst:(var_node st target ctx) ~spec:Filters.none
  | Cast { target; source; cast_to } ->
    add_edge st ~src:(var_node st source ctx) ~dst:(var_node st target ctx)
      ~spec:(cast_spec st cast_to)
  | Load _ | Store _ -> () (* driven by base-variable points-to growth *)
  | Load_static { target; field } ->
    add_edge st ~src:(Node.of_static_fld field) ~dst:(var_node st target ctx)
      ~spec:Filters.none
  | Store_static { field; source } ->
    add_edge st ~src:(var_node st source ctx) ~dst:(Node.of_static_fld field)
      ~spec:Filters.none
  | Call invo -> (
    match (Program.invo_info st.p invo).call with
    | Virtual _ -> () (* driven by receiver points-to growth *)
    | Static { callee } ->
      let strat =
        if Refine.refine_site st.cfg.refine ~invo ~meth:callee then st.cfg.refined_strategy
        else st.cfg.default_strategy
      in
      let callee_ctx = strat.merge_static st.ctxs ~invo ~caller:ctx in
      add_cg_edge st ~invo ~caller_ctx:ctx ~meth:callee ~callee_ctx)
  | Return { source } -> (
    match mi.ret_var with
    | Some ret ->
      add_edge st ~src:(var_node st source ctx) ~dst:(var_node st ret ctx)
        ~spec:Filters.none
    | None -> assert false (* ruled out by Wf *))
  | Throw { source } ->
    route_exceptions st ~src:(var_node st source ctx) ~handler:meth ~ctx
      ~handler_reach_id:reach_id

(* Record a context-sensitive call-graph edge; on first sight, make the
   callee reachable and wire up parameter and return copy edges. *)
and add_cg_edge st ~invo ~caller_ctx ~meth ~callee_ctx =
  let callee_id = ensure_reachable st meth callee_ctx in
  let caller_id = Pair_tbl.intern st.cg_caller invo caller_ctx in
  (* The seen-key packs both dense pair ids into one 62-bit int. Ids are
     interned counters, so 2^31 of either means a run astronomically past
     any budget — but guard explicitly: a silent wrap would collide two
     distinct call-graph edges and drop one unsoundly. *)
  if caller_id lsr cg_key_bits <> 0 || callee_id lsr cg_key_bits <> 0 then
    failwith
      (Printf.sprintf
         "Solver.add_cg_edge: call-graph pair id (%d, %d) exceeds the %d-bit packed key space"
         caller_id callee_id cg_key_bits);
  let key = (caller_id lsl cg_key_bits) lor callee_id in
  if Int_set.add st.cg_seen key then begin
    spend st;
    Dynarr.push st.cg invo;
    Dynarr.push st.cg caller_ctx;
    Dynarr.push st.cg meth;
    Dynarr.push st.cg callee_ctx;
    let ii = Program.invo_info st.p invo in
    let mi = Program.meth_info st.p meth in
    Array.iteri
      (fun idx actual ->
        add_edge st
          ~src:(var_node st actual caller_ctx)
          ~dst:(var_node st mi.formals.(idx) callee_ctx)
          ~spec:Filters.none)
      ii.actuals;
    (match (ii.recv, mi.ret_var) with
    | Some recv, Some ret ->
      add_edge st ~src:(var_node st ret callee_ctx) ~dst:(var_node st recv caller_ctx)
        ~spec:Filters.none
    | _ -> ());
    (* Exceptions escaping the callee flow through the caller's catch
       chain. The caller instance is necessarily reachable already. *)
    let caller_meth = ii.invo_owner in
    let caller_reach_id = Pair_tbl.intern st.reach caller_meth caller_ctx in
    route_exceptions st ~src:(Node.of_exc callee_id) ~handler:caller_meth ~ctx:caller_ctx
      ~handler_reach_id:caller_reach_id
  end

and dispatch_call st ~invo ~ctx obj =
  let ii = Program.invo_info st.p invo in
  match ii.call with
  | Static _ -> assert false
  | Virtual { base = _; signature } -> (
    let heap = Pair_tbl.fst st.objs obj in
    let hctx = Pair_tbl.snd st.objs obj in
    match Program.dispatch st.p (heap_class st heap) signature with
    | None -> () (* unresolved dispatch: a would-be runtime error *)
    | Some target ->
      let strat =
        if Refine.refine_site st.cfg.refine ~invo ~meth:target then st.cfg.refined_strategy
        else st.cfg.default_strategy
      in
      let callee_ctx = strat.merge st.p st.ctxs ~heap ~hctx ~invo ~caller:ctx in
      add_cg_edge st ~invo ~caller_ctx:ctx ~meth:target ~callee_ctx;
      (match (Program.meth_info st.p target).this_var with
      | Some this -> add_obj st (var_node st this callee_ctx) obj ~spec:Filters.none
      | None -> ()))

let process_node st n =
  Dynarr.set st.on_list n false;
  (* The batch is the pending prefix present when processing starts; it is
     consumed exactly once, so it is iterated in place (no [to_array] copy)
     and dropped at the end. [add_obj] may append to the same pending array
     mid-batch; those objects stay for the node's next worklist round. *)
  let pending = node_pending st n in
  let n_batch = Dynarr.length pending in
  st.batches <- st.batches + 1;
  st.batch_objs <- st.batch_objs + n_batch;
  if n_batch > st.max_batch then st.max_batch <- n_batch;
  (* Propagate along the copy edges present when processing starts; edges
     added mid-batch flush the full points-to set themselves. *)
  let es = node_edges st n in
  let n_edges = Dynarr.length es in
  for e = 0 to n_edges - 1 do
    let packed = Dynarr.get es e in
    let dst = edge_dst packed in
    let spec = edge_spec packed in
    Dynarr.iter_prefix (fun obj -> add_obj st dst obj ~spec) pending ~n:n_batch
  done;
  (match Node.kind n with
  | Node.Fld_node _ | Node.Static_fld _ | Node.Exc_node _ -> ()
  | Node.Var_node vn ->
    if var_has_uses st vn then
      Dynarr.iter_prefix (fun obj -> apply_var_uses st vn obj) pending ~n:n_batch);
  (* Uses of var nodes merged into this representative fire on the same
     batch. Members merged in mid-batch were already applied over the full
     union at merge time, so missing them here loses nothing. *)
  (match Dynarr.get st.use_members n with
  | None -> ()
  | Some ms ->
    Dynarr.iter
      (fun m ->
        match Node.kind m with
        | Node.Var_node vn ->
          Dynarr.iter_prefix (fun obj -> apply_var_uses st vn obj) pending ~n:n_batch
        | _ -> assert false)
      ms);
  Dynarr.drop_prefix pending n_batch

(* ------------------------------------------------------------------ *)
(* A kept state between solves. Each state a warm result keeps alive is
   memory the whole process carries, so between solves it holds only what
   resuming needs: its fixpoint's sets, edges, tables and merge structure.
   The other per-node arrays are dropped and rebuilt when it resumes: at a
   fixpoint no node is queued or has a pending batch, the dedup indexes
   are rebuilt on demand, a node borrows exactly when it holds a
   non-empty set (the kept sets are the solution's), and member counts
   and use members follow from the union-find: a representative's use
   members are the merged-away variable nodes of its class whose variable
   has uses. Rebuilt after the state moves to the edited program, that
   also enlists the nodes of variables the edit gives their first use. *)

let shed st =
  st.borrowed <- Dynarr.create ~capacity:1 ~dummy:false ();
  st.edge_seen <- Dynarr.create ~capacity:1 ~dummy:None ();
  st.pending <- Dynarr.create ~capacity:1 ~dummy:None ();
  st.on_list <- Dynarr.create ~capacity:1 ~dummy:false ();
  st.member_count <- Dynarr.create ~capacity:1 ~dummy:1 ();
  st.use_members <- Dynarr.create ~capacity:1 ~dummy:None ()

let restore st =
  let n = Dynarr.length st.pts in
  let filled x = Dynarr.make ~capacity:(n + (n / 8)) n x in
  st.borrowed <- filled false;
  Dynarr.iteri
    (fun i s ->
      match s with
      | Some s when Int_set.cardinal s > 0 -> Dynarr.set st.borrowed i true
      | _ -> ())
    st.pts;
  st.edge_seen <- filled None;
  st.pending <- filled None;
  st.on_list <- filled false;
  st.member_count <- filled 1;
  st.use_members <- filled None;
  for i = 0 to n - 1 do
    let r = Union_find.find st.uf i in
    if r <> i then begin
      Dynarr.set st.member_count r (Dynarr.get st.member_count r + 1);
      match Node.kind i with
      | Node.Var_node vn when var_has_uses st vn -> Dynarr.push (node_use_members st r) i
      | _ -> ()
    end
  done

(* ------------------------------------------------------------------ *)
(* Materialization. Collapse and the visit order must be invisible above
   the solver, bit for bit: the solution is renumbered into a canonical
   order — contexts by their element sequences, pair tables by their
   (renumbered) components, call-graph edges sorted — and every merged node
   gets its representative's points-to set, laid out by
   [Int_set.of_sorted_array]. The resulting tables, set layouts included,
   are a pure function of the semantic fixpoint, independent of
   propagation order, of which nodes were merged and of whether the solve
   started warm. Only which slots share one set object follows the merged
   classes, the contents and what a warm solve borrowed; no output depends
   on it. *)

let cmp_int_arrays (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else begin
    let rec go i =
      if i = la then 0
      else
        let c = Int.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0
  end

(* Sorted element arrays by content. [Hashtbl.hash] would read only the
   first ten elements, so the hash reads them all. *)
module Content_tbl = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) b =
    let n = Array.length a in
    let rec go i = i = n || (a.(i) = b.(i) && go (i + 1)) in
    n = Array.length b && go 0

  let hash (a : t) =
    let h = ref (Array.length a) in
    for i = 0 to Array.length a - 1 do
      h := (!h lxor a.(i)) * 0x100000001b3
    done;
    !h land max_int
end)

let materialize ?gen st outcome ~set_promotions =
  (* Contexts first: every other table's canonical key depends on them. The
     empty context sorts first (shortest sequence), so it keeps id 0. *)
  let n_ctxs = Ctx.count st.ctxs in
  let ctx_order = Array.init n_ctxs (fun i -> i) in
  Array.sort (fun a b -> cmp_int_arrays (Ctx.elems st.ctxs a) (Ctx.elems st.ctxs b)) ctx_order;
  let ctx_map = Array.make (max 1 n_ctxs) 0 in
  Array.iteri (fun new_id old_id -> ctx_map.(old_id) <- new_id) ctx_order;
  let ctxs' = Ctx.create () in
  Array.iter
    (fun old_id ->
      let id = Ctx.intern ctxs' (Array.copy (Ctx.elems st.ctxs old_id)) in
      assert (id = ctx_map.(old_id)))
    ctx_order;
  let ctx c = ctx_map.(c) in
  let objs', obj_map = Pair_tbl.renumber st.objs ~fst:Fun.id ~snd:ctx in
  let var_nodes', var_map = Pair_tbl.renumber st.var_nodes ~fst:Fun.id ~snd:ctx in
  let fld_nodes', fld_map =
    (* Field-based mode stores a literal 0 as every base object; keep it
       (it is not an object id there). *)
    Pair_tbl.renumber st.fld_nodes
      ~fst:(if st.cfg.field_sensitive then fun o -> obj_map.(o) else Fun.id)
      ~snd:Fun.id
  in
  let reach', reach_map = Pair_tbl.renumber st.reach ~fst:Fun.id ~snd:ctx in
  (* Call-graph edges sort on two packed keys, (invo, caller) then (meth,
     callee): the order of the 4-tuples. Every half fits [cg_key_bits]:
     invos and methods are program ids, and both pairs were interned into
     Pair_tbls ([cg_caller], [reach]), which bound their components. *)
  let n_cg = Dynarr.length st.cg / 4 in
  let cg_at i k = Dynarr.get st.cg ((4 * i) + k) in
  let site = Array.init n_cg (fun i -> (cg_at i 0 lsl cg_key_bits) lor ctx (cg_at i 1)) in
  let target = Array.init n_cg (fun i -> (cg_at i 2 lsl cg_key_bits) lor ctx (cg_at i 3)) in
  let order = Int_sort.sort_perm site (Int_sort.sort_perm target (Array.init n_cg Fun.id)) in
  let cg' = Dynarr.create ~capacity:(max 16 (4 * n_cg)) ~dummy:0 () in
  Array.iter
    (fun i ->
      Dynarr.push cg' (cg_at i 0);
      Dynarr.push cg' (ctx (cg_at i 1));
      Dynarr.push cg' (cg_at i 2);
      Dynarr.push cg' (ctx (cg_at i 3)))
    order;
  let remap_node n =
    match Node.kind n with
    | Node.Var_node vn -> Node.of_var_node var_map.(vn)
    | Node.Fld_node fn -> Node.of_fld_node fld_map.(fn)
    | Node.Static_fld f -> Node.of_static_fld f
    | Node.Exc_node r -> Node.of_exc reach_map.(r)
  in
  (* Expand representatives: every original node gets the (renumbered)
     points-to set of its representative. Sets are shared within a merged
     class and between equal contents — the solution is read-only above
     the solver, and a state that borrows a set copies it before its
     first insertion. Slots are written sparsely, so the array length is
     max populated slot + 1: canonical.
     A set is built by [Int_set.of_sorted_array] from its renumbered
     elements, so its layout is canonical too. A warm solve hands a set
     it still borrows back as it is when the renumbering keeps every
     element's id: the baseline built it the same way from the same
     elements. Borrowed sets hold only baseline objects, and the
     renumbering keeps the order of those, so it keeps the ids below the
     first one it moves. *)
  let first_moved =
    let rec go o = if o < st.base_objs && obj_map.(o) = o then go (o + 1) else o in
    go 0
  in
  let unmoved s =
    first_moved = st.base_objs || not (Int_set.exists (fun o -> o >= first_moved) s)
  in
  let n_old = Dynarr.length st.pts in
  let remapped = Array.make (max 1 n_old) None in
  (* Every set built afresh is looked up by its content first, so the
     solution holds one object per distinct content (among the fresh
     ones): far fewer than slots under context sensitivity. *)
  let built = Content_tbl.create 256 in
  (* The remapped set of representative [rep], as the option that both
     the solution's slots and a kept state hold. *)
  let remap_set rep s =
    match remapped.(rep) with
    | Some _ as some -> some
    | None ->
      let some =
        if Dynarr.get st.borrowed rep && unmoved s then Some s
        else begin
          let elems = Array.make (Int_set.cardinal s) 0 in
          let k = ref 0 in
          Int_set.iter
            (fun o ->
              elems.(!k) <- obj_map.(o);
              incr k)
            s;
          let elems = Int_sort.sort_distinct elems in
          match Content_tbl.find_opt built elems with
          | Some some -> some
          | None ->
            let some = Some (Int_set.of_sorted_array elems) in
            Content_tbl.add built elems some;
            some
        end
      in
      remapped.(rep) <- some;
      some
  in
  let slots = Array.make (max 1 n_old) (-1) in
  let max_slot = ref (-1) in
  for n = 0 to n_old - 1 do
    let r = Union_find.find st.uf n in
    match (if r < n_old then Dynarr.get st.pts r else None) with
    | Some s when Int_set.cardinal s > 0 ->
      let n' = remap_node n in
      slots.(n) <- n';
      if n' > !max_slot then max_slot := n'
    | _ -> ()
  done;
  let pts' = Dynarr.create ~capacity:(max 16 n_old) ~dummy:None () in
  for _ = 0 to !max_slot do
    Dynarr.push pts' None
  done;
  for n = 0 to n_old - 1 do
    if slots.(n) >= 0 then begin
      let r = Union_find.find st.uf n in
      match Dynarr.get st.pts r with
      | Some s -> Dynarr.set pts' slots.(n) (remap_set r s)
      | None -> assert false
    end
  done;
  (* A state kept for resuming adopts the solution's object numbering and
     borrows the sets it just handed out: the next materialize hands back
     every set the next edit neither touches nor renumbers, instead of
     rebuilding it, and the state holds no copy of them. Objects occur in
     the state only in [objs], in the keys of [fld_nodes] and in sets (the
     pending batches are empty at a fixpoint); node ids do not change. *)
  let n_objs = Pair_tbl.count st.objs in
  if Option.is_some gen then begin
    let renumbered =
      let rec go o = o < n_objs && (obj_map.(o) <> o || go (o + 1)) in
      go first_moved
    in
    if renumbered then begin
      let by_new_id = Array.make n_objs 0 in
      for o = 0 to n_objs - 1 do
        by_new_id.(obj_map.(o)) <- o
      done;
      let objs = Pair_tbl.create ~capacity:(max 16 n_objs) () in
      Array.iter
        (fun o -> ignore (Pair_tbl.intern objs (Pair_tbl.fst st.objs o) (Pair_tbl.snd st.objs o)))
        by_new_id;
      st.objs <- objs;
      (* Interned in id order, every field node keeps its id. *)
      if st.cfg.field_sensitive then begin
        let flds = Pair_tbl.create ~capacity:(max 16 (Pair_tbl.count st.fld_nodes)) () in
        Pair_tbl.iter
          (fun _ o field -> ignore (Pair_tbl.intern flds obj_map.(o) field))
          st.fld_nodes;
        st.fld_nodes <- flds
      end
    end;
    Array.iteri (fun r some -> if Option.is_some some then Dynarr.set st.pts r some) remapped;
    st.base_objs <- n_objs;
    shed st
  end;
  {
    Solution.program = st.p;
    config = Some (config_digest st.cfg);
    ctxs = ctxs';
    objs = objs';
    var_nodes = var_nodes';
    fld_nodes = fld_nodes';
    pts = pts';
    reach = reach';
    cg = cg';
    outcome;
    derivations = st.derivations;
    counters =
      {
        Solution.edges_added = st.edges_added;
        edges_deduped = st.edges_deduped;
        batches = st.batches;
        batch_objs = st.batch_objs;
        max_batch = st.max_batch;
        set_promotions;
        cycles_collapsed = st.cycles_collapsed;
        nodes_merged = st.nodes_merged;
        repropagations_avoided = st.repropagations_avoided;
      };
    resume = Option.map (fun gen -> Live { st; gen }) gen;
    collapsed_vpt_cache = None;
    collapsed_fpt_cache = None;
    reachable_meths_cache = None;
    call_targets_cache = None;
    inverted_vpt_cache = None;
    inverted_fpt_cache = None;
    callee_meths_cache = None;
    caller_sites_cache = None;
  }

(* Process worklist entries, first in first out, until the fixpoint. An
   entry may be stale: the node may have been merged away (or its
   representative already drained) since it was queued. *)
let drain st =
  while not (Queue.is_empty st.worklist) do
    let r = Union_find.find st.uf (Queue.pop st.worklist) in
    if Dynarr.get st.on_list r then process_node st r
  done

type installed = { facts : int; edges : int }

(* Install a previously materialized fixpoint into fresh solver state for
   its own program, as already propagated: every pending batch stays empty.
   Contexts and objects are re-interned in id order, so both maps are the
   identity. Every base set goes straight into its node, borrowed: the
   node holds the baseline's own set object until its first insertion
   copies it (see [own_pts]). Marking the base's reachable pairs processes
   their bodies, whose edges are only recorded; the base-variable uses of
   every installed (variable, object) pair fire the same way. Anything the
   program derives beyond the baseline raises [Stale_baseline]. The result
   is the state a solve of the base would have kept, ready to resume. *)
let install st (base : Solution.t) =
  st.installing <- true;
  for i = 0 to Ctx.count base.ctxs - 1 do
    let id = Ctx.intern st.ctxs (Array.copy (Ctx.elems base.ctxs i)) in
    assert (id = i)
  done;
  for i = 0 to Pair_tbl.count base.objs - 1 do
    let id = Pair_tbl.intern st.objs (Pair_tbl.fst base.objs i) (Pair_tbl.snd base.objs i) in
    assert (id = i)
  done;
  st.base_objs <- Pair_tbl.count base.objs;
  let facts = ref 0 in
  let put node s =
    ensure_node st node;
    facts := !facts + Int_set.cardinal s;
    Dynarr.set st.pts node (Some s);
    Dynarr.set st.borrowed node true
  in
  let var_of vn =
    Pair_tbl.intern st.var_nodes (Pair_tbl.fst base.var_nodes vn) (Pair_tbl.snd base.var_nodes vn)
  in
  Dynarr.iteri
    (fun n set ->
      match (set, Node.kind n) with
      | None, _ | _, Node.Exc_node _ -> ()
      | Some s, Node.Var_node vn -> put (Node.of_var_node (var_of vn)) s
      | Some s, Node.Fld_node fn ->
        put (fld_node st (Pair_tbl.fst base.fld_nodes fn) (Pair_tbl.snd base.fld_nodes fn)) s
      | Some s, Node.Static_fld f -> put (Node.of_static_fld f) s)
    base.pts;
  let n_reach = Pair_tbl.count base.reach in
  for i = 0 to n_reach - 1 do
    ignore (ensure_reachable st (Pair_tbl.fst base.reach i) (Pair_tbl.snd base.reach i))
  done;
  Dynarr.iteri
    (fun n set ->
      match (set, Node.kind n) with
      | Some s, Node.Exc_node r -> (
        match Pair_tbl.find_opt st.reach (Pair_tbl.fst base.reach r) (Pair_tbl.snd base.reach r)
        with
        | Some id -> put (Node.of_exc id) s
        | None -> assert false (* every base reach pair was marked above *))
      | _ -> ())
    base.pts;
  Dynarr.iteri
    (fun n set ->
      match (set, Node.kind n) with
      | Some s, Node.Var_node vn when st.base_uses.(Pair_tbl.fst base.var_nodes vn) <> [] ->
        let vn = var_of vn in
        Int_set.iter (fun obj -> apply_var_uses st vn obj) s
      | _ -> ())
    base.pts;
  if Pair_tbl.count st.reach > n_reach then
    raise (Stale_baseline "stale baseline: new reachable method");
  if Dynarr.length st.cg > Dynarr.length base.cg then
    raise (Stale_baseline "stale baseline: new call-graph edge");
  st.installing <- false;
  { facts = !facts; edges = st.edges_added }

(* Every solve ends the same way: [start] (a resume's counted work), the
   entry points, the drain, then materialize. A warm result carries a
   handle to [st] issued with generation [gen]. *)
let complete ?gen st start =
  let promotions_before = Int_set.promotion_count () in
  let outcome =
    try
      start ();
      List.iter (fun m -> ignore (ensure_reachable st m Ctx.empty)) (Program.entries st.p);
      drain st;
      Solution.Complete
    with Out_of_budget -> Solution.Budget_exceeded
  in
  let set_promotions = Int_set.promotion_count () - promotions_before in
  let gen = if outcome = Solution.Complete then gen else None in
  materialize ?gen st outcome ~set_promotions

let run p cfg = complete (create p cfg) ignore

(* ------------------------------------------------------------------ *)
(* Resuming. A warm result's state is the fixpoint of its program under
   its config, still live; an installed base's state is the same. A warm
   solve from it, on a monotone extension ({!Summary.delta}), moves the
   state to the edited program and runs only the counted work of the edit
   on it. By the extension's contract every old
   constraint is unchanged: bodies only gain appended instructions,
   catches, formals, [this] and old dispatch stay, and a method may gain
   a return variable, old or fresh. So the new constraints are the appended
   instructions in every reachable context of their method, the new
   base-variable uses they add (over the sets their base variables
   already hold), and the return edge of every old call-graph edge into a
   method that gained a return variable; new entry points are made
   reachable as in every solve. *)

let resume_state st ~gen ~changed p cfg =
  let old_p = st.p in
  let n_old_meths = Program.n_meths old_p in
  (* The length of [m]'s body that the state has processed. *)
  let processed m = if m < n_old_meths then Array.length (Program.meth_info old_p m).body else 0 in
  let uses = Array.make (Program.n_vars p) [] in
  Array.blit st.base_uses 0 uses 0 (Array.length st.base_uses);
  Array.iteri (fun m c -> if c then add_body_uses p uses m ~from:(processed m)) changed;
  st.p <- p;
  st.cfg <- cfg;
  st.base_uses <- uses;
  st.catch_specs <-
    Array.append st.catch_specs (Array.make (Program.n_meths p - n_old_meths) None);
  st.derivations <- 0;
  st.edges_added <- 0;
  st.edges_deduped <- 0;
  st.batches <- 0;
  st.batch_objs <- 0;
  st.max_batch <- 0;
  st.cycles_collapsed <- 0;
  st.nodes_merged <- 0;
  st.repropagations_avoided <- 0;
  restore st;
  let sol =
    complete ~gen:(gen + 1) st (fun () ->
        (* The reachable instances of changed methods, before the edit's
           work makes more reachable (those process their whole body). *)
        let instances = Dynarr.create ~capacity:64 ~dummy:0 () in
        for id = 0 to Pair_tbl.count st.reach - 1 do
          let m = Pair_tbl.fst st.reach id in
          if m < n_old_meths && changed.(m) then Dynarr.push instances id
        done;
        (* Old call-graph edges into a method that gained a return
           variable: its return edge. Edges added from here on wire it
           themselves. *)
        let gained_ret m =
          m < n_old_meths && changed.(m)
          && (Program.meth_info old_p m).ret_var = None
          && (Program.meth_info p m).ret_var <> None
        in
        let rec any_gained m = m < n_old_meths && (gained_ret m || any_gained (m + 1)) in
        if any_gained 0 then begin
          let n_cg = Dynarr.length st.cg / 4 in
          for i = 0 to n_cg - 1 do
            let cg_at k = Dynarr.get st.cg ((4 * i) + k) in
            let meth = cg_at 2 in
            if gained_ret meth then
              match ((Program.invo_info p (cg_at 0)).recv, (Program.meth_info p meth).ret_var) with
              | Some recv, Some ret ->
                add_edge st ~src:(var_node st ret (cg_at 3)) ~dst:(var_node st recv (cg_at 1))
                  ~spec:Filters.none
              | _ -> ()
          done
        end;
        (* The appended instructions, in every reachable context. A new
           use also fires over what its base variable already holds; the
           base's later growth fires it through [base_uses]. *)
        Dynarr.iter
          (fun id ->
            let meth = Pair_tbl.fst st.reach id in
            let ctx = Pair_tbl.snd st.reach id in
            let mi = Program.meth_info p meth in
            for k = processed meth to Array.length mi.body - 1 do
              let i = mi.body.(k) in
              process_instr st mi meth ctx ~reach_id:id i;
              match use_of p i with
              | None -> ()
              | Some (base, use) -> (
                match Pair_tbl.find_opt st.var_nodes base ctx with
                | None -> ()
                | Some vn -> (
                  let r = Union_find.find st.uf (Node.of_var_node vn) in
                  match if r < Dynarr.length st.pts then Dynarr.get st.pts r else None with
                  | None -> ()
                  | Some s ->
                    Array.iter (fun obj -> apply_use st ~ctx obj use) (Int_set.to_sorted_array s)))
            done)
          instances)
  in
  Atomic.set st.generation (gen + 1);
  sol

(* The live state behind a warm [base] resumes when its handle is current;
   otherwise the base is installed into fresh state for [base_program],
   which then resumes the same way. *)
let warm ~base_program ~changed (base : Solution.t) p cfg =
  match base.resume with
  | Some (Live { st; gen })
    when st.p == base_program && Atomic.compare_and_set st.generation gen claimed ->
    Ok (resume_state st ~gen ~changed p cfg, None)
  | _ -> (
    let st = create ~base base_program cfg in
    match install st base with
    | installed -> Ok (resume_state st ~gen:0 ~changed p cfg, Some installed)
    | exception Stale_baseline reason -> Error reason)

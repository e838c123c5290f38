module Program = Ipa_ir.Program
module Int_set = Ipa_support.Int_set

type query = Program.var_id list

(* Dependence nodes over the context-insensitive result: variables, field
   slots keyed as in Solution.collapsed_fld_pts, static fields, and
   per-method exception flows. Encoded into one int space. *)
type node_space = { n_vars : int; n_fld_keys : int; n_fields : int }

let var_node _sp v = v
let fld_node sp key = sp.n_vars + key
let sfld_node sp f = sp.n_vars + sp.n_fld_keys + f
let exc_node sp m = sp.n_vars + sp.n_fld_keys + sp.n_fields + m

(* Build the backward dependence edges: for each node, the nodes whose
   points-to contents flow into it. *)
let build_backward (s : Solution.t) : node_space * int list array =
  let p = s.program in
  let vpt = Solution.collapsed_var_pts s in
  let sp =
    {
      n_vars = Program.n_vars p;
      n_fld_keys = Program.n_heaps p * Program.n_fields p;
      n_fields = Program.n_fields p;
    }
  in
  let n_nodes = sp.n_vars + sp.n_fld_keys + sp.n_fields + Program.n_meths p in
  let preds = Array.make n_nodes [] in
  let edge ~src ~dst = preds.(dst) <- src :: preds.(dst) in
  let reachable = Solution.reachable_meths s in
  Int_set.iter
    (fun m ->
      let mi = Program.meth_info p m in
      Array.iter
        (fun (instr : Program.instr) ->
          match instr with
          | Alloc _ -> ()
          | Move { target; source } | Cast { target; source; _ } ->
            edge ~src:(var_node sp source) ~dst:(var_node sp target)
          | Load { target; base; field } ->
            edge ~src:(var_node sp base) ~dst:(var_node sp target);
            Int_set.iter
              (fun h ->
                edge
                  ~src:(fld_node sp (Solution.fld_pts_key s ~heap:h ~field))
                  ~dst:(var_node sp target))
              vpt.(base)
          | Store { base; field; source } ->
            Int_set.iter
              (fun h ->
                let dst = fld_node sp (Solution.fld_pts_key s ~heap:h ~field) in
                edge ~src:(var_node sp source) ~dst;
                edge ~src:(var_node sp base) ~dst)
              vpt.(base)
          | Load_static { target; field } -> edge ~src:(sfld_node sp field) ~dst:(var_node sp target)
          | Store_static { field; source } ->
            edge ~src:(var_node sp source) ~dst:(sfld_node sp field)
          | Call _ -> () (* handled from the call graph below *)
          | Return _ -> () (* normalized through ret_var moves below *)
          | Throw { source } ->
            (* thrown values reach the method's catch variables and its
               exception flow *)
            Array.iter
              (fun (clause : Program.catch_clause) ->
                edge ~src:(var_node sp source) ~dst:(var_node sp clause.catch_var))
              mi.catches;
            edge ~src:(var_node sp source) ~dst:(exc_node sp m))
        mi.body;
      Array.iter
        (fun (instr : Program.instr) ->
          match instr with
          | Return { source } -> (
            match mi.ret_var with
            | Some ret -> edge ~src:(var_node sp source) ~dst:(var_node sp ret)
            | None -> ())
          | _ -> ())
        mi.body)
    reachable;
  (* Inter-procedural edges from the collapsed call graph. *)
  Hashtbl.iter
    (fun invo targets ->
      let ii = Program.invo_info p invo in
      Int_set.iter
        (fun m ->
          let mi = Program.meth_info p m in
          Array.iteri
            (fun i actual ->
              if i < Array.length mi.formals then
                edge ~src:(var_node sp actual) ~dst:(var_node sp mi.formals.(i)))
            ii.actuals;
          (match (ii.recv, mi.ret_var) with
          | Some recv, Some ret -> edge ~src:(var_node sp ret) ~dst:(var_node sp recv)
          | _ -> ());
          (match ii.call with
          | Virtual { base; _ } -> (
            match mi.this_var with
            | Some this -> edge ~src:(var_node sp base) ~dst:(var_node sp this)
            | None -> ())
          | Static _ -> ());
          (* callee exceptions reach the caller's handlers and exc flow *)
          let caller = ii.invo_owner in
          Array.iter
            (fun (clause : Program.catch_clause) ->
              edge ~src:(exc_node sp m) ~dst:(var_node sp clause.catch_var))
            (Program.meth_info p caller).catches;
          edge ~src:(exc_node sp m) ~dst:(exc_node sp caller))
        targets)
    (Solution.call_targets s);
  (sp, preds)

let select (s : Solution.t) (query : query) : Refine.t =
  let p = s.program in
  let sp, preds = build_backward s in
  (* Backward reachability from the query variables. *)
  let n_nodes = Array.length preds in
  let in_slice = Array.make n_nodes false in
  let stack = ref (List.map (var_node sp) query) in
  List.iter (fun n -> in_slice.(n) <- true) !stack;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | n :: rest ->
      stack := rest;
      List.iter
        (fun m ->
          if not in_slice.(m) then begin
            in_slice.(m) <- true;
            stack := m :: !stack
          end)
        preds.(n)
  done;
  (* Methods touched by the slice: owners of slice variables. *)
  let slice_meths = Int_set.create () in
  for v = 0 to sp.n_vars - 1 do
    if in_slice.(v) then ignore (Int_set.add slice_meths (Program.var_info p v).var_owner)
  done;
  (* Objects to refine: heaps in the points-to sets of slice variables, and
     heaps whose field slots the slice traverses. *)
  let refine_objects = Int_set.create () in
  let vpt = Solution.collapsed_var_pts s in
  for v = 0 to sp.n_vars - 1 do
    if in_slice.(v) then Int_set.iter (fun h -> ignore (Int_set.add refine_objects h)) vpt.(v)
  done;
  for key = 0 to sp.n_fld_keys - 1 do
    if in_slice.(sp.n_vars + key) then
      ignore (Int_set.add refine_objects (key / Program.n_fields p))
  done;
  (* Call sites to refine: candidate pairs whose target contains slice
     variables (calling those methods with context is what separates the
     query's flows). *)
  let skip_sites = Int_set.create () in
  let skip_objects = Int_set.create () in
  Hashtbl.iter
    (fun invo targets ->
      Int_set.iter
        (fun m ->
          if not (Int_set.mem slice_meths m) then
            ignore (Int_set.add skip_sites (Refine.pack_site ~invo ~meth:m)))
        targets)
    (Solution.call_targets s);
  for h = 0 to Program.n_heaps p - 1 do
    if not (Int_set.mem refine_objects h) then ignore (Int_set.add skip_objects h)
  done;
  Refine.All_except { skip_objects; skip_sites }

let selection_size (s : Solution.t) refine =
  let stats = Heuristics.selection_stats s refine in
  (stats.sites_total - stats.sites_skipped, stats.objects_total - stats.objects_skipped)

let cast_queries (s : Solution.t) =
  List.map (fun (c : Precision.cast) -> (c.source, c.target_type)) (Precision.casts s)

module Program = Ipa_ir.Program
module Int_set = Ipa_support.Int_set
module Table = Ipa_support.Ascii_table

type meth_row = {
  meth : Program.meth_id;
  contexts : int;
  vpt_tuples : int;
  max_var_tuples : int;
}

type obj_row = {
  heap : Program.heap_id;
  heap_contexts : int;
  pointed_by_nodes : int;
}

type t = {
  methods : meth_row list;
  objects : obj_row list;
}

let compute (s : Solution.t) : t =
  let p = s.program in
  let n_meths = Program.n_meths p in
  let contexts = Array.make n_meths 0 in
  let vpt = Array.make n_meths 0 in
  let max_var = Array.make n_meths 0 in
  Solution.iter_reachable s (fun ~meth ~ctx:_ -> contexts.(meth) <- contexts.(meth) + 1);
  (* Per (var, ctx) set sizes, attributed to the owning method. *)
  let per_node = Hashtbl.create 1024 in
  Solution.iter_var_pts s (fun ~var ~ctx ~heap:_ ~hctx:_ ->
      let key = (var, ctx) in
      Hashtbl.replace per_node key (1 + Option.value ~default:0 (Hashtbl.find_opt per_node key)));
  Hashtbl.iter
    (fun (var, _ctx) count ->
      let m = (Program.var_info p var).var_owner in
      vpt.(m) <- vpt.(m) + count;
      if count > max_var.(m) then max_var.(m) <- count)
    per_node;
  let methods =
    List.filter (fun r -> r.vpt_tuples > 0 || r.contexts > 0)
      (List.init n_meths (fun m ->
           { meth = m; contexts = contexts.(m); vpt_tuples = vpt.(m); max_var_tuples = max_var.(m) }))
  in
  let methods =
    List.sort (fun a b -> compare (b.vpt_tuples, b.contexts) (a.vpt_tuples, a.contexts)) methods
  in
  let n_heaps = Program.n_heaps p in
  let hctxs = Array.make n_heaps 0 in
  let seen_hctx = Array.make n_heaps None in
  let pointed = Array.make n_heaps 0 in
  Solution.iter_var_pts s (fun ~var:_ ~ctx:_ ~heap ~hctx ->
      pointed.(heap) <- pointed.(heap) + 1;
      let seen =
        match seen_hctx.(heap) with
        | Some set -> set
        | None ->
          let set = Int_set.create ~capacity:4 () in
          seen_hctx.(heap) <- Some set;
          set
      in
      if Int_set.add seen hctx then hctxs.(heap) <- hctxs.(heap) + 1);
  let objects =
    List.filter (fun r -> r.pointed_by_nodes > 0)
      (List.init n_heaps (fun h ->
           { heap = h; heap_contexts = hctxs.(h); pointed_by_nodes = pointed.(h) }))
  in
  let objects =
    List.sort (fun a b -> compare b.pointed_by_nodes a.pointed_by_nodes) objects
  in
  { methods; objects }

let take limit xs = List.filteri (fun i _ -> i < limit) xs

let print_counters (s : Solution.t) =
  let c = s.counters in
  print_endline "-- solver propagation counters --";
  let pct part whole =
    if whole = 0 then "-" else Printf.sprintf "%.1f%%" (100.0 *. float_of_int part /. float_of_int whole)
  in
  Table.print
    ~header:[ "counter"; "value"; "note" ]
    [
      [ "copy edges added"; string_of_int c.edges_added; "" ];
      [
        "copy edges deduped";
        string_of_int c.edges_deduped;
        pct c.edges_deduped (c.edges_added + c.edges_deduped) ^ " of requests";
      ];
      [ "worklist batches"; string_of_int c.batches; "" ];
      [
        "objects per batch";
        (if c.batches = 0 then "-"
         else Printf.sprintf "%.2f" (float_of_int c.batch_objs /. float_of_int c.batches));
        Printf.sprintf "max %d" c.max_batch;
      ];
      [ "small-set promotions"; string_of_int c.set_promotions; "past 8 elements" ];
      [ "cycles collapsed"; string_of_int c.cycles_collapsed; "online cycle elimination" ];
      [ "nodes merged"; string_of_int c.nodes_merged; "absorbed into representatives" ];
      [
        "repropagations avoided";
        string_of_int c.repropagations_avoided;
        pct c.repropagations_avoided s.derivations ^ " of derivations";
      ];
    ]

let top_methods ?(limit = 15) s = take limit (compute s).methods
let top_objects ?(limit = 15) s = take limit (compute s).objects

let print ?(limit = 15) s =
  let p = s.Solution.program in
  let d = compute s in
  print_endline "-- hottest methods (context-sensitive var-points-to tuples) --";
  Table.print
    ~header:[ "method"; "contexts"; "vpt tuples"; "max var set" ]
    (List.map
       (fun r ->
         [
           Program.meth_full_name p r.meth;
           string_of_int r.contexts;
           string_of_int r.vpt_tuples;
           string_of_int r.max_var_tuples;
         ])
       (take limit d.methods));
  print_endline "-- hottest allocation sites (pointed-by (var,ctx) nodes) --";
  Table.print
    ~header:[ "allocation site"; "heap contexts"; "pointed-by nodes" ]
    (List.map
       (fun r ->
         [
           Program.heap_full_name p r.heap;
           string_of_int r.heap_contexts;
           string_of_int r.pointed_by_nodes;
         ])
       (take limit d.objects));
  print_counters s

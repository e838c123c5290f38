module Int_set = Ipa_support.Int_set
module Program = Ipa_ir.Program

type cast = {
  meth : Program.meth_id;
  index : int;
  source : Program.var_id;
  target_type : Program.class_id;
  total : int;
  witnesses : Program.heap_id list;
}

let casts (s : Solution.t) =
  let p = s.program in
  let vpt = Solution.collapsed_var_pts s in
  let reachable = Solution.reachable_meths s in
  let out = ref [] in
  for m = Program.n_meths p - 1 downto 0 do
    if Int_set.mem reachable m then
      let body = (Program.meth_info p m).body in
      for index = Array.length body - 1 downto 0 do
        match body.(index) with
        | Cast { source; cast_to; _ } ->
          let pts = vpt.(source) in
          let witnesses =
            List.filter
              (fun h ->
                not (Program.subtype p ~sub:(Program.heap_info p h).heap_class ~super:cast_to))
              (Int_set.to_sorted_list pts)
          in
          out :=
            {
              meth = m;
              index;
              source;
              target_type = cast_to;
              total = Int_set.cardinal pts;
              witnesses;
            }
            :: !out
        | Alloc _ | Move _ | Load _ | Store _ | Load_static _ | Store_static _ | Call _
        | Return _ | Throw _ -> ()
      done
  done;
  !out

let may_fail c = c.witnesses <> []

type vcall = {
  site : Program.invo_id;
  targets : Program.meth_id list;
}

let vcalls (s : Solution.t) =
  let p = s.program in
  let call_targets = Solution.call_targets s in
  let out = ref [] in
  for invo = Program.n_invos p - 1 downto 0 do
    match (Program.invo_info p invo).call with
    | Static _ -> ()
    | Virtual _ ->
      let targets =
        match Hashtbl.find_opt call_targets invo with
        | None -> []
        | Some ms -> Int_set.to_sorted_list ms
      in
      out := { site = invo; targets } :: !out
  done;
  !out

let polymorphic v = List.compare_length_with v.targets 2 >= 0

type uncaught = {
  entry : Program.meth_id;
  objects : Program.heap_id list;
}

let uncaught (s : Solution.t) =
  let entries = Program.entries s.program in
  let per_entry = Hashtbl.create 4 in
  Solution.iter_exc_pts s (fun ~meth ~ctx:_ ~heap ~hctx:_ ->
      if List.mem meth entries then begin
        let set =
          match Hashtbl.find_opt per_entry meth with
          | Some set -> set
          | None ->
            let set = Int_set.create () in
            Hashtbl.add per_entry meth set;
            set
        in
        ignore (Int_set.add set heap)
      end);
  List.filter_map
    (fun entry ->
      Option.map
        (fun set -> { entry; objects = Int_set.to_sorted_list set })
        (Hashtbl.find_opt per_entry entry))
    entries

type t = {
  poly_vcalls : int;
  reachable_methods : int;
  may_fail_casts : int;
  call_edges : int;
  uncaught_exceptions : int;
}

let count pred l = List.fold_left (fun n x -> if pred x then n + 1 else n) 0 l

let compute (s : Solution.t) : t =
  (* An allocation site escaping several entry points counts once. *)
  let escaping = Int_set.create () in
  List.iter
    (fun u -> List.iter (fun h -> ignore (Int_set.add escaping h)) u.objects)
    (uncaught s);
  {
    poly_vcalls = count polymorphic (vcalls s);
    reachable_methods = Int_set.cardinal (Solution.reachable_meths s);
    may_fail_casts = count may_fail (casts s);
    call_edges =
      Hashtbl.fold (fun _ ms n -> n + Int_set.cardinal ms) (Solution.call_targets s) 0;
    uncaught_exceptions = Int_set.cardinal escaping;
  }

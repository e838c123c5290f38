module Program = Ipa_ir.Program

type spec =
  | Insensitive
  | Call_site of { depth : int; heap : int }
  | Object_sens of { depth : int; heap : int }
  | Type_sens of { depth : int; heap : int }
  | Hybrid of { depth : int; heap : int }

let check_depths ~depth ~heap what =
  if depth <= 0 then invalid_arg (Printf.sprintf "Flavors.%s: depth must be positive" what);
  if heap < 0 then invalid_arg (Printf.sprintf "Flavors.%s: heap depth must be non-negative" what)

let insensitive_name = "insens"

let heap_suffix = function 0 -> "" | 1 -> "H" | h -> Printf.sprintf "H%d" h

let to_string = function
  | Insensitive -> insensitive_name
  | Call_site { depth; heap } -> Printf.sprintf "%dcall%s" depth (heap_suffix heap)
  | Object_sens { depth; heap } -> Printf.sprintf "%dobj%s" depth (heap_suffix heap)
  | Type_sens { depth; heap } -> Printf.sprintf "%dtype%s" depth (heap_suffix heap)
  | Hybrid { depth; heap } -> Printf.sprintf "%dhyb%s" depth (heap_suffix heap)

let of_string s =
  if s = insensitive_name || s = "insensitive" then Some Insensitive
  else
    (* Shape: <depth><kind>[H[<heapdepth>]] *)
    let n = String.length s in
    let rec digits i = if i < n && s.[i] >= '0' && s.[i] <= '9' then digits (i + 1) else i in
    let d_end = digits 0 in
    if d_end = 0 then None
    else
      let depth = int_of_string (String.sub s 0 d_end) in
      let rec letters i = if i < n && s.[i] >= 'a' && s.[i] <= 'z' then letters (i + 1) else i in
      let k_end = letters d_end in
      let kind = String.sub s d_end (k_end - d_end) in
      let heap =
        if k_end = n then Some 0
        else if s.[k_end] <> 'H' then None
        else if k_end + 1 = n then Some 1
        else
          let h_end = digits (k_end + 1) in
          if h_end = n && h_end > k_end + 1 then
            Some (int_of_string (String.sub s (k_end + 1) (h_end - k_end - 1)))
          else None
      in
      match (kind, heap) with
      | _, None -> None
      | _, Some heap when depth <= 0 || heap < 0 -> None
      | "call", Some heap -> Some (Call_site { depth; heap })
      | "obj", Some heap -> Some (Object_sens { depth; heap })
      | "type", Some heap -> Some (Type_sens { depth; heap })
      | "hyb", Some heap -> Some (Hybrid { depth; heap })
      | _, Some _ -> None

let all_named =
  List.map
    (fun spec -> (to_string spec, spec))
    [
      Insensitive;
      Call_site { depth = 1; heap = 1 };
      Call_site { depth = 2; heap = 1 };
      Object_sens { depth = 1; heap = 1 };
      Object_sens { depth = 2; heap = 1 };
      Type_sens { depth = 2; heap = 1 };
      Hybrid { depth = 2; heap = 1 };
    ]

let insensitive_strategy : Strategy.t =
  {
    name = insensitive_name;
    record = (fun _ ~heap:_ ~ctx:_ -> Ctx.empty);
    merge = (fun _ _ ~heap:_ ~hctx:_ ~invo:_ ~caller:_ -> Ctx.empty);
    merge_static = (fun _ ~invo:_ ~caller:_ -> Ctx.empty);
  }

(* Heap contexts are the first [heap] elements of the allocating method's
   calling context — the standard "context-sensitive heap" construction. *)
let record_prefix heap_depth tbl ~heap:_ ~ctx = Ctx.trunc tbl ctx ~keep:heap_depth

let call_site ~depth ~heap : Strategy.t =
  let push tbl invo caller = Ctx.push_trunc tbl caller ~elem:(Ctx.Elem.invo invo) ~keep:depth in
  {
    name = Printf.sprintf "%dcall%s" depth (heap_suffix heap);
    record = record_prefix heap;
    merge = (fun _ tbl ~heap:_ ~hctx:_ ~invo ~caller -> push tbl invo caller);
    merge_static = (fun tbl ~invo ~caller -> push tbl invo caller);
  }

let object_sens ~depth ~heap : Strategy.t =
  {
    name = Printf.sprintf "%dobj%s" depth (heap_suffix heap);
    record = record_prefix heap;
    merge =
      (fun _ tbl ~heap:h ~hctx ~invo:_ ~caller:_ ->
        Ctx.push_trunc tbl hctx ~elem:(Ctx.Elem.heap h) ~keep:depth);
    merge_static = (fun _ ~invo:_ ~caller -> caller);
  }

(* The type element of an allocation site: the class containing the site
   (i.e. the class declaring the allocating method), per Smaragdakis et al.
   POPL'11. *)
let heap_type_elem p h = Ctx.Elem.ty (Program.meth_info p (Program.heap_info p h).heap_owner).meth_owner

let type_sens ~depth ~heap : Strategy.t =
  {
    name = Printf.sprintf "%dtype%s" depth (heap_suffix heap);
    record = record_prefix heap;
    merge =
      (fun p tbl ~heap:h ~hctx ~invo:_ ~caller:_ ->
        Ctx.push_trunc tbl hctx ~elem:(heap_type_elem p h) ~keep:depth);
    merge_static = (fun _ ~invo:_ ~caller -> caller);
  }

let hybrid ~depth ~heap : Strategy.t =
  let strip_invos tbl ctx =
    let es = Ctx.elems tbl ctx in
    let n = Array.length es in
    let rec first_obj i = if i < n && Ctx.Elem.kind es.(i) = Ctx.Elem.Invo then first_obj (i + 1) else i in
    let k = first_obj 0 in
    if k = 0 then ctx else Ctx.intern tbl (Array.sub es k (n - k))
  in
  {
    name = Printf.sprintf "%dhyb%s" depth (heap_suffix heap);
    record = (fun tbl ~heap:_ ~ctx -> Ctx.trunc tbl (strip_invos tbl ctx) ~keep:heap);
    merge =
      (fun _ tbl ~heap:h ~hctx ~invo:_ ~caller:_ ->
        Ctx.push_trunc tbl hctx ~elem:(Ctx.Elem.heap h) ~keep:depth);
    merge_static =
      (fun tbl ~invo ~caller ->
        (* Push the call site but never displace object elements past depth:
           keep the site plus up to [depth] elements of the caller. *)
        Ctx.push_trunc tbl (strip_invos tbl caller) ~elem:(Ctx.Elem.invo invo) ~keep:(depth + 1));
  }

let strategy _p = function
  | Insensitive -> insensitive_strategy
  | Call_site { depth; heap } ->
    check_depths ~depth ~heap "call_site";
    call_site ~depth ~heap
  | Object_sens { depth; heap } ->
    check_depths ~depth ~heap "object_sens";
    object_sens ~depth ~heap
  | Type_sens { depth; heap } ->
    check_depths ~depth ~heap "type_sens";
    type_sens ~depth ~heap
  | Hybrid { depth; heap } ->
    check_depths ~depth ~heap "hybrid";
    hybrid ~depth ~heap

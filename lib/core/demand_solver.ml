module Program = Ipa_ir.Program

type roots = {
  root_vars : Program.var_id list;
  root_fields : Program.field_id list;
}

let no_roots = { root_vars = []; root_fields = [] }

let root_key roots =
  let canon ids =
    List.sort_uniq compare ids |> List.map string_of_int |> String.concat ","
  in
  Printf.sprintf "v:%s;f:%s" (canon roots.root_vars) (canon roots.root_fields)

let all_var_roots p =
  { root_vars = List.init (Program.n_vars p) Fun.id; root_fields = [] }

type t = {
  original : Program.t;
  pruned : Program.t;
  relevant_vars : bool array;
  relevant_fields : bool array;
  slice_nodes : int;
  kept_instrs : int;
  total_instrs : int;
  root_key : string;
}

(* A variable's backward defs, independent of instruction position: the
   value sources that the closure must chase when the variable is marked. *)
type def =
  | Copy_from of Program.var_id  (* move / cast / return-into-ret_var *)
  | Load_from of Program.var_id * Program.field_id
  | Static_load_from of Program.field_id

(* Inter-procedural roles a variable can play; resolved against the CHA
   call graph ([Program.cha_targets], a sound superset of the on-the-fly
   call graph). *)
type role = Formal_of of Program.meth_id * int | Catch_in of Program.meth_id

(* The backward def-use structure of a program: depends on the program
   alone, so it is built once per physical program and shared by every
   slice of it. Built whole before {!Program.memo} publishes it and never
   written afterwards, so concurrent slicers may read it. *)
type index = {
  defs : def list array;  (* var -> value sources *)
  roles : role list array;  (* var -> formal / catch roles *)
  recv_invos : Program.invo_id list array;  (* var -> invos it receives from *)
  field_stores : (Program.var_id option * Program.var_id) list array;
      (* field -> (base, source) of its stores *)
  throws : Program.var_id list array;  (* meth -> thrown variables *)
  rev_calls : Program.invo_id list array;  (* meth -> invos that may call it *)
  meth_callees : Program.meth_id array array;  (* meth -> methods it may call *)
  (* the closure of the empty root set: every slice contains it *)
  base_vars : bool array;
  base_fields : bool array;
  base_excs : bool array;
}

(* Backward closure over three node families: variables, fields (field-
   based granularity: one mark covers every (object, field) slot), and
   per-method exception flows. Marks [vrel]/[frel]/[erel] in place, from
   the given roots. *)
let close p ix ~vrel ~frel ~erel ~root_vars ~root_fields =
  let vq = Queue.create () and fq = Queue.create () and eq = Queue.create () in
  let mark_var v = if not vrel.(v) then (vrel.(v) <- true; Queue.add v vq) in
  let mark_field f = if not frel.(f) then (frel.(f) <- true; Queue.add f fq) in
  let mark_exc m = if not erel.(m) then (erel.(m) <- true; Queue.add m eq) in
  List.iter mark_var root_vars;
  List.iter mark_field root_fields;
  let drained = ref false in
  while not !drained do
    if not (Queue.is_empty vq) then (
      let v = Queue.pop vq in
      List.iter
        (function
          | Copy_from s -> mark_var s
          | Load_from (b, f) ->
            mark_var b;
            mark_field f
          | Static_load_from f -> mark_field f)
        ix.defs.(v);
      List.iter
        (function
          | Formal_of (m, idx) ->
            List.iter
              (fun i ->
                let actuals = (Program.invo_info p i).actuals in
                if idx < Array.length actuals then mark_var actuals.(idx))
              ix.rev_calls.(m)
          | Catch_in m -> mark_exc m)
        ix.roles.(v);
      List.iter
        (fun i ->
          List.iter
            (fun m ->
              match (Program.meth_info p m).ret_var with
              | Some r -> mark_var r
              | None -> ())
            (Program.cha_targets p i))
        ix.recv_invos.(v))
    else if not (Queue.is_empty fq) then (
      let f = Queue.pop fq in
      List.iter
        (fun (base, source) ->
          mark_var source;
          match base with Some b -> mark_var b | None -> ())
        ix.field_stores.(f))
    else if not (Queue.is_empty eq) then (
      let m = Queue.pop eq in
      List.iter mark_var ix.throws.(m);
      Array.iter mark_exc ix.meth_callees.(m))
    else drained := true
  done

let build_index p =
  let n_vars = Program.n_vars p
  and n_fields = Program.n_fields p
  and n_meths = Program.n_meths p
  and n_invos = Program.n_invos p in
  let defs : def list array = Array.make n_vars [] in
  let roles : role list array = Array.make n_vars [] in
  let recv_invos : Program.invo_id list array = Array.make n_vars [] in
  let field_stores : (Program.var_id option * Program.var_id) list array =
    Array.make n_fields []
  in
  let throws : Program.var_id list array = Array.make n_meths [] in
  let rev_calls : Program.invo_id list array = Array.make n_meths [] in
  for i = 0 to n_invos - 1 do
    (match (Program.invo_info p i).recv with
    | Some r -> recv_invos.(r) <- i :: recv_invos.(r)
    | None -> ());
    List.iter (fun m -> rev_calls.(m) <- i :: rev_calls.(m)) (Program.cha_targets p i)
  done;
  for m = 0 to n_meths - 1 do
    let mi = Program.meth_info p m in
    Array.iteri (fun idx f -> roles.(f) <- Formal_of (m, idx) :: roles.(f)) mi.formals;
    Array.iter
      (fun (c : Program.catch_clause) ->
        roles.(c.catch_var) <- Catch_in m :: roles.(c.catch_var))
      mi.catches;
    Array.iter
      (fun (instr : Program.instr) ->
        match instr with
        | Alloc _ | Call _ -> ()
        | Move { target; source } | Cast { target; source; _ } ->
          defs.(target) <- Copy_from source :: defs.(target)
        | Load { target; base; field } ->
          defs.(target) <- Load_from (base, field) :: defs.(target)
        | Load_static { target; field } ->
          defs.(target) <- Static_load_from field :: defs.(target)
        | Store { base; field; source } ->
          field_stores.(field) <- (Some base, source) :: field_stores.(field)
        | Store_static { field; source } ->
          field_stores.(field) <- (None, source) :: field_stores.(field)
        | Return { source } -> (
          match mi.ret_var with
          | Some r -> defs.(r) <- Copy_from source :: defs.(r)
          | None -> ())
        | Throw { source } -> throws.(m) <- source :: throws.(m))
      mi.body
  done;
  let ix =
    {
      defs;
      roles;
      recv_invos;
      field_stores;
      throws;
      rev_calls;
      meth_callees = Summary.call_targets p;
      base_vars = Array.make n_vars false;
      base_fields = Array.make n_fields false;
      base_excs = Array.make n_meths false;
    }
  in
  (* Keep dispatch exact: every virtual receiver is transitively relevant,
     so the restricted solve builds the full solve's call graph, contexts
     and reachable set. This is what makes in-slice answers exact rather
     than merely sound-on-the-slice. *)
  let receivers =
    List.filter_map
      (fun i ->
        match (Program.invo_info p i).call with
        | Virtual { base; _ } -> Some base
        | Static _ -> None)
      (List.init n_invos Fun.id)
  in
  close p ix ~vrel:ix.base_vars ~frel:ix.base_fields ~erel:ix.base_excs
    ~root_vars:receivers ~root_fields:[];
  ix

let index = Program.memo build_index

(* [a] without the elements [keep] refuses; [a] itself when it keeps all. *)
let filter_array keep a =
  let n = Array.length a in
  let kept = ref 0 in
  Array.iter (fun x -> if keep x then incr kept) a;
  if !kept = n then a
  else begin
    let out = Array.make !kept a.(0) and j = ref 0 in
    Array.iter
      (fun x ->
        if keep x then (
          out.(!j) <- x;
          incr j))
      a;
    out
  end

let slice p roots =
  let ix = index p in
  (* closure is monotone: the slice of the roots is the closure of the
     roots from the closure every slice shares *)
  let vrel = Array.copy ix.base_vars
  and frel = Array.copy ix.base_fields
  and erel = Array.copy ix.base_excs in
  close p ix ~vrel ~frel ~erel ~root_vars:roots.root_vars ~root_fields:roots.root_fields;
  let count a = Array.fold_left (fun n b -> if b then n + 1 else n) 0 a in
  let slice_nodes = count vrel + count frel + count erel in
  (* Same entity arrays and derived tables, filtered bodies: ids are
     shared, so the restricted solution's tables line up with the original
     program and snapshots decode against its digest. *)
  let kept = ref 0 and total = ref 0 in
  let pruned =
    Program.with_bodies p (fun m body ->
        let returns =
          match (Program.meth_info p m).ret_var with Some r -> vrel.(r) | None -> false
        in
        let keep (instr : Program.instr) =
          match instr with
          | Alloc { target; _ }
          | Move { target; _ }
          | Cast { target; _ }
          | Load { target; _ }
          | Load_static { target; _ } ->
            vrel.(target)
          | Store { field; _ } | Store_static { field; _ } -> frel.(field)
          | Call _ -> true
          | Return _ -> returns
          | Throw _ -> erel.(m)
        in
        let body' = filter_array keep body in
        total := !total + Array.length body;
        kept := !kept + Array.length body';
        body')
  in
  {
    original = p;
    pruned;
    relevant_vars = vrel;
    relevant_fields = frel;
    slice_nodes;
    kept_instrs = !kept;
    total_instrs = !total;
    root_key = root_key roots;
  }

let key ~config_key roots =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "demand-slice-v1\n%s\n%s" config_key (root_key roots)))

let run t config =
  let sol = Solver.run t.pruned config in
  { sol with Solution.program = t.original }

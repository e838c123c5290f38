module Builder = Ipa_ir.Builder
module Program = Ipa_ir.Program

type error = { pos : Ast.pos; msg : string }


exception Err of error

let err pos fmt = Printf.ksprintf (fun msg -> raise (Err { pos; msg })) fmt

let loc (p : Ast.pos) : Ipa_ir.Srcloc.pos = { line = p.line; col = p.col }

(* Emit classes so that supertypes precede subtypes (the builder requires
   parent ids up front). Kahn's algorithm; ties broken by file order, so an
   already-topological file keeps its order and printing round-trips. *)
let topo_order (decls : Ast.class_decl array) : int list =
  let n = Array.length decls in
  let index_of = Hashtbl.create n in
  Array.iteri
    (fun i (d : Ast.class_decl) ->
      if Hashtbl.mem index_of d.cd_name then err d.cd_pos "duplicate class %s" d.cd_name;
      Hashtbl.add index_of d.cd_name i)
    decls;
  let deps_of (d : Ast.class_decl) =
    let named = (match d.cd_super with Some s -> [ s ] | None -> []) @ d.cd_interfaces in
    List.map
      (fun name ->
        match Hashtbl.find_opt index_of name with
        | Some i -> i
        | None -> err d.cd_pos "unknown class or interface %s" name)
      named
  in
  let dependents = Array.make n [] in
  let indegree = Array.make n 0 in
  Array.iteri
    (fun i d ->
      List.iter
        (fun dep ->
          dependents.(dep) <- i :: dependents.(dep);
          indegree.(i) <- indegree.(i) + 1)
        (deps_of d))
    decls;
  (* A binary min-heap over declaration indexes keeps the emitted order as
     close to file order as the dependencies allow, so printing a program
     and re-parsing it preserves class order. *)
  let heap = Array.make (n + 1) 0 in
  let heap_len = ref 0 in
  let push x =
    incr heap_len;
    heap.(!heap_len) <- x;
    let i = ref !heap_len in
    while !i > 1 && heap.(!i / 2) > heap.(!i) do
      let tmp = heap.(!i / 2) in
      heap.(!i / 2) <- heap.(!i);
      heap.(!i) <- tmp;
      i := !i / 2
    done
  in
  let pop () =
    let top = heap.(1) in
    heap.(1) <- heap.(!heap_len);
    decr heap_len;
    let i = ref 1 in
    let continue_ = ref true in
    while !continue_ do
      let l = 2 * !i and r = (2 * !i) + 1 in
      let smallest = ref !i in
      if l <= !heap_len && heap.(l) < heap.(!smallest) then smallest := l;
      if r <= !heap_len && heap.(r) < heap.(!smallest) then smallest := r;
      if !smallest = !i then continue_ := false
      else begin
        let tmp = heap.(!i) in
        heap.(!i) <- heap.(!smallest);
        heap.(!smallest) <- tmp;
        i := !smallest
      end
    done;
    top
  in
  Array.iteri (fun i deg -> if deg = 0 then push i) indegree;
  let order = ref [] in
  let emitted = ref 0 in
  while !heap_len > 0 do
    let i = pop () in
    order := i :: !order;
    incr emitted;
    List.iter
      (fun j ->
        indegree.(j) <- indegree.(j) - 1;
        if indegree.(j) = 0 then push j)
      (List.rev dependents.(i))
  done;
  if !emitted < n then begin
    let stuck = ref [] in
    Array.iteri (fun i deg -> if deg > 0 then stuck := decls.(i).cd_name :: !stuck) indegree;
    let d = decls.(Hashtbl.find index_of (List.hd (List.rev !stuck))) in
    err d.cd_pos "cyclic class hierarchy involving %s" (String.concat ", " (List.rev !stuck))
  end;
  List.rev !order

type env = {
  b : Builder.t;
  class_ids : (string, Program.class_id) Hashtbl.t;
  decl_by_name : (string, Ast.class_decl) Hashtbl.t;
  (* (class id, field name) -> field id; declared fields only *)
  fields : (Program.class_id * string, Program.field_id) Hashtbl.t;
  (* field name -> owners, for unqualified references *)
  field_owners : (string, Program.field_id list) Hashtbl.t;
  (* (class id, method name, arity) -> method id *)
  meths : (Program.class_id * string * int, Program.meth_id) Hashtbl.t;
}

let class_id env pos name =
  match Hashtbl.find_opt env.class_ids name with
  | Some c -> c
  | None -> err pos "unknown class %s" name

(* Find [name/arity] declared in [cls] or inherited through supers. *)
let rec find_meth env pos cls_name name arity =
  let c = class_id env pos cls_name in
  match Hashtbl.find_opt env.meths (c, name, arity) with
  | Some m -> Some m
  | None -> (
    match (Hashtbl.find env.decl_by_name cls_name).cd_super with
    | Some super -> find_meth env pos super name arity
    | None -> None)

let resolve_field env pos (fr : Ast.fieldref) =
  match fr.fr_class with
  | Some cname -> (
    let c = class_id env pos cname in
    match Hashtbl.find_opt env.fields (c, fr.fr_name) with
    | Some f -> f
    | None -> err pos "class %s declares no field %s" cname fr.fr_name)
  | None -> (
    match Hashtbl.find_opt env.field_owners fr.fr_name with
    | Some [ f ] -> f
    | Some _ -> err pos "field name %s is ambiguous; qualify it as Class::%s" fr.fr_name fr.fr_name
    | None -> err pos "unknown field %s" fr.fr_name)

let declare_members env (d : Ast.class_decl) =
  let c = Hashtbl.find env.class_ids d.cd_name in
  List.iter
    (fun ((m : Ast.member), pos) ->
      Builder.set_pos env.b (loc pos);
      match m with
      | Field { static; name } ->
        if Hashtbl.mem env.fields (c, name) then err pos "duplicate field %s::%s" d.cd_name name;
        let f = Builder.add_field env.b ~owner:c ~static name in
        Hashtbl.add env.fields (c, name) f;
        Hashtbl.replace env.field_owners name
          (f :: Option.value ~default:[] (Hashtbl.find_opt env.field_owners name))
      | Method { static; name; arity; params; body = _ } ->
        if Hashtbl.mem env.meths (c, name, arity) then
          err pos "duplicate method %s::%s/%d" d.cd_name name arity;
        let abstract = params = None in
        if d.cd_interface && not abstract then
          err pos "interface %s declares a method body for %s" d.cd_name name;
        let params =
          match params with
          | Some ps -> ps
          | None -> List.init arity (Printf.sprintf "p%d")
        in
        let mid =
          try Builder.add_method env.b ~owner:c ~name ~static ~abstract ~params ()
          with Failure msg -> err pos "%s" msg
        in
        Hashtbl.add env.meths (c, name, arity) mid)
    d.cd_members

let resolve_body env (d : Ast.class_decl) ((m : Ast.member), mpos) =
  match m with
  | Ast.Field _ -> ()
  | Ast.Method { params = None; _ } -> ()
  | Ast.Method { static; name; arity; params = Some params; body } ->
    let c = Hashtbl.find env.class_ids d.cd_name in
    let mid = Hashtbl.find env.meths (c, name, arity) in
    let vars = Hashtbl.create 16 in
    if not static then Hashtbl.add vars "this" (Builder.this env.b mid);
    List.iteri (fun i p -> Hashtbl.add vars p (Builder.formal env.b mid i)) params;
    (* Locals are scoped to the whole method: collect declarations first. *)
    List.iter
      (fun ((s : Ast.stmt), pos) ->
        match s with
        | Decl_vars names ->
          Builder.set_pos env.b (loc pos);
          List.iter
            (fun v ->
              if Hashtbl.mem vars v then err pos "duplicate variable %s" v
              else Hashtbl.add vars v (Builder.add_var env.b mid v))
            names
        | _ -> ())
      body;
    let var pos v =
      match Hashtbl.find_opt vars v with
      | Some id -> id
      | None -> err pos "unknown variable %s in %s::%s/%d" v d.cd_name name arity
    in
    ignore mpos;
    List.iter
      (fun ((s : Ast.stmt), pos) ->
        Builder.set_pos env.b (loc pos);
        match s with
        | Decl_vars _ -> ()
        | Alloc { target; cls } ->
          ignore (Builder.alloc env.b mid ~target:(var pos target) ~cls:(class_id env pos cls))
        | Cast { target; cls; source } ->
          Builder.cast env.b mid ~target:(var pos target) ~source:(var pos source)
            ~cls:(class_id env pos cls)
        | Move { target; source } ->
          Builder.move env.b mid ~target:(var pos target) ~source:(var pos source)
        | Load { target; base; field } ->
          let f = resolve_field env pos field in
          if (Hashtbl.mem vars base) then
            Builder.load env.b mid ~target:(var pos target) ~base:(var pos base) ~field:f
          else err pos "unknown variable %s (static loads are written C::f)" base
        | Store { base; field; source } ->
          let f = resolve_field env pos field in
          Builder.store env.b mid ~base:(var pos base) ~field:f ~source:(var pos source)
        | Load_static { target; cls; field } ->
          let f = resolve_field env pos { fr_class = Some cls; fr_name = field } in
          Builder.load_static env.b mid ~target:(var pos target) ~field:f
        | Store_static { cls; field; source } ->
          let f = resolve_field env pos { fr_class = Some cls; fr_name = field } in
          Builder.store_static env.b mid ~field:f ~source:(var pos source)
        | Vcall { recv; base; name = callee; args } ->
          let recv = Option.map (var pos) recv in
          ignore
            (Builder.vcall env.b mid ~base:(var pos base) ~name:callee
               ~actuals:(List.map (var pos) args) ?recv ())
        | Scall { recv; cls; name = callee; args } -> (
          match find_meth env pos cls callee (List.length args) with
          | Some target ->
            let recv = Option.map (var pos) recv in
            ignore
              (Builder.scall env.b mid ~callee:target ~actuals:(List.map (var pos) args) ?recv ())
          | None -> err pos "unknown method %s::%s/%d" cls callee (List.length args))
        | Return None -> ()
        | Return (Some v) -> Builder.return_ env.b mid (var pos v)
        | Throw v -> Builder.throw env.b mid (var pos v)
        | Catch { cls; var = cv } ->
          Builder.add_catch env.b mid ~cls:(class_id env pos cls) ~var:(var pos cv))
      body

let resolve ?file (ast : Ast.program) : (Program.t, error) result =
  try
    let decls = Array.of_list ast.decls in
    let order = topo_order decls in
    let env =
      {
        b = Builder.create ();
        class_ids = Hashtbl.create 64;
        decl_by_name = Hashtbl.create 64;
        fields = Hashtbl.create 64;
        field_owners = Hashtbl.create 64;
        meths = Hashtbl.create 64;
      }
    in
    (match file with Some f -> Builder.set_source env.b f | None -> ());
    List.iter
      (fun i ->
        let d = decls.(i) in
        Hashtbl.add env.decl_by_name d.cd_name d;
        Builder.set_pos env.b (loc d.cd_pos);
        let interfaces = List.map (class_id env d.cd_pos) d.cd_interfaces in
        let c =
          if d.cd_interface then Builder.add_interface env.b ~interfaces d.cd_name
          else
            let super = Option.map (class_id env d.cd_pos) d.cd_super in
            Builder.add_class env.b ?super ~interfaces d.cd_name
        in
        Hashtbl.add env.class_ids d.cd_name c)
      order;
    (* Declare all members (in file order) before resolving any body, so
       bodies can reference later classes and methods. *)
    Array.iter (declare_members env) decls;
    Array.iter (fun d -> List.iter (resolve_body env d) d.cd_members) decls;
    List.iter
      (fun (e : Ast.entry_decl) ->
        match find_meth env e.en_pos e.en_class e.en_name e.en_arity with
        | Some m -> Builder.add_entry env.b m
        | None -> err e.en_pos "unknown entry %s::%s/%d" e.en_class e.en_name e.en_arity)
      ast.entry_decls;
    match Builder.finish env.b with
    | p -> Ok p
    | exception Failure msg -> Error { pos = { line = 0; col = 0 }; msg }
  with Err e -> Error e

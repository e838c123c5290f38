module Program = Ipa_ir.Program
module Splitmix = Ipa_support.Splitmix

type kind = Add_alloc | Add_call | Rewrite_body

type t = { kind : kind; meth : Program.meth_id; salt : int }

let kind_name = function
  | Add_alloc -> "add-alloc"
  | Add_call -> "add-call"
  | Rewrite_body -> "rewrite-body"

let kind_of_name = function
  | "add-alloc" -> Some Add_alloc
  | "add-call" -> Some Add_call
  | "rewrite-body" -> Some Rewrite_body
  | _ -> None

let all_kinds = [ Add_alloc; Add_call; Rewrite_body ]
let monotone_kinds = [ Add_alloc; Add_call ]

(* ---------- candidate filtering ---------- *)

let concrete_classes p =
  let acc = ref [] in
  for c = Program.n_classes p - 1 downto 0 do
    if not (Program.class_info p c).is_interface then acc := c :: !acc
  done;
  Array.of_list !acc

let static_callees p =
  let acc = ref [] in
  for m = Program.n_meths p - 1 downto 0 do
    let mi = Program.meth_info p m in
    if mi.is_static_meth && not mi.is_abstract then acc := m :: !acc
  done;
  Array.of_list !acc

(* A rewrite overwrites an instruction that alone carries no entity. A
   [Call] owns its invocation site, an [Alloc] its heap and a [Return] the
   method's return variable; overwriting one would leave that entity in
   the program but not in its printed text. *)
let rewritable_instr : Program.instr -> bool = function
  | Call _ | Alloc _ | Return _ -> false
  | _ -> true

(* The last instruction a rewrite may overwrite. *)
let rewritable body =
  let rec go k = if k < 0 then None else if rewritable_instr body.(k) then Some k else go (k - 1) in
  go (Array.length body - 1)

(* How many rewrites a method takes: each turns one rewritable instruction
   into an [Alloc], and the other kinds only append unrewritable ones. *)
let rewrites_left p =
  Array.init (Program.n_meths p) (fun m ->
    Array.fold_left
      (fun n i -> if rewritable_instr i then n + 1 else n)
      0 (Program.meth_info p m).body)

let candidates p kind =
  let acc = ref [] in
  for m = Program.n_meths p - 1 downto 0 do
    let mi = Program.meth_info p m in
    let ok =
      (not mi.is_abstract)
      &&
      match kind with
      | Add_alloc -> Array.length (concrete_classes p) > 0
      | Add_call -> Array.length (static_callees p) > 0
      | Rewrite_body -> rewritable mi.body <> None
    in
    if ok then acc := m :: !acc
  done;
  Array.of_list !acc

let pick ?(kinds = all_kinds) ~seed ~n p =
  if kinds = [] then invalid_arg "Edits.pick: empty kind list";
  let rng = Splitmix.create seed in
  let kinds = Array.of_list kinds in
  (* A draw that would rewrite a method more often than it takes is
     redrawn, so the list stays valid through sequential application in
     any order; the other draws are unchanged. *)
  let rewrites_left = rewrites_left p in
  let rec one budget =
    if budget = 0 then None
    else
      let kind = Splitmix.choose rng kinds in
      let cands = candidates p kind in
      if Array.length cands = 0 then one (budget - 1)
      else
        let e = { kind; meth = Splitmix.choose rng cands; salt = Splitmix.int rng 1_000_000 } in
        if kind <> Rewrite_body then Some e
        else if rewrites_left.(e.meth) = 0 then one (budget - 1)
        else begin
          rewrites_left.(e.meth) <- rewrites_left.(e.meth) - 1;
          Some e
        end
  in
  let acc = ref [] in
  for _ = 1 to n do
    match one (8 * Array.length kinds) with
    | Some e -> acc := e :: !acc
    | None -> ()
  done;
  List.rev !acc

(* ---------- application ---------- *)

(* Rebuild the program through [Program.make] with the edit spliced in.
   Entity ids are append-only (nothing is renumbered), which is what makes
   [Summary.delta] accept a monotone edit as an extension of the original —
   and what keeps an edit list picked against the original valid across
   sequential application. Source locations are dropped: the edited entities have
   none, and a stale table would misattribute diagnostics. *)
let apply p e =
  let classes = Array.init (Program.n_classes p) (Program.class_info p) in
  let fields = Array.init (Program.n_fields p) (Program.field_info p) in
  let sigs = Array.init (Program.n_sigs p) (Program.sig_info p) in
  let meths = Array.init (Program.n_meths p) (Program.meth_info p) in
  let vars = ref (Array.init (Program.n_vars p) (Program.var_info p)) in
  let heaps = ref (Array.init (Program.n_heaps p) (Program.heap_info p)) in
  let invos = ref (Array.init (Program.n_invos p) (Program.invo_info p)) in
  let fresh_var owner =
    let id = Array.length !vars in
    vars :=
      Array.append !vars
        [| { Program.var_name = Printf.sprintf "ev%d" id; var_owner = owner } |];
    id
  in
  let fresh_heap owner cls =
    let id = Array.length !heaps in
    heaps :=
      Array.append !heaps
        [|
          {
            Program.heap_name = Printf.sprintf "eh%d" id;
            heap_class = cls;
            heap_owner = owner;
          };
        |]
    ;
    id
  in
  let mi = meths.(e.meth) in
  (match e.kind with
  | Add_alloc ->
    let cls_pool = concrete_classes p in
    let cls = cls_pool.(e.salt mod Array.length cls_pool) in
    let nv = fresh_var e.meth in
    let nh = fresh_heap e.meth cls in
    (* The object flows out through a [Return]: it compiles to a copy onto
       the canonical return variable, prints as plain `return ev;` (the
       synthetic [$ret] variable is not surface syntax), and when the
       method did not return before, growing [ret_var : None -> Some] is
       still a monotone extension. The fresh return variable is named
       [$ret], matching what the frontend would synthesize on re-parse. *)
    let mi =
      match mi.ret_var with
      | Some _ -> mi
      | None ->
        let id = Array.length !vars in
        vars :=
          Array.append !vars [| { Program.var_name = "$ret"; var_owner = e.meth } |];
        { mi with Program.ret_var = Some id }
    in
    meths.(e.meth) <-
      {
        mi with
        Program.body =
          Array.append mi.body
            [| Program.Alloc { target = nv; heap = nh }; Program.Return { source = nv } |];
      }
  | Add_call ->
    let callees = static_callees p in
    let callee = callees.(e.salt mod Array.length callees) in
    let callee_info = meths.(callee) in
    let own_vars =
      (* Only surface-syntax variables: the synthetic [$ret] and implicit
         [this] cannot be spelled as actuals or receivers in .jir text. *)
      let acc = ref [] in
      Array.iteri
        (fun v (vi : Program.var_info) ->
          if
            vi.var_owner = e.meth
            && Some v <> mi.this_var
            && Some v <> mi.ret_var
            && (String.length vi.var_name = 0 || vi.var_name.[0] <> '$')
            && vi.var_name <> "this"
          then acc := v :: !acc)
        !vars;
      Array.of_list (List.rev !acc)
    in
    let pick_var i =
      if Array.length own_vars > 0 then own_vars.((e.salt + i) mod Array.length own_vars)
      else fresh_var e.meth
    in
    let actuals = Array.init (Array.length callee_info.formals) pick_var in
    let recv = match callee_info.ret_var with None -> None | Some _ -> Some (pick_var 1) in
    let ni = Array.length !invos in
    invos :=
      Array.append !invos
        [|
          {
            Program.call = Program.Static { callee };
            actuals;
            recv;
            invo_owner = e.meth;
            invo_name = Printf.sprintf "ei%d" ni;
          };
        |]
    ;
    meths.(e.meth) <- { mi with Program.body = Array.append mi.body [| Program.Call ni |] }
  | Rewrite_body ->
    let cls_pool = concrete_classes p in
    let cls = cls_pool.(e.salt mod Array.length cls_pool) in
    let nv = fresh_var e.meth in
    let nh = fresh_heap e.meth cls in
    let body = Array.copy mi.body in
    (* In-place replacement of an instruction: deliberately NOT an
       extension of the original body, so the incremental driver's
       monotonicity check must refuse the warm path and fall back cold. *)
    let k =
      match rewritable body with
      | Some k -> k
      | None -> invalid_arg "Edits.apply: no instruction left to rewrite"
    in
    body.(k) <- Program.Alloc { target = nv; heap = nh };
    meths.(e.meth) <- { mi with Program.body = body });
  Program.make ~classes ~fields ~sigs ~meths ~vars:!vars ~heaps:!heaps ~invos:!invos
    ~entries:(Program.entries p) ()

let apply_all p es = List.fold_left apply p es

let describe p e =
  Printf.sprintf "%s %s" (kind_name e.kind) (Program.meth_full_name p e.meth)

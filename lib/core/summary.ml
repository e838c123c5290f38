module Tarjan = Ipa_support.Tarjan
module Int_sort = Ipa_support.Int_sort
module Program = Ipa_ir.Program

(* ---------- dirty components ---------- *)

(* CHA over-approximation of the call graph ([Program.cha_targets]): the
   solver's on-the-fly call graph is a subset, so SCCs here are unions of
   semantic SCCs — safe for dirtiness propagation. [seen.(c) = m] once
   method [m] has collected callee [c] into [buf]. *)
let call_targets p =
  let n = Program.n_meths p in
  let seen = Array.make (max 1 n) (-1) in
  let buf = Array.make (max 1 n) 0 in
  Array.init n (fun m ->
      let k = ref 0 in
      Array.iter
        (function
          | Program.Call invo ->
            List.iter
              (fun c ->
                if seen.(c) <> m then begin
                  seen.(c) <- m;
                  buf.(!k) <- c;
                  incr k
                end)
              (Program.cha_targets p invo)
          | _ -> ())
        (Program.meth_info p m).body;
      Int_sort.sort_distinct (Array.sub buf 0 !k))

(* One Tarjan pass numbers the components in close order and decides each
   one's dirtiness as it closes: every callee outside it has closed
   before, so [dirty] is final for them. *)
let dirty_components p changed =
  let n = Program.n_meths p in
  let callees = call_targets p in
  let dirty = Array.make n false in
  let n_comps = ref 0 and dirty_ids = ref [] in
  Tarjan.components ~n
    ~root:(fun _ -> true)
    ~degree:(fun m -> Array.length callees.(m))
    ~succ:(fun m i -> callees.(m).(i))
    (fun comp ->
      if List.exists (fun m -> changed.(m) || Array.exists (fun c -> dirty.(c)) callees.(m)) comp
      then begin
        List.iter (fun m -> dirty.(m) <- true) comp;
        dirty_ids := !n_comps :: !dirty_ids
      end;
      incr n_comps);
  (!n_comps, List.rev !dirty_ids)

(* ---------- monotone-extension check ---------- *)

(* [delta ~old_p ~new_p] is [Some mask] when [new_p] is a structural
   superset of [old_p] with stable ids: every entity array of [old_p] is an
   identical prefix of [new_p]'s (method bodies may gain appended
   instructions, a method without a return variable may gain one),
   dispatch is preserved on every old (class, signature) pair, and the
   entry set only grows. Under these conditions every constraint of the
   old program is present unchanged in the new one and all retained ids
   (hence context elements) are stable, so the old fixpoint is a start of
   the new solve. [mask] marks the methods that are new, or whose body or
   return variable changed. *)
let delta ~old_p ~new_p =
  let open Program in
  let n_old_meths = n_meths old_p in
  let mask = Array.init (n_meths new_p) (fun m -> m >= n_old_meths) in
  let ok =
    n_classes old_p <= n_classes new_p
    && n_fields old_p <= n_fields new_p
    && n_sigs old_p <= n_sigs new_p
    && n_old_meths <= n_meths new_p
    && n_vars old_p <= n_vars new_p
    && n_heaps old_p <= n_heaps new_p
    && n_invos old_p <= n_invos new_p
    && (let ok = ref true in
        (* An edit shares the records it leaves alone ([Edits.apply]), so
           physical equality settles most of them; a re-parsed program
           shares none and takes the structural test. *)
        let differ a b = a != b && a <> b in
        for c = 0 to n_classes old_p - 1 do
          let a = class_info old_p c and b = class_info new_p c in
          if
            a != b
            && (a.class_name <> b.class_name || a.super <> b.super
               || a.interfaces <> b.interfaces || a.is_interface <> b.is_interface)
          then ok := false
        done;
        for f = 0 to n_fields old_p - 1 do
          if differ (field_info old_p f) (field_info new_p f) then ok := false
        done;
        for s = 0 to n_sigs old_p - 1 do
          if differ (sig_info old_p s) (sig_info new_p s) then ok := false
        done;
        for v = 0 to n_vars old_p - 1 do
          if differ (var_info old_p v) (var_info new_p v) then ok := false
        done;
        for h = 0 to n_heaps old_p - 1 do
          if differ (heap_info old_p h) (heap_info new_p h) then ok := false
        done;
        for i = 0 to n_invos old_p - 1 do
          if differ (invo_info old_p i) (invo_info new_p i) then ok := false
        done;
        for m = 0 to n_old_meths - 1 do
          let a = meth_info old_p m and b = meth_info new_p m in
          if a != b then begin
            let body_prefix =
              a.body == b.body
              || Array.length a.body <= Array.length b.body
                 && (let pre = ref true in
                     Array.iteri (fun i ia -> if differ b.body.(i) ia then pre := false) a.body;
                     !pre)
            in
            let ret_ok =
              match (a.ret_var, b.ret_var) with
              | None, None -> true
              | None, Some _ -> true
              | Some x, Some y -> x = y
              | Some _, None -> false
            in
            if
              not
                (a.meth_name = b.meth_name && a.meth_owner = b.meth_owner
               && a.meth_sig = b.meth_sig
                && a.is_static_meth = b.is_static_meth
                && a.is_abstract = b.is_abstract && a.this_var = b.this_var
                && a.formals = b.formals && a.catches = b.catches && ret_ok && body_prefix)
            then ok := false
            else if Array.length a.body < Array.length b.body || a.ret_var <> b.ret_var then
              mask.(m) <- true
          end
        done;
        (* New classes and overrides must not redirect any old dispatch:
           the two tables agree on every old (class, signature) pair. Every
           old entry must resolve to the same target in the new table, and
           the new table must hold no more entries over old pairs than the
           old one, so that no old pair newly resolves. *)
        (if !ok then begin
           let n_old_entries = ref 0 in
           iter_dispatch old_p (fun c s m ->
               incr n_old_entries;
               match dispatch new_p c s with
               | Some m' when m' = m -> ()
               | _ -> ok := false);
           let n_new_entries = ref 0 in
           iter_dispatch new_p (fun c s _ ->
               if c < n_classes old_p && s < n_sigs old_p then incr n_new_entries);
           if !n_new_entries <> !n_old_entries then ok := false
         end);
        !ok)
    && List.for_all (fun e -> List.mem e (entries new_p)) (entries old_p)
  in
  if ok then Some mask else None

(* ---------- name-based id realignment ---------- *)

(* Entity ids are assignment-order artifacts: the frontend numbers entities
   by first appearance in the file, so inserting an instruction mid-file
   shifts every later id even though nothing else changed. Since every
   entity kind carries a program-unique name (classes by name, fields and
   methods by qualified name, variables by [Meth$var], heaps and invocation
   sites by their builder labels), a parsed edit can be renumbered back
   onto the baseline's ids — after which [delta] sees the edit for the
   monotone extension it is. *)
let align ~old_p ~new_p =
  let ( let* ) = Option.bind in
  (* [build n_old old_name n_new new_name] maps each new id to the old id
     of the same name, or to a fresh id past the old range (in new-id
     order). [None] when names are not unique, or an old name has no new
     counterpart (the edit deleted something — not alignable, and not a
     monotone extension either way). *)
  let build n_old old_name n_new new_name =
    if n_new < n_old then None
    else begin
      let tbl = Hashtbl.create (max 16 n_old) in
      let dup = ref false in
      for i = 0 to n_old - 1 do
        let nm = old_name i in
        if Hashtbl.mem tbl nm then dup := true else Hashtbl.add tbl nm i
      done;
      let map = Array.make n_new (-1) in
      let next = ref n_old in
      let matched = ref 0 in
      let seen = Hashtbl.create (max 16 n_new) in
      for i = 0 to n_new - 1 do
        let nm = new_name i in
        if Hashtbl.mem seen nm then dup := true else Hashtbl.add seen nm ();
        match Hashtbl.find_opt tbl nm with
        | Some oid ->
          map.(i) <- oid;
          incr matched
        | None ->
          map.(i) <- !next;
          incr next
      done;
      if (not !dup) && !matched = n_old then Some map else None
    end
  in
  let open Program in
  let* cmap =
    build (n_classes old_p) (class_name old_p) (n_classes new_p) (class_name new_p)
  in
  let* fmap =
    build (n_fields old_p) (field_full_name old_p) (n_fields new_p) (field_full_name new_p)
  in
  let sig_key p s =
    let si = sig_info p s in
    Printf.sprintf "%s/%d" si.sig_name si.arity
  in
  let* smap = build (n_sigs old_p) (sig_key old_p) (n_sigs new_p) (sig_key new_p) in
  let* mmap =
    build (n_meths old_p) (meth_full_name old_p) (n_meths new_p) (meth_full_name new_p)
  in
  let* vmap =
    build (n_vars old_p) (var_full_name old_p) (n_vars new_p) (var_full_name new_p)
  in
  let* hmap =
    build (n_heaps old_p) (heap_full_name old_p) (n_heaps new_p) (heap_full_name new_p)
  in
  let invo_key p i = (invo_info p i).invo_name in
  let* imap = build (n_invos old_p) (invo_key old_p) (n_invos new_p) (invo_key new_p) in
  let identity m =
    let id = ref true in
    Array.iteri (fun i x -> if x <> i then id := false) m;
    !id
  in
  if
    identity cmap && identity fmap && identity smap && identity mmap && identity vmap
    && identity hmap && identity imap
  then Some new_p
  else begin
    (* [map] is a permutation of [0, n): entity [i] moves to [map.(i)]. *)
    let permute n map info remap =
      let inv = Array.make n 0 in
      Array.iteri (fun i j -> inv.(j) <- i) map;
      Array.init n (fun j -> remap (info inv.(j)))
    in
    let remap_instr (ins : instr) =
      match ins with
      | Alloc { target; heap } -> Alloc { target = vmap.(target); heap = hmap.(heap) }
      | Move { target; source } -> Move { target = vmap.(target); source = vmap.(source) }
      | Cast { target; source; cast_to } ->
        Cast { target = vmap.(target); source = vmap.(source); cast_to = cmap.(cast_to) }
      | Load { target; base; field } ->
        Load { target = vmap.(target); base = vmap.(base); field = fmap.(field) }
      | Store { base; field; source } ->
        Store { base = vmap.(base); field = fmap.(field); source = vmap.(source) }
      | Load_static { target; field } ->
        Load_static { target = vmap.(target); field = fmap.(field) }
      | Store_static { field; source } ->
        Store_static { field = fmap.(field); source = vmap.(source) }
      | Call i -> Call imap.(i)
      | Return { source } -> Return { source = vmap.(source) }
      | Throw { source } -> Throw { source = vmap.(source) }
    in
    let classes =
      permute (n_classes new_p) cmap (class_info new_p) (fun ci ->
          {
            ci with
            super = Option.map (fun c -> cmap.(c)) ci.super;
            interfaces = List.map (fun c -> cmap.(c)) ci.interfaces;
            declared = List.map (fun (s, m) -> (smap.(s), mmap.(m))) ci.declared;
          })
    in
    let fields =
      permute (n_fields new_p) fmap (field_info new_p) (fun fi ->
          { fi with field_owner = cmap.(fi.field_owner) })
    in
    let sigs = permute (n_sigs new_p) smap (sig_info new_p) (fun si -> si) in
    let meths =
      permute (n_meths new_p) mmap (meth_info new_p) (fun mi ->
          {
            mi with
            meth_owner = cmap.(mi.meth_owner);
            meth_sig = smap.(mi.meth_sig);
            this_var = Option.map (fun v -> vmap.(v)) mi.this_var;
            formals = Array.map (fun v -> vmap.(v)) mi.formals;
            ret_var = Option.map (fun v -> vmap.(v)) mi.ret_var;
            catches =
              Array.map
                (fun (cc : catch_clause) ->
                  { catch_type = cmap.(cc.catch_type); catch_var = vmap.(cc.catch_var) })
                mi.catches;
            body = Array.map remap_instr mi.body;
          })
    in
    let vars =
      permute (n_vars new_p) vmap (var_info new_p) (fun vi ->
          { vi with var_owner = mmap.(vi.var_owner) })
    in
    let heaps =
      permute (n_heaps new_p) hmap (heap_info new_p) (fun hi ->
          { hi with heap_class = cmap.(hi.heap_class); heap_owner = mmap.(hi.heap_owner) })
    in
    let invos =
      permute (n_invos new_p) imap (invo_info new_p) (fun ii ->
          {
            ii with
            call =
              (match ii.call with
              | Virtual { base; signature } ->
                Virtual { base = vmap.(base); signature = smap.(signature) }
              | Static { callee } -> Static { callee = mmap.(callee) });
            actuals = Array.map (fun v -> vmap.(v)) ii.actuals;
            recv = Option.map (fun v -> vmap.(v)) ii.recv;
            invo_owner = mmap.(ii.invo_owner);
          })
    in
    let entries = List.map (fun m -> mmap.(m)) (Program.entries new_p) in
    Some (Program.make ~classes ~fields ~sigs ~meths ~vars ~heaps ~invos ~entries ())
  end

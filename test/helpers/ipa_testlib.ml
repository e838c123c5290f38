(** Shared test utilities: a seeded random-program generator for property
    tests and canonicalizers for comparing analysis results across engines
    and runs (context ids are interning-order dependent, so tuples are
    rendered with contexts decoded to their element sequences). *)

module B = Ipa_ir.Builder
module Program = Ipa_ir.Program
module Splitmix = Ipa_support.Splitmix
module Int_set = Ipa_support.Int_set

(* ---------- random programs ---------- *)

(* Generates a well-formed program with [n_classes] classes, a small pool of
   method signatures (so overriding and dynamic dispatch arise naturally),
   random fields, and random straight-line bodies. Every program passes the
   Wf checker (Builder.finish enforces it). *)
let random_program ?(n_classes = 6) seed : Program.t =
  let rng = Splitmix.create seed in
  let b = B.create () in
  let object_cls = B.add_class b "Object" in
  let classes = Array.make n_classes object_cls in
  for i = 0 to n_classes - 1 do
    let super = if i = 0 || Splitmix.bool rng then object_cls else classes.(Splitmix.int rng i) in
    classes.(i) <- B.add_class b ~super (Printf.sprintf "C%d" i)
  done;
  (* Fields: a couple per class, names shared across classes sometimes (the
     front-end requires qualification then, but the builder works by id). *)
  let fields = ref [] in
  Array.iteri
    (fun i cls ->
      for f = 0 to Splitmix.int rng 3 - 1 do
        fields := B.add_field b ~owner:cls (Printf.sprintf "f%d_%d" i f) :: !fields
      done)
    classes;
  let fields = Array.of_list !fields in
  (* Method signature pool: m0/0, m1/1, m2/2. Track each method's initial
     variables (this + formals) for body generation. *)
  let sig_pool = [| ("m0", 0); ("m1", 1); ("m2", 2) |] in
  let methods = ref [] in
  let declare cls name ~static ~arity =
    let params = List.init arity (Printf.sprintf "p%d") in
    let m = B.add_method b ~owner:cls ~name ~static ~params () in
    let initial =
      (if static then [] else [ B.this b m ]) @ List.init arity (B.formal b m)
    in
    methods := (m, initial) :: !methods;
    m
  in
  Array.iter
    (fun cls ->
      Array.iter
        (fun (name, arity) ->
          if Splitmix.chance rng 0.55 then ignore (declare cls name ~static:false ~arity))
        sig_pool)
    classes;
  let main_cls = B.add_class b ~super:object_cls "Main" in
  let main = declare main_cls "main" ~static:true ~arity:0 in
  B.add_entry b main;
  let statics = ref [ (main, 0) ] in
  for i = 0 to Splitmix.int rng 3 do
    statics := (declare main_cls (Printf.sprintf "s%d" i) ~static:true ~arity:1, 1) :: !statics
  done;
  let statics = Array.of_list !statics in
  (* Bodies: random straight-line code over the method's variables. *)
  let fill_body (m, initial) =
    let vars = ref initial in
    for v = 0 to 2 + Splitmix.int rng 4 do
      vars := B.add_var b m (Printf.sprintf "v%d" v) :: !vars
    done;
    let all_vars = Array.of_list !vars in
    let var () = Splitmix.choose rng all_vars in
    let n_instr = 3 + Splitmix.int rng 8 in
    for _ = 1 to n_instr do
      match Splitmix.int rng 9 with
      | 0 | 1 -> ignore (B.alloc b m ~target:(var ()) ~cls:(Splitmix.choose rng classes))
      | 2 -> B.move b m ~target:(var ()) ~source:(var ())
      | 3 -> B.cast b m ~target:(var ()) ~source:(var ()) ~cls:(Splitmix.choose rng classes)
      | 4 when Array.length fields > 0 ->
        B.load b m ~target:(var ()) ~base:(var ()) ~field:(Splitmix.choose rng fields)
      | 5 when Array.length fields > 0 ->
        B.store b m ~base:(var ()) ~field:(Splitmix.choose rng fields) ~source:(var ())
      | 6 ->
        let name, arity = Splitmix.choose rng sig_pool in
        let actuals = List.init arity (fun _ -> var ()) in
        let recv = if Splitmix.bool rng then Some (var ()) else None in
        ignore (B.vcall b m ~base:(var ()) ~name ~actuals ?recv ())
      | 7 ->
        let callee, arity = Splitmix.choose rng statics in
        if callee <> m then begin
          let actuals = List.init arity (fun _ -> var ()) in
          ignore (B.scall b m ~callee ~actuals ~recv:(var ()) ())
        end
      | _ ->
        if Splitmix.bool rng then B.return_ b m (var ()) else B.throw b m (var ())
    done;
    (* Occasionally guard the method with catch clauses. *)
    for _ = 1 to Splitmix.int rng 3 - 1 do
      B.add_catch b m ~cls:(Splitmix.choose rng classes) ~var:(var ())
    done
  in
  List.iter fill_body !methods;
  B.finish b

(* A program rich in what [random_program] seldom yields: instance-field
   points-to and copy cycles. Every class has two or three fields, most
   instructions are loads and stores, [main] stores two allocations into
   two distinct fields of one object, and every body ends with a cycle of
   moves over two or three of its variables and a store-load round trip
   through a field (a cycle through field nodes), both short enough for
   the solver's insertion-time walk to collapse. *)
let field_heavy_program seed : Program.t =
  let rng = Splitmix.create seed in
  let b = B.create () in
  let object_cls = B.add_class b "Object" in
  let classes = Array.make 3 object_cls in
  for i = 0 to Array.length classes - 1 do
    let super = if i = 0 || Splitmix.bool rng then object_cls else classes.(Splitmix.int rng i) in
    classes.(i) <- B.add_class b ~super (Printf.sprintf "C%d" i)
  done;
  let fields = ref [] in
  Array.iteri
    (fun i cls ->
      for f = 0 to 1 + Splitmix.int rng 2 do
        fields := B.add_field b ~owner:cls (Printf.sprintf "f%d_%d" i f) :: !fields
      done)
    classes;
  let fields = Array.of_list (List.rev !fields) in
  let field () = Splitmix.choose rng fields in
  let sig_pool = [| ("get", 0); ("put", 1) |] in
  let methods = ref [] in
  let declare cls name ~static ~arity =
    let params = List.init arity (Printf.sprintf "p%d") in
    let m = B.add_method b ~owner:cls ~name ~static ~params () in
    let initial = (if static then [] else [ B.this b m ]) @ List.init arity (B.formal b m) in
    methods := (m, initial) :: !methods;
    m
  in
  Array.iter
    (fun cls ->
      Array.iter
        (fun (name, arity) ->
          if Splitmix.chance rng 0.6 then ignore (declare cls name ~static:false ~arity))
        sig_pool)
    classes;
  let main_cls = B.add_class b ~super:object_cls "Main" in
  let main = declare main_cls "main" ~static:true ~arity:0 in
  B.add_entry b main;
  let helper = declare main_cls "helper" ~static:true ~arity:1 in
  let fill_body (m, initial) =
    let n_locals = 3 + Splitmix.int rng 2 in
    let locals = List.init n_locals (fun v -> B.add_var b m (Printf.sprintf "v%d" v)) in
    let all_vars = Array.of_list (initial @ locals) in
    let var () = Splitmix.choose rng all_vars in
    let alloc target = ignore (B.alloc b m ~target ~cls:(Splitmix.choose rng classes)) in
    if m = main then begin
      let o = all_vars.(0) and x = all_vars.(1) and y = all_vars.(2) in
      alloc o;
      alloc x;
      alloc y;
      let f = field () in
      let g = Splitmix.choose rng (Array.of_list (List.filter (( <> ) f) (Array.to_list fields))) in
      B.store b m ~base:o ~field:f ~source:x;
      B.store b m ~base:o ~field:g ~source:y
    end;
    for _ = 1 to 4 + Splitmix.int rng 6 do
      match Splitmix.int rng 10 with
      | 0 -> alloc (var ())
      | 1 | 2 | 3 -> B.store b m ~base:(var ()) ~field:(field ()) ~source:(var ())
      | 4 | 5 | 6 -> B.load b m ~target:(var ()) ~base:(var ()) ~field:(field ())
      | 7 ->
        let name, arity = Splitmix.choose rng sig_pool in
        let actuals = List.init arity (fun _ -> var ()) in
        ignore (B.vcall b m ~base:(var ()) ~name ~actuals ~recv:(var ()) ())
      | 8 when m <> helper ->
        ignore (B.scall b m ~callee:helper ~actuals:[ var () ] ~recv:(var ()) ())
      | 8 -> B.move b m ~target:(var ()) ~source:(var ())
      | _ -> B.return_ b m (var ())
    done;
    let n = Array.length all_vars in
    let start = Splitmix.int rng n in
    let len = 2 + Splitmix.int rng 2 in
    let cycle k = all_vars.((start + (k mod len)) mod n) in
    for k = 0 to len - 1 do
      B.move b m ~target:(cycle (k + 1)) ~source:(cycle k)
    done;
    let base = var () in
    let v = var () in
    let f = field () in
    B.store b m ~base ~field:f ~source:v;
    B.load b m ~target:v ~base ~field:f
  in
  List.iter fill_body (List.rev !methods);
  B.finish b

(* ---------- canonical result rendering ---------- *)

(* Tuples are rendered by entity *names*, not ids, so results compare
   equal across different interning orders (reparsed programs, the Datalog
   backend's own context table, ...). *)
let ctx_str p tbl c =
  "["
  ^ String.concat ";"
      (Array.to_list (Array.map (Ipa_core.Ctx.Elem.to_string p) (Ipa_core.Ctx.elems tbl c)))
  ^ "]"

(* Sorted, context-decoded renderings of every computed relation of a native
   solution. Every canonicalized solution is also soundness-validated first,
   so nearly every solver run in the test suites doubles as a
   [Solution.self_check] run and fails loudly with the violated invariant. *)
let canon_native (s : Ipa_core.Solution.t) : string list =
  Ipa_core.Solution.self_check_exn s;
  let p = s.program in
  let acc = ref [] in
  let add fmt = Printf.ksprintf (fun str -> acc := str :: !acc) fmt in
  let c = ctx_str p s.ctxs in
  let v = Program.var_full_name p in
  let h = Program.heap_full_name p in
  let f = Program.field_full_name p in
  let m = Program.meth_full_name p in
  let i invo = (Program.invo_info p invo).invo_name in
  Ipa_core.Solution.iter_var_pts s (fun ~var ~ctx ~heap ~hctx ->
      add "vpt %s %s %s %s" (v var) (c ctx) (h heap) (c hctx));
  Ipa_core.Solution.iter_fld_pts s (fun ~base_heap ~base_hctx ~field ~heap ~hctx ->
      add "fpt %s %s %s %s %s" (h base_heap) (c base_hctx) (f field) (h heap) (c hctx));
  Ipa_core.Solution.iter_static_fld_pts s (fun ~field ~heap ~hctx ->
      add "sfpt %s %s %s" (f field) (h heap) (c hctx));
  Ipa_core.Solution.iter_cg s (fun ~invo ~caller ~meth ~callee ->
      add "cg %s %s %s %s" (i invo) (c caller) (m meth) (c callee));
  Ipa_core.Solution.iter_reachable s (fun ~meth ~ctx -> add "reach %s %s" (m meth) (c ctx));
  Ipa_core.Solution.iter_exc_pts s (fun ~meth ~ctx ~heap ~hctx ->
      add "exc %s %s %s %s" (m meth) (c ctx) (h heap) (c hctx));
  List.sort_uniq compare !acc

(* The same rendering for the Datalog reference backend. *)
let canon_datalog p (d : Ipa_core.Datalog_backend.t) : string list =
  let acc = ref [] in
  let add fmt = Printf.ksprintf (fun str -> acc := str :: !acc) fmt in
  let c = ctx_str p d.ctxs in
  let v = Program.var_full_name p in
  let h = Program.heap_full_name p in
  let f = Program.field_full_name p in
  let m = Program.meth_full_name p in
  let i invo = (Program.invo_info p invo).invo_name in
  Ipa_datalog.Relation.iter
    (fun t -> add "vpt %s %s %s %s" (v t.(0)) (c t.(1)) (h t.(2)) (c t.(3)))
    d.var_points_to;
  Ipa_datalog.Relation.iter
    (fun t -> add "fpt %s %s %s %s %s" (h t.(0)) (c t.(1)) (f t.(2)) (h t.(3)) (c t.(4)))
    d.fld_points_to;
  Ipa_datalog.Relation.iter
    (fun t -> add "sfpt %s %s %s" (f t.(0)) (h t.(1)) (c t.(2)))
    d.static_fld_points_to;
  Ipa_datalog.Relation.iter
    (fun t -> add "cg %s %s %s %s" (i t.(0)) (c t.(1)) (m t.(2)) (c t.(3)))
    d.call_graph;
  Ipa_datalog.Relation.iter (fun t -> add "reach %s %s" (m t.(0)) (c t.(1))) d.reachable;
  Ipa_datalog.Relation.iter
    (fun t -> add "exc %s %s %s %s" (m t.(0)) (c t.(1)) (h t.(2)) (c t.(3)))
    d.exc_points_to;
  List.sort_uniq compare !acc

(* ---------- common small programs ---------- *)

(* The quickstart two-boxes program: known exact results under insens vs
   object-sensitivity. *)
let boxes_src = {|
class Object { }
class A extends Object { }
class B extends Object { }
class Box {
  field val;
  method set/1 (x) { this.val = x; }
  method get/0 () { var t; t = this.val; return t; }
}
class Main {
  static method main/0 () {
    var b1, b2, oa, ob, ra, rb, rb2;
    b1 = new Box;
    b2 = new Box;
    oa = new A;
    ob = new B;
    b1.set(oa);
    b2.set(ob);
    ra = b1.get();
    rb = b2.get();
    rb2 = (B) rb;
  }
}
entry Main::main/0;
|}

let parse_exn src =
  match Ipa_frontend.Jir.parse_string src with
  | Ok p -> p
  | Error e -> failwith (Ipa_frontend.Jir.error_to_string e)

(* ---------- scratch directories ---------- *)

(* A fresh empty directory, removed (with its regular files) afterwards even
   if [f] raises. For tests of the on-disk snapshot cache. *)
let with_temp_dir f =
  let dir = Filename.temp_file "ipa_test" ".dir" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      (try
         Array.iter
           (fun file -> try Sys.remove (Filename.concat dir file) with Sys_error _ -> ())
           (Sys.readdir dir)
       with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

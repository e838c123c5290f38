module Program = Ipa_ir.Program
module Solver = Ipa_core.Solver
module Snapshot = Ipa_core.Snapshot
module Demand_solver = Ipa_core.Demand_solver
module Cache = Ipa_harness.Cache

(* [warm_lock] serializes the index builds of a shared entry's engine *)
type entry = { engine : Engine.t; nodes : int; warm_lock : Mutex.t }

type t = {
  program : Program.t;
  label : string;
  config : Solver.config;
  config_key : string;
  program_digest : string;
  cache : Cache.t option;
  warm : bool;
  memo : (string, entry) Hashtbl.t;
  lock : Mutex.t;
  names : Engine.names;  (* the tables every engine over [program] resolves with *)
  c_queries : int Atomic.t;
  c_hits : int Atomic.t;
  c_nodes : int Atomic.t;
  c_derivations : int Atomic.t;
}

let create ?cache ?(warm = false) ~program ~label config =
  let config = { config with Solver.budget = 0 } in
  let program_digest = Snapshot.digest_program program in
  {
    program;
    label;
    config;
    config_key = Snapshot.config_key ~program_digest config;
    program_digest;
    cache;
    warm;
    memo = Hashtbl.create 16;
    lock = Mutex.create ();
    names = Engine.names program;
    c_queries = Atomic.make 0;
    c_hits = Atomic.make 0;
    c_nodes = Atomic.make 0;
    c_derivations = Atomic.make 0;
  }

let eligible = function
  | Query.Pts _ | Query.Pointed_by _ | Query.Alias _ | Query.Callees _
  | Query.Callers _ | Query.Reach _ | Query.Fieldpts _ ->
    true
  | Query.Taint _ | Query.Stats -> false

(* Roots resolve through the tables the slice's engine answers with, so a
   name that resolves contributes its root, which is what the exactness
   contract needs; one that does not yields no root, and the slice engine
   reports its resolution error. *)
let roots_of t (q : Query.t) : Demand_solver.roots option =
  let var v = Option.to_list (Engine.find_var t.names v) in
  match q with
  | Query.Pts v -> Some { Demand_solver.root_vars = var v; root_fields = [] }
  | Query.Alias (a, b) ->
    Some { Demand_solver.root_vars = var a @ var b; root_fields = [] }
  | Query.Pointed_by _ -> Some (Demand_solver.all_var_roots t.program)
  | Query.Callees _ | Query.Callers _ | Query.Reach _ ->
    (* the call graph is exact in every slice; no data roots needed *)
    Some Demand_solver.no_roots
  | Query.Fieldpts (_, f) ->
    Some { Demand_solver.root_vars = []; root_fields = Option.to_list (Engine.find_field t.names f) }
  | Query.Taint _ | Query.Stats -> None

type served = {
  result : (Engine.answer, string) result;
  slice_nodes : int;
  hit : bool;
}

let find_memo t key =
  Mutex.lock t.lock;
  let found = Hashtbl.find_opt t.memo key in
  Mutex.unlock t.lock;
  found

let publish_memo t key entry =
  Mutex.lock t.lock;
  let published =
    match Hashtbl.find_opt t.memo key with
    | Some prior -> prior (* lost the race; keep the first publication *)
    | None ->
      Hashtbl.add t.memo key entry;
      entry
  in
  Mutex.unlock t.lock;
  published

let cached_solution t key =
  match t.cache with
  | None -> None
  | Some c -> (
    match Cache.find_bytes c ~key with
    | None -> None
    | Some bytes -> (
      match Snapshot.decode ~program:t.program ~expect_key:key bytes with
      | Ok snap -> Some snap.Snapshot.solution
      | Error _ -> None))

let eval t q =
  match roots_of t q with
  | None -> None
  | Some roots ->
    Atomic.incr t.c_queries;
    let key = Demand_solver.key ~config_key:t.config_key roots in
    let entry, hit =
      match find_memo t key with
      | Some e -> (e, true)
      | None ->
        (* slice + (decode | solve) outside the lock: concurrent misses may
           duplicate work, never diverge — the solver is deterministic *)
        let sl = Demand_solver.slice t.program roots in
        let sol, hit =
          match cached_solution t key with
          | Some sol -> (sol, true)
          | None ->
            let t0 = Unix.gettimeofday () in
            let sol = Demand_solver.run sl t.config in
            ignore (Atomic.fetch_and_add t.c_nodes sl.Demand_solver.slice_nodes);
            ignore
              (Atomic.fetch_and_add t.c_derivations
                 sol.Ipa_core.Solution.derivations);
            (match t.cache with
            | None -> ()
            | Some c ->
              let snap =
                {
                  Snapshot.key;
                  program_digest = t.program_digest;
                  label = "demand:" ^ t.label;
                  seconds = Unix.gettimeofday () -. t0;
                  solution = sol;
                  metrics = None;
                }
              in
              Cache.put_bytes c ~key (Snapshot.encode snap));
            (sol, false)
        in
        let entry =
          {
            engine = Engine.create sol;
            nodes = sl.Demand_solver.slice_nodes;
            warm_lock = Mutex.create ();
          }
        in
        (publish_memo t key entry, hit)
    in
    if hit then Atomic.incr t.c_hits;
    (* An entry serves every form over its roots, and a slice engine only
       ever sees a few of them: build just the index this form reads, once,
       under the entry's lock, which orders the build before every
       evaluation that reads it. *)
    if t.warm then Mutex.protect entry.warm_lock (fun () -> Engine.warm_for entry.engine q);
    Some { result = Engine.eval entry.engine q; slice_nodes = entry.nodes; hit }

type stats = {
  demand_queries : int;
  slice_hits : int;
  slice_nodes : int;
  slice_derivations : int;
}

let stats t =
  {
    demand_queries = Atomic.get t.c_queries;
    slice_hits = Atomic.get t.c_hits;
    slice_nodes = Atomic.get t.c_nodes;
    slice_derivations = Atomic.get t.c_derivations;
  }

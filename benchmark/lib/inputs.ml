(* Inputs. Every input a workload feeds the program is generated here:
   the benchmark programs (rendered to .jir text, which is all the program
   ever sees of them), the edit lists and the client request streams.
   The synthetic Dacapo generators take no seed of ours, so the programs
   are the same for every run; the run's [--seed] picks the edits and
   orders the request streams. Equal seeds give equal inputs. *)

module Dacapo = Ipa_synthetic.Dacapo
module Edits = Ipa_synthetic.Edits
module Splitmix = Ipa_support.Splitmix
module P = Ipa_ir.Program
module Q = Ipa_query.Query

(* An integer seed for sub-stream [k] of run seed [seed]. *)
let derive ~seed k = Splitmix.int (Splitmix.create ((seed * 1_000_003) + (k * 7919) + 17)) 0x3FFFFFFF

let jir ~scale name =
  match Dacapo.find name with
  | Some spec -> Ipa_ir.Pretty.program (Dacapo.build ~scale spec)
  | None -> invalid_arg ("Inputs.jir: unknown benchmark " ^ name)

let parse text =
  match Ipa_frontend.Jir.parse_string text with
  | Ok p -> p
  | Error e -> failwith ("generated .jir does not parse: " ^ Ipa_frontend.Jir.error_to_string e)

let edits ~seed ~n p = Edits.pick ~kinds:Edits.monotone_kinds ~seed:(derive ~seed 1) ~n p

(* ---------- client request streams ---------- *)

type request = Query of Q.t * string | Load of int  (** index into the snapshot keys *)

let request_line ~keys = function
  | Query (_, line) -> line
  | Load k -> "load key " ^ Q.quote keys.(k)

let cumulative weights =
  let total = ref 0 in
  Array.map
    (fun w ->
      total := !total + w;
      !total)
    weights

(* Integer zipf weights: rank r (from 0) weighs ~1/(r+1). *)
let zipf_cum n = cumulative (Array.init n (fun i -> 1_000_000 / (i + 1)))

(* First index whose cumulative weight exceeds [r]. *)
let bisect cum r =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cum.(mid) > r then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length cum - 1)

let weighted rng cum = bisect cum (Splitmix.int rng cum.(Array.length cum - 1))

(* A corpus: query forms, each holding a list of queries. Nothing tells
   us how real clients mix the forms, so the mix is assumed uniform: each
   request picks its form with equal chance (as the repository's own
   [bench serve] corpus gives every form the same number of queries),
   then a query within the form by a zipf over the list. The set of
   queries does not depend on the seed, so neither does the cost of the
   whole set (for serve-demand: the slice solves and the memory of the
   memo); the seed orders each list, which decides the queries that are
   hot. *)
type corpus = { forms : (Q.t * string) array array }

let corpus_size c = Array.fold_left (fun n qs -> n + Array.length qs) 0 c.forms

let instance_fields p =
  List.filter (fun f -> not (P.field_info p f).is_static_field) (List.init (P.n_fields p) Fun.id)
  |> Array.of_list

let make_corpus ~seed ~per_form p forms =
  let rng = Splitmix.create (derive ~seed:0 2) in
  let order = Splitmix.create (derive ~seed 2) in
  let pick n = Splitmix.int rng n in
  let var () = P.var_full_name p (pick (P.n_vars p)) in
  let heap () = P.heap_full_name p (pick (P.n_heaps p)) in
  let meth () = P.meth_full_name p (pick (P.n_meths p)) in
  let invo () = (P.invo_info p (pick (P.n_invos p))).invo_name in
  let fields = instance_fields p in
  let field () = P.field_full_name p fields.(pick (Array.length fields)) in
  let make = function
    | "pts" -> Q.Pts (var ())
    | "pointed-by" -> Q.Pointed_by (heap ())
    | "alias" -> Q.Alias (var (), var ())
    | "callees" -> Q.Callees (invo ())
    | "callers" -> Q.Callers (meth ())
    | "reach" -> Q.Reach (meth (), meth ())
    | "fieldpts" -> Q.Fieldpts (heap (), field ())
    | "taint" -> Q.Taint None
    | "stats" -> Q.Stats
    | form -> invalid_arg ("Inputs.make_corpus: unknown form " ^ form)
  in
  let forms =
    Array.of_list
      (List.map
         (fun form ->
           let n = if form = "taint" || form = "stats" then 1 else per_form in
           (* duplicates are dropped so the distinct count is exact *)
           let seen = Hashtbl.create n in
           let qs =
             List.filter_map
               (fun _ ->
                 let q = make form in
                 let line = Q.to_string q in
                 if Hashtbl.mem seen line then None
                 else begin
                   Hashtbl.add seen line ();
                   Some (q, line)
                 end)
               (List.init n Fun.id)
           in
           let qs = Array.of_list qs in
           Splitmix.shuffle order qs;
           qs)
         forms)
  in
  { forms }

(* serve-swap: all nine forms. *)
let swap_corpus ~seed p =
  make_corpus ~seed ~per_form:256 p
    [ "pts"; "pointed-by"; "alias"; "callees"; "callers"; "reach"; "fieldpts"; "taint"; "stats" ]

(* serve-demand: the demand-eligible forms whose slices are small. The
   working set is assumed small: at most [demand_per_form] × 4 distinct
   queries, so within a session most requests repeat a query already
   answered and hit the memo (the run reports the measured share). *)
let demand_per_form = 32

let demand_corpus ~seed p =
  make_corpus ~seed ~per_form:demand_per_form p [ "pts"; "alias"; "callees"; "fieldpts" ]

type stream = {
  rng : Splitmix.t;
  corpus : corpus;
  query_cum : int array array;
  conn : int;
  n_keys : int;
  swap_every : int;  (** 0: never swap *)
  mutable next : int;
}

(* The endless request stream of connection [conn]: a zipf pick within a
   form picked uniformly, and every [swap_every]-th request a [load key]
   swap between the [n_keys] snapshots, staggered across connections. *)
let stream ~seed ~corpus ~conn ~n_keys ~swap_every =
  {
    rng = Splitmix.create (derive ~seed (100 + conn));
    corpus;
    query_cum = Array.map (fun qs -> zipf_cum (Array.length qs)) corpus.forms;
    conn;
    n_keys;
    swap_every;
    next = 0;
  }

let next_request s =
  let i = s.next in
  s.next <- i + 1;
  if s.swap_every > 0 && i > 0 && i mod s.swap_every = 0 then
    Load (((i / s.swap_every) + s.conn) mod s.n_keys)
  else begin
    let f = Splitmix.int s.rng (Array.length s.corpus.forms) in
    let q, line = s.corpus.forms.(f).(weighted s.rng s.query_cum.(f)) in
    Query (q, line)
  end

module Codec = Ipa_support.Codec
module Writer = Codec.Writer
module Reader = Codec.Reader
module Dynarr = Ipa_support.Dynarr
module Int_set = Ipa_support.Int_set
module Pair_tbl = Ipa_support.Pair_tbl
module Program = Ipa_ir.Program

(* Version 2: solver cycle-elimination counters joined [Solution.counters]
   (cycles_collapsed, nodes_merged, repropagations_avoided), and the
   configuration key grew a topological worklist order plus a
   cycle-collapse flag.
   Version 3: four sharded-solve counters joined [Solution.counters]; the
   configuration key left out the shard count, since a sharded solve was
   byte-identical to a sequential one.
   Version 4: three compositional-solve counters joined
   [Solution.counters], again outside the configuration key.
   Version 5: sharded solving and the compositional summary store were
   removed, and with them the seven counters of versions 3 and 4.
   Still version 5: the worklist order and the cycle-collapse flag left the
   solver configuration, and so the configuration key; the body is unchanged. *)
let version = 5
let magic = "IPSN"
let trailer = "NSPI"

let corrupt fmt = Printf.ksprintf (fun msg -> raise (Codec.Corrupt msg)) fmt

type t = {
  key : string;
  program_digest : string;
  label : string;
  seconds : float;
  solution : Solution.t;
  metrics : Introspection.t option;
}

(* ---------- program digest ---------- *)

let encode_instr w (i : Program.instr) =
  match i with
  | Alloc { target; heap } ->
    Writer.u8 w 0;
    Writer.uint w target;
    Writer.uint w heap
  | Move { target; source } ->
    Writer.u8 w 1;
    Writer.uint w target;
    Writer.uint w source
  | Cast { target; source; cast_to } ->
    Writer.u8 w 2;
    Writer.uint w target;
    Writer.uint w source;
    Writer.uint w cast_to
  | Load { target; base; field } ->
    Writer.u8 w 3;
    Writer.uint w target;
    Writer.uint w base;
    Writer.uint w field
  | Store { base; field; source } ->
    Writer.u8 w 4;
    Writer.uint w base;
    Writer.uint w field;
    Writer.uint w source
  | Load_static { target; field } ->
    Writer.u8 w 5;
    Writer.uint w target;
    Writer.uint w field
  | Store_static { field; source } ->
    Writer.u8 w 6;
    Writer.uint w field;
    Writer.uint w source
  | Call invo ->
    Writer.u8 w 7;
    Writer.uint w invo
  | Return { source } ->
    Writer.u8 w 8;
    Writer.uint w source
  | Throw { source } ->
    Writer.u8 w 9;
    Writer.uint w source

let encode_program w p =
  let uint = Writer.uint w in
  let str = Writer.string w in
  let id_opt = Writer.option w Writer.uint in
  let id_list l =
    uint (List.length l);
    List.iter uint l
  in
  uint (Program.n_classes p);
  for c = 0 to Program.n_classes p - 1 do
    let ci = Program.class_info p c in
    str ci.class_name;
    id_opt ci.super;
    id_list ci.interfaces;
    Writer.bool w ci.is_interface;
    uint (List.length ci.declared);
    List.iter
      (fun (s, m) ->
        uint s;
        uint m)
      ci.declared
  done;
  uint (Program.n_fields p);
  for f = 0 to Program.n_fields p - 1 do
    let fi = Program.field_info p f in
    str fi.field_name;
    uint fi.field_owner;
    Writer.bool w fi.is_static_field
  done;
  uint (Program.n_sigs p);
  for s = 0 to Program.n_sigs p - 1 do
    let si = Program.sig_info p s in
    str si.sig_name;
    uint si.arity
  done;
  uint (Program.n_vars p);
  for v = 0 to Program.n_vars p - 1 do
    let vi = Program.var_info p v in
    str vi.var_name;
    uint vi.var_owner
  done;
  uint (Program.n_heaps p);
  for h = 0 to Program.n_heaps p - 1 do
    let hi = Program.heap_info p h in
    str hi.heap_name;
    uint hi.heap_class;
    uint hi.heap_owner
  done;
  uint (Program.n_invos p);
  for i = 0 to Program.n_invos p - 1 do
    let ii = Program.invo_info p i in
    (match ii.call with
    | Virtual { base; signature } ->
      Writer.u8 w 0;
      uint base;
      uint signature
    | Static { callee } ->
      Writer.u8 w 1;
      uint callee);
    Writer.int_array w ii.actuals;
    id_opt ii.recv;
    uint ii.invo_owner;
    str ii.invo_name
  done;
  uint (Program.n_meths p);
  for m = 0 to Program.n_meths p - 1 do
    let mi = Program.meth_info p m in
    str mi.meth_name;
    uint mi.meth_owner;
    uint mi.meth_sig;
    Writer.bool w mi.is_static_meth;
    Writer.bool w mi.is_abstract;
    id_opt mi.this_var;
    Writer.int_array w mi.formals;
    id_opt mi.ret_var;
    uint (Array.length mi.catches);
    Array.iter
      (fun (c : Program.catch_clause) ->
        uint c.catch_type;
        uint c.catch_var)
      mi.catches;
    uint (Array.length mi.body);
    Array.iter (encode_instr w) mi.body
  done;
  id_list (Program.entries p)

(* Every decode checks the program's digest; a server decodes many
   snapshots of one program. *)
let digest_program =
  Program.memo (fun p ->
      let w = Writer.create ~capacity:4096 () in
      encode_program w p;
      Digest.to_hex (Digest.string (Writer.contents w)))

(* ---------- configuration key ---------- *)

let config_key ~program_digest (c : Solver.config) =
  let w = Writer.create () in
  Writer.raw w "IPAK";
  Writer.uint w version;
  Writer.string w program_digest;
  Solver.write_config w c;
  Digest.to_hex (Digest.string (Writer.contents w))

(* ---------- solution ---------- *)

let encode_pair_tbl w tbl =
  Writer.uint w (Pair_tbl.count tbl);
  Pair_tbl.iter
    (fun _ a b ->
      Writer.uint w a;
      Writer.uint w b)
    tbl

(* A count of items that take at least a byte each. One beyond the rest of
   the payload is corrupt, and nothing is sized from it. *)
let count r what =
  let n = Reader.uint r in
  if n > Reader.remaining r then corrupt "%s count %d exceeds the payload" what n;
  n

let decode_pair_tbl r =
  let n = count r "pair table" in
  let tbl = Pair_tbl.create ~capacity:(max 16 n) () in
  for id = 0 to n - 1 do
    let a = Reader.uint r in
    let b = Reader.uint r in
    let got = Pair_tbl.intern tbl a b in
    if got <> id then corrupt "pair table out of order (id %d became %d)" id got
  done;
  tbl

let encode_ctxs w ctxs =
  Writer.uint w (Ctx.count ctxs);
  for id = 1 to Ctx.count ctxs - 1 do
    Writer.int_array w (Ctx.elems ctxs id)
  done

let decode_ctxs r =
  let n = count r "context" in
  if n < 1 then corrupt "empty context table";
  let t = Ctx.create () in
  for id = 1 to n - 1 do
    let got = Ctx.intern t (Reader.int_array r) in
    if got <> id then corrupt "context table out of order (id %d became %d)" id got
  done;
  t

(* Sets by physical identity: slots with equal contents share one set
   object, in a solved solution (see [Solver.materialize]) and in a
   decoded one. *)
module Phys_tbl = Hashtbl.Make (struct
  type t = Int_set.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

(* Each slot is written as [Writer.option w Writer.int_set] would write it.
   A hashed set is sorted and encoded at its first slot only; every later
   slot holding the same object repeats those bytes. Small sets are cheap
   to encode, so they skip the memo. *)
let encode_pts w pts =
  let seen = Phys_tbl.create 64 in
  Writer.uint w (Dynarr.length pts);
  Dynarr.iter
    (function
      | None -> Writer.bool w false
      | Some set -> (
        Writer.bool w true;
        if Int_set.is_small set then Writer.int_set w set
        else
          match Phys_tbl.find_opt seen set with
          | Some (pos, len) -> Writer.raw w (Writer.sub w pos len)
          | None ->
            let pos = Writer.length w in
            Writer.int_set w set;
            Phys_tbl.add seen set (pos, Writer.length w - pos)))
    pts

let encode_solution w (s : Solution.t) =
  encode_ctxs w s.ctxs;
  encode_pair_tbl w s.objs;
  encode_pair_tbl w s.var_nodes;
  encode_pair_tbl w s.fld_nodes;
  encode_pair_tbl w s.reach;
  encode_pts w s.pts;
  Writer.uint w (Dynarr.length s.cg);
  Dynarr.iter (fun v -> Writer.uint w v) s.cg;
  Writer.u8 w (match s.outcome with Solution.Complete -> 0 | Solution.Budget_exceeded -> 1);
  Writer.uint w s.derivations;
  let c = s.counters in
  Writer.uint w c.edges_added;
  Writer.uint w c.edges_deduped;
  Writer.uint w c.batches;
  Writer.uint w c.batch_objs;
  Writer.uint w c.max_batch;
  Writer.uint w c.set_promotions;
  Writer.uint w c.cycles_collapsed;
  Writer.uint w c.nodes_merged;
  Writer.uint w c.repropagations_avoided

let decode_solution r program config : Solution.t =
  let ctxs = decode_ctxs r in
  let objs = decode_pair_tbl r in
  let var_nodes = decode_pair_tbl r in
  let fld_nodes = decode_pair_tbl r in
  let reach = decode_pair_tbl r in
  let n_pts = count r "points-to slot" in
  let pts = Dynarr.create ~capacity:(max 16 n_pts) ~dummy:None () in
  for _ = 1 to n_pts do
    Dynarr.push pts (Reader.option r Reader.int_set)
  done;
  let n_cg = count r "call-graph word" in
  let cg = Dynarr.create ~capacity:(max 16 n_cg) ~dummy:0 () in
  for _ = 1 to n_cg do
    Dynarr.push cg (Reader.uint r)
  done;
  let outcome =
    match Reader.u8 r with
    | 0 -> Solution.Complete
    | 1 -> Solution.Budget_exceeded
    | b -> corrupt "bad outcome byte %d" b
  in
  let derivations = Reader.uint r in
  let edges_added = Reader.uint r in
  let edges_deduped = Reader.uint r in
  let batches = Reader.uint r in
  let batch_objs = Reader.uint r in
  let max_batch = Reader.uint r in
  let set_promotions = Reader.uint r in
  let cycles_collapsed = Reader.uint r in
  let nodes_merged = Reader.uint r in
  let repropagations_avoided = Reader.uint r in
  {
    Solution.program;
    config;
    ctxs;
    objs;
    var_nodes;
    fld_nodes;
    pts;
    reach;
    cg;
    outcome;
    derivations;
    counters =
      {
        edges_added;
        edges_deduped;
        batches;
        batch_objs;
        max_batch;
        set_promotions;
        cycles_collapsed;
        nodes_merged;
        repropagations_avoided;
      };
    resume = None;
    collapsed_vpt_cache = None;
    collapsed_fpt_cache = None;
    reachable_meths_cache = None;
    call_targets_cache = None;
    inverted_vpt_cache = None;
    inverted_fpt_cache = None;
    callee_meths_cache = None;
    caller_sites_cache = None;
  }

(* ---------- metrics ---------- *)

let encode_metrics w (m : Introspection.t) =
  Writer.int_array w m.in_flow;
  Writer.int_array w m.meth_total_volume;
  Writer.int_array w m.meth_max_var;
  Writer.int_array w m.obj_total_field;
  Writer.int_array w m.obj_max_field;
  Writer.int_array w m.meth_max_var_field;
  Writer.int_array w m.pointed_by_vars;
  Writer.int_array w m.pointed_by_objs

let decode_metrics r : Introspection.t =
  let in_flow = Reader.int_array r in
  let meth_total_volume = Reader.int_array r in
  let meth_max_var = Reader.int_array r in
  let obj_total_field = Reader.int_array r in
  let obj_max_field = Reader.int_array r in
  let meth_max_var_field = Reader.int_array r in
  let pointed_by_vars = Reader.int_array r in
  let pointed_by_objs = Reader.int_array r in
  {
    in_flow;
    meth_total_volume;
    meth_max_var;
    obj_total_field;
    obj_max_field;
    meth_max_var_field;
    pointed_by_vars;
    pointed_by_objs;
  }

(* ---------- framing ---------- *)

type error =
  | Bad_magic
  | Version_mismatch of { found : int; expected : int }
  | Truncated
  | Checksum_mismatch
  | Program_mismatch of { found : string; expected : string }
  | Key_mismatch of { found : string; expected : string }
  | Malformed of string

let error_to_string = function
  | Bad_magic -> "not a snapshot (bad magic)"
  | Version_mismatch { found; expected } ->
    Printf.sprintf "snapshot format version %d, this build reads version %d" found expected
  | Truncated -> "snapshot truncated"
  | Checksum_mismatch -> "snapshot checksum mismatch (corrupted payload)"
  | Program_mismatch { found; expected } ->
    Printf.sprintf "snapshot is of a different program (digest %s, expected %s)" found expected
  | Key_mismatch { found; expected } ->
    Printf.sprintf "snapshot is of a different configuration (key %s, expected %s)" found expected
  | Malformed msg -> Printf.sprintf "malformed snapshot payload: %s" msg

let encode t =
  let w = Writer.create ~capacity:4096 () in
  Writer.string w t.key;
  Writer.string w t.program_digest;
  Writer.string w t.label;
  Writer.float w t.seconds;
  encode_solution w t.solution;
  Writer.option w encode_metrics t.metrics;
  Writer.raw w trailer;
  let payload = Writer.contents w in
  let header = Writer.create ~capacity:32 () in
  Writer.raw header magic;
  Writer.uint header version;
  Writer.uint header (String.length payload);
  Writer.raw header (Digest.string payload);
  Writer.contents header ^ payload

(* Header validation shared by [decode] and [inspect]: returns the verified
   payload. The version varint lives outside the checksum so format bumps
   are reported as such, not as corruption. *)
let checked_payload bytes =
  let len = String.length bytes in
  let mlen = min len (String.length magic) in
  if String.sub bytes 0 mlen <> String.sub magic 0 mlen then Error Bad_magic
  else if len < String.length magic then Error Truncated
  else
    match
      let r = Reader.of_string ~pos:(String.length magic) bytes in
      let v = Reader.uint r in
      if v <> version then Error (Version_mismatch { found = v; expected = version })
      else begin
        let plen = Reader.uint r in
        let sum = Reader.raw r 16 in
        if Reader.remaining r < plen then Error Truncated
        else if Reader.remaining r > plen then Error (Malformed "trailing bytes after payload")
        else begin
          let payload = Reader.raw r plen in
          if Digest.string payload <> sum then Error Checksum_mismatch else Ok payload
        end
      end
    with
    | result -> result
    | exception Codec.Corrupt _ -> Error Truncated

let decode ~program ?config ?expect_key bytes =
  match checked_payload bytes with
  | Error e -> Error e
  | Ok payload -> (
    try
      let r = Reader.of_string payload in
      let key = Reader.string r in
      let program_digest = Reader.string r in
      let expected_digest = digest_program program in
      let expected_keys =
        Option.to_list expect_key
        @ Option.to_list (Option.map (config_key ~program_digest:expected_digest) config)
      in
      if program_digest <> expected_digest then
        Error (Program_mismatch { found = program_digest; expected = expected_digest })
      else
        match List.find_opt (( <> ) key) expected_keys with
        | Some ek -> Error (Key_mismatch { found = key; expected = ek })
        | None ->
          let label = Reader.string r in
          let seconds = Reader.float r in
          let solution = decode_solution r program (Option.map Solver.config_digest config) in
          let metrics = Reader.option r decode_metrics in
          Reader.expect r trailer;
          if not (Reader.at_end r) then Error (Malformed "unconsumed payload bytes")
          else Ok { key; program_digest; label; seconds; solution; metrics }
    with
    | Codec.Corrupt msg -> Error (Malformed msg)
    | Invalid_argument msg -> Error (Malformed msg))

type info = {
  info_key : string;
  info_program_digest : string;
  info_label : string;
  info_seconds : float;
}

let inspect bytes =
  match checked_payload bytes with
  | Error e -> Error e
  | Ok payload -> (
    try
      let r = Reader.of_string payload in
      let info_key = Reader.string r in
      let info_program_digest = Reader.string r in
      let info_label = Reader.string r in
      let info_seconds = Reader.float r in
      Ok { info_key; info_program_digest; info_label; info_seconds }
    with
    | Codec.Corrupt msg -> Error (Malformed msg)
    | Invalid_argument msg -> Error (Malformed msg))

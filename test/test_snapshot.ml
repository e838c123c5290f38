(* Snapshot and codec battery:
   - unit tests of the binary codec's primitives (varint boundaries, zigzag
     extremes, float bit-patterns, strings with NULs, canonical int sets)
     and of its failure mode (every bad read raises [Codec.Corrupt]);
   - QCheck round-trip: encode∘decode is the identity on solved snapshots
     of random programs (random builder output, synthetic-world motifs and
     the quickstart program; every flavor; with and without a budget), and
     re-encoding the decoded snapshot reproduces the bytes exactly;
   - QCheck robustness: any single-byte corruption or truncation of a
     snapshot yields a versioned [error] — never an exception, never a
     silently different solution;
   - golden bytes: pinned MD5s of the snapshots and configuration keys of
     fixed solves (the boxes program and a small generated bloat), one of
     them holding sets shared between slots; equal contents are one set
     object in a solved and in a decoded solution, and a reader's set
     memo shares by bytes only within the reader;
   - framing: version bumps, wrong program, wrong key, trailing garbage and
     [inspect] on the header. *)

module Codec = Ipa_support.Codec
module W = Codec.Writer
module R = Codec.Reader
module Int_set = Ipa_support.Int_set
module Snapshot = Ipa_core.Snapshot
module Analysis = Ipa_core.Analysis
module Flavors = Ipa_core.Flavors
module Heuristics = Ipa_core.Heuristics
module Solver = Ipa_core.Solver
module T = Ipa_testlib

let check = Alcotest.check

let qtest ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ---------- codec primitives ---------- *)

let test_codec_uint () =
  let values = [ 0; 1; 127; 128; 255; 16383; 16384; 1 lsl 30; (1 lsl 62) - 1; max_int ] in
  let w = W.create () in
  List.iter (W.uint w) values;
  let r = R.of_string (W.contents w) in
  List.iter (fun v -> check Alcotest.int (string_of_int v) v (R.uint r)) values;
  check Alcotest.bool "at end" true (R.at_end r);
  (match W.uint (W.create ()) (-1) with
  | () -> Alcotest.fail "negative uint accepted"
  | exception Invalid_argument _ -> ())

let test_codec_int () =
  let values = [ 0; 1; -1; 2; -2; 63; -64; 64; 12345; -98765; max_int; min_int ] in
  let w = W.create () in
  List.iter (W.int w) values;
  let r = R.of_string (W.contents w) in
  List.iter (fun v -> check Alcotest.int (string_of_int v) v (R.int r)) values;
  check Alcotest.bool "at end" true (R.at_end r)

let test_codec_float () =
  let values = [ 0.0; -0.0; 1.5; -3.25; infinity; neg_infinity; nan; 1e308; 4.9e-324 ] in
  let w = W.create () in
  List.iter (W.float w) values;
  let r = R.of_string (W.contents w) in
  List.iter
    (fun v ->
      (* bit-exact, including -0.0 and nan *)
      check Alcotest.int64 (string_of_float v) (Int64.bits_of_float v)
        (Int64.bits_of_float (R.float r)))
    values

let test_codec_string () =
  let values = [ ""; "a"; "with\000nul\255bytes"; String.make 1000 'x' ] in
  let w = W.create () in
  List.iter (W.string w) values;
  W.bool w true;
  W.bool w false;
  W.u8 w 200;
  let r = R.of_string (W.contents w) in
  List.iter (fun v -> check Alcotest.string "string" v (R.string r)) values;
  check Alcotest.bool "true" true (R.bool r);
  check Alcotest.bool "false" false (R.bool r);
  check Alcotest.int "u8" 200 (R.u8 r)

let test_codec_containers () =
  let arr = [| 0; 7; 3; max_int; 1 |] in
  let set = Int_set.create () in
  List.iter (fun v -> ignore (Int_set.add set v)) [ 42; 0; 7; 1000000; 8 ];
  let w = W.create () in
  W.int_array w arr;
  W.int_array w [||];
  W.int_set w set;
  W.int_set w (Int_set.create ());
  W.option w W.uint (Some 9);
  W.option w W.uint None;
  let r = R.of_string (W.contents w) in
  check (Alcotest.array Alcotest.int) "array" arr (R.int_array r);
  check (Alcotest.array Alcotest.int) "empty array" [||] (R.int_array r);
  check (Alcotest.list Alcotest.int) "set" (Int_set.to_sorted_list set)
    (Int_set.to_sorted_list (R.int_set r));
  check Alcotest.int "empty set" 0 (Int_set.cardinal (R.int_set r));
  check (Alcotest.option Alcotest.int) "some" (Some 9) (R.option r R.uint);
  check (Alcotest.option Alcotest.int) "none" None (R.option r R.uint)

(* Nine varint bytes with all 63 bits set: a zigzagged [min_int], or -1
   read as a plain varint. *)
let negative_varint = String.make 8 '\255' ^ "\127"

let expect_corrupt name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Codec.Corrupt" name
  | exception Codec.Corrupt _ -> ()

let test_codec_corrupt () =
  (* reads past the end *)
  let w = W.create () in
  W.string w "hello";
  let bytes = W.contents w in
  for n = 0 to String.length bytes - 1 do
    expect_corrupt
      (Printf.sprintf "prefix %d" n)
      (fun () -> R.string (R.of_string (String.sub bytes 0 n)))
  done;
  (* an unterminated varint *)
  expect_corrupt "varint overflow" (fun () -> R.uint (R.of_string (String.make 10 '\255')));
  (* a duplicate (gap 0) in a canonical set *)
  let w = W.create () in
  W.uint w 2;
  W.uint w 5;
  W.uint w 0;
  expect_corrupt "duplicate set element" (fun () -> R.int_set (R.of_string (W.contents w)));
  (* a failed magic check *)
  expect_corrupt "expect" (fun () -> R.expect (R.of_string "XXXX") "IPSN");
  (* a ninth byte that sets the sign bit: -1 as a non-negative read *)
  expect_corrupt "negative uint" (fun () -> R.uint (R.of_string negative_varint));
  expect_corrupt "negative length" (fun () -> R.string (R.of_string negative_varint));
  expect_corrupt "negative array element" (fun () ->
      R.int_array (R.of_string ("\001" ^ negative_varint)));
  expect_corrupt "negative set element" (fun () ->
      R.int_set (R.of_string ("\001" ^ negative_varint)));
  expect_corrupt "negative set gap" (fun () ->
      R.int_set (R.of_string ("\002\005" ^ negative_varint)));
  (* the zigzag reader keeps all 63 bits: the same bytes are min_int *)
  check Alcotest.int "zigzag sign bit" min_int (R.int (R.of_string negative_varint));
  (* set elements whose gaps sum past max_int *)
  let w = W.create () in
  W.uint w 2;
  W.uint w max_int;
  W.uint w 1;
  expect_corrupt "set past max_int" (fun () -> R.int_set (R.of_string (W.contents w)))

(* The set decoder at the inline/hashed boundary (8 and 9 elements), with
   multi-byte gaps: each set reads back whole, answers [mem] for its
   elements only, and occupies the same words as a set its elements were
   added to one by one, so a decoded snapshot's memory does not grow. *)
let test_codec_set_edges () =
  List.iter
    (fun n ->
      let elems = List.init n (fun i -> (i * i * 37) + i) in
      let w = W.create () in
      W.int_set w (Int_set.of_sorted_array (Array.of_list elems));
      let got = R.int_set (R.of_string (W.contents w)) in
      let what = Printf.sprintf "%d elements" n in
      check (Alcotest.list Alcotest.int) what elems (Int_set.to_sorted_list got);
      check Alcotest.bool (what ^ ": mem") true (List.for_all (Int_set.mem got) elems);
      check Alcotest.bool (what ^ ": no stray mem") false (Int_set.mem got 2);
      check Alcotest.bool (what ^ ": inline up to 8") (n <= 8) (Int_set.is_small got);
      let added = Int_set.create ~capacity:n () in
      List.iter (fun e -> ignore (Int_set.add added e)) elems;
      check Alcotest.int (what ^ ": words") (Obj.reachable_words (Obj.repr added))
        (Obj.reachable_words (Obj.repr got)))
    [ 0; 1; 8; 9; 11; 12; 100; 1000 ];
  (* a count larger than the input *)
  expect_corrupt "count past input" (fun () -> R.int_set (R.of_string "\005\001\001"));
  (* cut inside the last element's two-byte varint *)
  let w = W.create () in
  W.int_set w (Int_set.of_sorted_array [| 1; 1000 |]);
  let bytes = W.contents w in
  check Alcotest.int "two-byte last gap" 4 (String.length bytes);
  expect_corrupt "truncated last element" (fun () ->
      R.int_set (R.of_string (String.sub bytes 0 3)))

(* A reader returns the set it decoded before for the same bytes: count
   and gaps alike, inline or hashed. A prefix of another set's gaps under
   a different count is another set, and another reader decodes its own
   sets. *)
let test_codec_set_memo () =
  let w = W.create () in
  let big = Array.init 20 (fun i -> 3 * i) in
  List.iter
    (fun elems -> W.int_set w (Int_set.of_sorted_array elems))
    [ [| 1; 5; 9 |]; [| 1; 5 |]; big; [| 1; 5; 9 |]; big; [| 1; 5 |] ];
  let bytes = W.contents w in
  let r = R.of_string bytes in
  let read () = R.int_set r in
  let a = read () in
  let b = read () in
  let c = read () in
  let a' = read () in
  let c' = read () in
  let b' = read () in
  check Alcotest.bool "all read" true (R.at_end r);
  check (Alcotest.list Alcotest.int) "a" [ 1; 5; 9 ] (Int_set.to_sorted_list a);
  check (Alcotest.list Alcotest.int) "b" [ 1; 5 ] (Int_set.to_sorted_list b);
  check (Alcotest.list Alcotest.int) "c" (Array.to_list big) (Int_set.to_sorted_list c);
  check Alcotest.bool "equal inline sets are one" true (a == a' && b == b');
  check Alcotest.bool "equal hashed sets are one" true (c == c');
  check Alcotest.bool "a different count is another set" false (a == b);
  let r2 = R.of_string bytes in
  check Alcotest.bool "another reader, another set" false (R.int_set r2 == a);
  (* A set that fails to decode is not remembered: the duplicate is the
     last gap, so the cursor stops at the second copy of the same bytes,
     which must fail again rather than be found. *)
  let w = W.create () in
  W.uint w 2;
  W.uint w 5;
  W.uint w 0;
  let dup = W.contents w in
  let r = R.of_string (dup ^ dup) in
  expect_corrupt "duplicate, first" (fun () -> R.int_set r);
  expect_corrupt "duplicate, again" (fun () -> R.int_set r);
  check Alcotest.bool "both copies read" true (R.at_end r)

(* ---------- solved snapshots ---------- *)

(* Solve [p], returning the result, its cache key and (for introspective
   runs) the first-pass metrics — mirroring what the cache and the CLI
   store. *)
let solved ?(budget = 0) p flavor heuristic =
  let program_digest = Snapshot.digest_program p in
  match heuristic with
  | None ->
    let config = Solver.plain p ~budget (Flavors.strategy p flavor) in
    ( Analysis.run_config p ~label:(Flavors.to_string flavor) config,
      Snapshot.config_key ~program_digest config,
      None )
  | Some h ->
    let ir = Analysis.run_introspective ~budget p flavor h in
    ( ir.second,
      Snapshot.config_key ~program_digest (Analysis.second_pass_config ~budget p flavor ir.refine),
      Some ir.metrics )

let snapshot_of p (r : Analysis.result) key metrics =
  {
    Snapshot.key;
    program_digest = Snapshot.digest_program p;
    label = r.label;
    seconds = r.seconds;
    solution = r.solution;
    metrics;
  }

(* The deep comparison behind both the unit and the property round-trips.
   [T.canon_native] self-checks each solution first, so every decoded
   solution also passes [Solution.self_check]. *)
let roundtrip_check p (snap : Snapshot.t) =
  let bytes = Snapshot.encode snap in
  match Snapshot.decode ~program:p ~expect_key:snap.key bytes with
  | Error e -> Alcotest.failf "decode failed: %s" (Snapshot.error_to_string e)
  | Ok got ->
    check (Alcotest.list Alcotest.string) "relations" (T.canon_native snap.solution)
      (T.canon_native got.solution);
    check Alcotest.int "derivations" snap.solution.derivations got.solution.derivations;
    check Alcotest.bool "outcome" true (snap.solution.outcome = got.solution.outcome);
    check Alcotest.bool "counters" true (snap.solution.counters = got.solution.counters);
    check Alcotest.string "label" snap.label got.label;
    check Alcotest.bool "seconds" true (snap.seconds = got.seconds);
    check Alcotest.string "key" snap.key got.key;
    (match (snap.metrics, got.metrics) with
    | None, None -> ()
    | Some a, Some b -> check Alcotest.bool "metrics" true (a = b)
    | _ -> Alcotest.fail "metrics presence changed");
    (* the encoding is canonical: re-encoding the decoded snapshot
       reproduces the bytes exactly *)
    check Alcotest.string "canonical bytes" bytes (Snapshot.encode got)

let boxes = lazy (T.parse_exn T.boxes_src)

let test_roundtrip_boxes () =
  let p = Lazy.force boxes in
  List.iter
    (fun (flavor, heuristic) ->
      let r, key, metrics = solved p flavor heuristic in
      roundtrip_check p (snapshot_of p r key metrics);
      (* and without metrics *)
      roundtrip_check p (snapshot_of p r key None))
    [
      (Flavors.Insensitive, None);
      (Flavors.Object_sens { depth = 2; heap = 1 }, None);
      (Flavors.Object_sens { depth = 2; heap = 1 }, Some Heuristics.default_a);
      (Flavors.Call_site { depth = 2; heap = 1 }, Some Heuristics.default_b);
    ]

let test_roundtrip_budget_exceeded () =
  let p = Lazy.force boxes in
  let r, key, metrics = solved ~budget:5 p (Flavors.Object_sens { depth = 2; heap = 1 }) None in
  check Alcotest.bool "timed out" true r.timed_out;
  roundtrip_check p (snapshot_of p r key metrics)

(* ---------- QCheck: round-trip on random programs ---------- *)

let synthetic_program seed =
  let w = Ipa_synthetic.World.create () in
  (match seed mod 3 with
  | 0 ->
    Ipa_synthetic.Motifs.chains w ~n:3 ~depth:2;
    Ipa_synthetic.Motifs.factory_boxes w ~n:2
  | 1 ->
    Ipa_synthetic.Motifs.listeners w ~n:3;
    Ipa_synthetic.Motifs.taint_pipes w ~n:2
  | _ ->
    Ipa_synthetic.Motifs.exceptional w ~n:2;
    Ipa_synthetic.Motifs.dispatch_storm w ~wrappers:2 ~payload:2 ~depth:2);
  Ipa_synthetic.World.finish w

let flavors =
  [|
    Flavors.Insensitive;
    Flavors.Object_sens { depth = 2; heap = 1 };
    Flavors.Call_site { depth = 2; heap = 1 };
    Flavors.Type_sens { depth = 2; heap = 1 };
    Flavors.Hybrid { depth = 2; heap = 1 };
  |]

let gen_case =
  QCheck2.Gen.(
    let* family = int_range 0 2 in
    let* seed = int_range 0 9999 in
    let* flavor_i = int_range 0 (Array.length flavors - 1) in
    let* heuristic_i = int_range 0 2 in
    let* budgeted = frequencyl [ (4, false); (1, true) ] in
    return (family, seed, flavor_i, heuristic_i, budgeted))

let obj2 = Flavors.Object_sens { depth = 2; heap = 1 }
let call2 = Flavors.Call_site { depth = 2; heap = 1 }

let program_of_case (family, seed, _, _, _) =
  match family with
  | 0 -> T.random_program seed
  | 1 -> synthetic_program seed
  | _ -> Lazy.force boxes

let prop_roundtrip case =
  let (_, _, flavor_i, heuristic_i, budgeted) = case in
  let p = program_of_case case in
  let flavor = flavors.(flavor_i) in
  let heuristic =
    match heuristic_i with
    | 0 -> None
    | 1 -> Some Heuristics.default_a
    | _ -> Some Heuristics.default_b
  in
  let budget = if budgeted then 300 else 0 in
  let r, key, metrics = solved ~budget p flavor heuristic in
  roundtrip_check p (snapshot_of p r key metrics);
  true

(* ---------- QCheck: the context-insensitive projections ---------- *)

(* Every served query reads a projection of the solution, not its
   context-sensitive tables. The references below fold over every tuple,
   one [Int_set.add] each; the solution's own projections, on the solved
   and on the decoded solution alike, must hold exactly their elements. *)
module Solution = Ipa_core.Solution
module Program = Ipa_ir.Program

let ref_set_add tbl key x =
  let s =
    match Hashtbl.find_opt tbl key with
    | Some s -> s
    | None ->
      let s = Int_set.create () in
      Hashtbl.add tbl key s;
      s
  in
  ignore (Int_set.add s x)

let ref_array n fill =
  let a = Array.init n (fun _ -> Int_set.create ()) in
  fill (fun i x -> ignore (Int_set.add a.(i) x));
  a

let ref_collapsed_var_pts (s : Solution.t) =
  ref_array (Program.n_vars s.program) (fun add ->
      Solution.iter_var_pts s (fun ~var ~ctx:_ ~heap ~hctx:_ -> add var heap))

let ref_collapsed_fld_pts (s : Solution.t) =
  let h = Hashtbl.create 64 in
  Solution.iter_fld_pts s (fun ~base_heap ~base_hctx:_ ~field ~heap ~hctx:_ ->
      ref_set_add h (Solution.fld_pts_key s ~heap:base_heap ~field) heap);
  h

let ref_inverted (s : Solution.t) fold =
  ref_array (Program.n_heaps s.program) (fun add -> fold (fun key h -> add h key))

let ref_call_targets (s : Solution.t) =
  let h = Hashtbl.create 64 in
  Solution.iter_cg s (fun ~invo ~caller:_ ~meth ~callee:_ -> ref_set_add h invo meth);
  h

let ref_callee_meths (s : Solution.t) =
  ref_array (Program.n_meths s.program) (fun add ->
      Solution.iter_cg s (fun ~invo ~caller:_ ~meth ~callee:_ ->
          add (Program.invo_info s.program invo).invo_owner meth))

let ref_caller_sites (s : Solution.t) =
  ref_array (Program.n_meths s.program) (fun add ->
      Solution.iter_cg s (fun ~invo ~caller:_ ~meth ~callee:_ -> add meth invo))

let ref_reachable_meths (s : Solution.t) =
  let set = Int_set.create () in
  Solution.iter_reachable s (fun ~meth ~ctx:_ -> ignore (Int_set.add set meth));
  set

let elems = Int_set.to_sorted_list

let same_array what want got =
  if Array.length want <> Array.length got then
    QCheck2.Test.fail_reportf "%s: %d entries, want %d" what (Array.length got)
      (Array.length want);
  Array.iteri
    (fun i w ->
      if elems w <> elems got.(i) then QCheck2.Test.fail_reportf "%s: entry %d differs" what i)
    want

let same_tbl what want got =
  let rows h =
    List.sort compare (Hashtbl.fold (fun k set acc -> (k, elems set) :: acc) h [])
  in
  if rows want <> rows got then QCheck2.Test.fail_reportf "%s differs" what

let check_projections what (s : Solution.t) =
  let vpt = ref_collapsed_var_pts s in
  let fpt = ref_collapsed_fld_pts s in
  same_array (what ^ " collapsed_var_pts") vpt (Solution.collapsed_var_pts s);
  same_tbl (what ^ " collapsed_fld_pts") fpt (Solution.collapsed_fld_pts s);
  same_array (what ^ " inverted_var_pts")
    (ref_inverted s (fun f -> Array.iteri (fun v set -> Int_set.iter (f v) set) vpt))
    (Solution.inverted_var_pts s);
  same_array (what ^ " inverted_fld_pts")
    (ref_inverted s (fun f -> Hashtbl.iter (fun key set -> Int_set.iter (f key) set) fpt))
    (Solution.inverted_fld_pts s);
  same_tbl (what ^ " call_targets") (ref_call_targets s) (Solution.call_targets s);
  same_array (what ^ " callee_meths") (ref_callee_meths s) (Solution.callee_meths s);
  same_array (what ^ " caller_sites") (ref_caller_sites s) (Solution.caller_sites s);
  if elems (ref_reachable_meths s) <> elems (Solution.reachable_meths s) then
    QCheck2.Test.fail_reportf "%s reachable_meths differs" what

(* insens, 2objH, 2callH, 2typeH, an introspective second pass, and a
   budget-truncated solve. *)
let projection_configs =
  [|
    (Flavors.Insensitive, None, 0);
    (obj2, None, 0);
    (call2, None, 0);
    (Flavors.Type_sens { depth = 2; heap = 1 }, None, 0);
    (obj2, Some Heuristics.default_a, 0);
    (obj2, None, 300);
  |]

let gen_projection_case =
  QCheck2.Gen.(
    let* family = int_range 0 2 in
    let* seed = int_range 0 9999 in
    let* config = int_range 0 (Array.length projection_configs - 1) in
    return (family, seed, config))

let prop_projections (family, seed, config) =
  let p = program_of_case (family, seed, 0, 0, false) in
  let flavor, heuristic, budget = projection_configs.(config) in
  let r, key, metrics = solved ~budget p flavor heuristic in
  check_projections "solved" r.solution;
  match Snapshot.decode ~program:p (Snapshot.encode (snapshot_of p r key metrics)) with
  | Error e -> QCheck2.Test.fail_reportf "decode failed: %s" (Snapshot.error_to_string e)
  | Ok got ->
    check_projections "decoded" got.solution;
    true

(* ---------- QCheck: corruption and truncation ---------- *)

(* One reference snapshot, byte-level mutations against it. *)
let reference_bytes =
  lazy
    (let p = Lazy.force boxes in
     let r, key, metrics = solved p (Flavors.Object_sens { depth = 2; heap = 1 }) None in
     Snapshot.encode (snapshot_of p r key metrics))

let gen_mutation =
  QCheck2.Gen.(
    let* pos = int_range 0 (String.length (Lazy.force reference_bytes) - 1) in
    let* mask = int_range 1 255 in
    return (pos, mask))

let prop_corruption_fails_cleanly (pos, mask) =
  let bytes = Bytes.of_string (Lazy.force reference_bytes) in
  Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor mask));
  let p = Lazy.force boxes in
  match Snapshot.decode ~program:p (Bytes.to_string bytes) with
  | Error _ -> true
  | Ok _ -> QCheck2.Test.fail_reportf "byte %d ^ 0x%02x accepted" pos mask
  | exception e ->
    QCheck2.Test.fail_reportf "byte %d ^ 0x%02x raised %s" pos mask (Printexc.to_string e)

let gen_truncation =
  QCheck2.Gen.(int_range 0 (String.length (Lazy.force reference_bytes) - 1))

let prop_truncation_fails_cleanly n =
  let p = Lazy.force boxes in
  match Snapshot.decode ~program:p (String.sub (Lazy.force reference_bytes) 0 n) with
  | Error _ -> true
  | Ok _ -> QCheck2.Test.fail_reportf "prefix of %d bytes accepted" n
  | exception e -> QCheck2.Test.fail_reportf "prefix of %d bytes raised %s" n (Printexc.to_string e)

(* [inspect] must be exactly as robust. *)
let prop_corrupt_inspect (pos, mask) =
  let bytes = Bytes.of_string (Lazy.force reference_bytes) in
  Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor mask));
  match Snapshot.inspect (Bytes.to_string bytes) with
  | Error _ | Ok _ -> true
  | exception e ->
    QCheck2.Test.fail_reportf "inspect: byte %d ^ 0x%02x raised %s" pos mask
      (Printexc.to_string e)

(* The same, past the checksum: the payload is changed and the checksum
   recomputed, so only the payload decoder stands between the bytes and a
   solution. *)
let split_frame bytes =
  let r = R.of_string ~pos:4 bytes in
  let version = R.uint r in
  let plen = R.uint r in
  (version, String.sub bytes (String.length bytes - plen) plen)

let reframe version payload =
  let w = W.create () in
  W.raw w "IPSN";
  W.uint w version;
  W.uint w (String.length payload);
  W.raw w (Digest.string payload);
  W.raw w payload;
  W.contents w

let decode_payload payload =
  let version, _ = split_frame (Lazy.force reference_bytes) in
  Snapshot.decode ~program:(Lazy.force boxes) (reframe version payload)

let prop_payload_corruption_typed (pos, mask) =
  let _, payload = split_frame (Lazy.force reference_bytes) in
  let pos = pos mod String.length payload in
  let b = Bytes.of_string payload in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor mask));
  match decode_payload (Bytes.to_string b) with
  | Ok _ | Error _ -> true
  | exception e ->
    QCheck2.Test.fail_reportf "payload byte %d ^ 0x%02x raised %s" pos mask
      (Printexc.to_string e)

let prop_payload_truncation_typed n =
  let _, payload = split_frame (Lazy.force reference_bytes) in
  match decode_payload (String.sub payload 0 (n mod String.length payload)) with
  | Error (Snapshot.Malformed _ | Snapshot.Truncated) -> true
  | Error e -> QCheck2.Test.fail_reportf "payload prefix %d: %s" n (Snapshot.error_to_string e)
  | Ok _ -> QCheck2.Test.fail_reportf "payload prefix %d accepted" n
  | exception e ->
    QCheck2.Test.fail_reportf "payload prefix %d raised %s" n (Printexc.to_string e)

(* Offsets into the reference payload: its first context element, and the
   first element of its first non-empty points-to set. *)
let payload_offsets payload =
  let r = R.of_string payload in
  let at () = String.length payload - R.remaining r in
  ignore (R.string r);
  ignore (R.string r);
  ignore (R.string r);
  ignore (R.float r);
  let n_ctxs = R.uint r in
  let ctx_elem = ref None in
  for _ = 1 to n_ctxs - 1 do
    let len = R.uint r in
    for _ = 1 to len do
      if !ctx_elem = None then ctx_elem := Some (at ());
      ignore (R.uint r)
    done
  done;
  for _ = 1 to 4 do
    let n = R.uint r in
    for _ = 1 to 2 * n do
      ignore (R.uint r)
    done
  done;
  let set_elem = ref None in
  for _ = 1 to R.uint r do
    if R.bool r then begin
      let n = R.uint r in
      for _ = 1 to n do
        if !set_elem = None then set_elem := Some (at ());
        ignore (R.uint r)
      done
    end
  done;
  (Option.get !ctx_elem, Option.get !set_elem)

(* A -1 spliced over a one-byte varint, checksum recomputed. *)
let test_negative_in_payload () =
  let _, payload = split_frame (Lazy.force reference_bytes) in
  let ctx_elem, set_elem = payload_offsets payload in
  List.iter
    (fun (what, pos) ->
      check Alcotest.bool (what ^ " is one byte") true (Char.code payload.[pos] < 0x80);
      let spliced =
        String.sub payload 0 pos ^ negative_varint
        ^ String.sub payload (pos + 1) (String.length payload - pos - 1)
      in
      match decode_payload spliced with
      | Error (Snapshot.Malformed _) -> ()
      | Error e -> Alcotest.failf "%s: %s" what (Snapshot.error_to_string e)
      | Ok _ -> Alcotest.failf "%s: a -1 decoded" what)
    [ ("context element", ctx_elem); ("set element", set_elem) ]

(* ---------- golden bytes ---------- *)

(* Pinned MD5s of whole snapshots (with [seconds] zeroed, the one field a
   rerun changes) and of their configuration keys. The round trips above
   only prove that one build reads back what it wrote; these prove that
   the bytes a build writes, and so every cache entry's address, do not
   drift between builds. A deliberate format change bumps
   [Snapshot.version] and re-pins them. *)

let bloat =
  lazy (Ipa_synthetic.Dacapo.build ~scale:0.05 (Option.get (Ipa_synthetic.Dacapo.find "bloat")))

(* name, program, flavor, heuristic, budget, snapshot MD5, key *)
let golden_cases =
  [
    ( "boxes insens", boxes, Flavors.Insensitive, None, 0,
      "d4af4a40dfd00afba3e765bbb6f63e1c",
      "42dbe5e570b63eb249b83de50b5e990e" );
    ( "boxes 2objH", boxes, obj2, None, 0,
      "42833a6f1565f33d06caf1219cc9e76b",
      "f7550db589fb185c4478ba7e59f54bd3" );
    ( "boxes 2callH-IntroB", boxes, call2, Some Heuristics.default_b, 0,
      "f75456a0559709490d3c7d99923cbca8",
      "2be1c8f64dd7dd0953b74b32475ef3a8" );
    ( "boxes 2objH budget 5", boxes, obj2, None, 5,
      "eb2228c99314c7529cf4995caea2c62e",
      "b62b26fe1905751295198f5225e09bff" );
    ( "bloat insens", bloat, Flavors.Insensitive, None, 0,
      "68b2c05f864eff41370deec49c71777f",
      "50091f6ab8b36da8a69e47aeb65e64b7" );
    ( "bloat 2objH", bloat, obj2, None, 0,
      "c7f3a62c716d9672c53eab2f45b3c4c9",
      "004a3fb9b8507f8006117dc8c61db7ec" );
    ( "bloat 2callH-IntroB", bloat, call2, Some Heuristics.default_b, 0,
      "d4365fe5ab7aa7c6935bbcbb74d3aad4",
      "ff4514f40f29b1379db5bc65ce430423" );
    ( "bloat 2callH-IntroB budget 100000",
      bloat,
      call2,
      Some Heuristics.default_b,
      100_000,
      "e06205192a7363c96182f2ee645e3073",
      "bca8500112cf6026f991268b6ce00723" );
  ]

(* Two [pts] slots holding the very same set object: what a collapsed copy
   cycle leaves behind after materialization (and, since equal contents
   are one object, any two slots with equal sets). *)
module Phys_tbl = Hashtbl.Make (struct
  type t = Int_set.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let shares_a_set (s : Ipa_core.Solution.t) =
  let seen = Phys_tbl.create 64 in
  let shared = ref false in
  Ipa_support.Dynarr.iter
    (function
      | None -> ()
      | Some set -> if Phys_tbl.mem seen set then shared := true else Phys_tbl.add seen set ())
    s.pts;
  !shared

let golden_case (name, p, flavor, heuristic, budget, want_snapshot, want_key) =
  Alcotest.test_case name `Quick (fun () ->
      let p = Lazy.force p in
      let r, key, metrics = solved ~budget p flavor heuristic in
      let snap = { (snapshot_of p r key metrics) with seconds = 0.0 } in
      check Alcotest.string "config key" want_key key;
      check Alcotest.string "snapshot bytes" want_snapshot
        (Digest.to_hex (Digest.string (Snapshot.encode snap)));
      if budget > 0 then check Alcotest.bool "budget exceeded" true r.timed_out)

(* Whether slots with equal contents hold one set object, and the number
   of filled slots and of distinct contents. *)
let content_sharing (s : Ipa_core.Solution.t) =
  let by_content = Hashtbl.create 64 in
  let one = ref true and slots = ref 0 in
  Ipa_support.Dynarr.iter
    (function
      | None -> ()
      | Some set -> (
        incr slots;
        let elems = Int_set.to_sorted_list set in
        match Hashtbl.find_opt by_content elems with
        | Some first -> if first != set then one := false
        | None -> Hashtbl.add by_content elems set))
    s.pts;
  (!one, !slots, Hashtbl.length by_content)

let test_golden_sharing () =
  (* The bloat 2callH-IntroB solve collapses copy cycles, so its solution
     holds sets shared between slots: the golden bytes above cover them. *)
  let r, _, _ = solved (Lazy.force bloat) call2 (Some Heuristics.default_b) in
  check Alcotest.bool "cycles collapsed" true (r.solution.counters.nodes_merged > 0);
  check Alcotest.bool "two slots share one set" true (shares_a_set r.solution);
  (* Beyond merged classes, equal contents are one object, after
     materialize and after decode: in these two solves, and in 2objH's,
     whose slots hold far fewer contents than there are of them. *)
  List.iter
    (fun (name, flavor, heuristic) ->
      let p = Lazy.force bloat in
      let r, key, metrics = solved p flavor heuristic in
      let one, slots, contents = content_sharing r.solution in
      check Alcotest.bool (name ^ ": one object per content, solved") true one;
      if flavor = obj2 then
        check Alcotest.bool (name ^ ": slots share contents") true (2 * contents < slots);
      match
        Snapshot.decode ~program:p ~expect_key:key
          (Snapshot.encode (snapshot_of p r key metrics))
      with
      | Error e -> Alcotest.failf "%s: decode: %s" name (Snapshot.error_to_string e)
      | Ok got ->
        check
          Alcotest.(triple bool int int)
          (name ^ ": one object per content, decoded") (true, slots, contents)
          (content_sharing got.solution))
    [
      ("2callH-IntroB", call2, Some Heuristics.default_b);
      ("2objH", obj2, None);
    ]

(* ---------- framing errors ---------- *)

let test_version_mismatch () =
  (* The version varint is the byte right after the 4-byte magic and lives
     outside the checksum: a format bump reports itself as such, both for
     bytes an older build wrote (v4 still carried the sharded-solve and
     summary counters) and for a future format. *)
  let reference = Lazy.force reference_bytes in
  check Alcotest.char "layout: version byte" '\005' reference.[4];
  List.iter
    (fun found ->
      let bytes = Bytes.of_string reference in
      Bytes.set bytes 4 (Char.chr found);
      match Snapshot.decode ~program:(Lazy.force boxes) (Bytes.to_string bytes) with
      | Error (Snapshot.Version_mismatch { found = f; expected = 5 }) when f = found -> ()
      | Error e ->
        Alcotest.failf "v%d: expected Version_mismatch: %s" found (Snapshot.error_to_string e)
      | Ok _ -> Alcotest.failf "v%d bytes accepted" found)
    [ 4; 6 ]

let test_framing_errors () =
  let bytes = Lazy.force reference_bytes in
  let p = Lazy.force boxes in
  let expect name want got =
    match got with
    | Error e when e = want -> ()
    | Error e -> Alcotest.failf "%s: wrong error: %s" name (Snapshot.error_to_string e)
    | Ok _ -> Alcotest.failf "%s: accepted" name
  in
  expect "empty" Snapshot.Truncated (Snapshot.decode ~program:p "");
  expect "bad magic" Snapshot.Bad_magic (Snapshot.decode ~program:p "garbage data");
  expect "trailing bytes" (Snapshot.Malformed "trailing bytes after payload")
    (Snapshot.decode ~program:p (bytes ^ "x"));
  (* a different program of the same shape *)
  (match Snapshot.decode ~program:(T.random_program 7) bytes with
  | Error (Snapshot.Program_mismatch _) -> ()
  | Error e -> Alcotest.failf "expected Program_mismatch: %s" (Snapshot.error_to_string e)
  | Ok _ -> Alcotest.fail "wrong program accepted");
  (* the right program under the wrong key *)
  match Snapshot.decode ~program:p ~expect_key:(String.make 32 '0') bytes with
  | Error (Snapshot.Key_mismatch _) -> ()
  | Error e -> Alcotest.failf "expected Key_mismatch: %s" (Snapshot.error_to_string e)
  | Ok _ -> Alcotest.fail "wrong key accepted"

let test_inspect () =
  let p = Lazy.force boxes in
  let r, key, _ = solved p Flavors.Insensitive None in
  let snap = snapshot_of p r key None in
  match Snapshot.inspect (Snapshot.encode snap) with
  | Error e -> Alcotest.failf "inspect failed: %s" (Snapshot.error_to_string e)
  | Ok info ->
    check Alcotest.string "key" key info.info_key;
    check Alcotest.string "digest" (Snapshot.digest_program p) info.info_program_digest;
    check Alcotest.string "label" "insens" info.info_label;
    check Alcotest.bool "seconds" true (info.info_seconds = r.seconds)

(* ---------- keys and digests ---------- *)

let test_config_key_discriminates () =
  let p = Lazy.force boxes in
  let program_digest = Snapshot.digest_program p in
  let key = Snapshot.config_key ~program_digest in
  let base = Solver.plain p (Flavors.strategy p Flavors.Insensitive) in
  check Alcotest.string "deterministic" (key base) (key base);
  let skip = Int_set.create () in
  ignore (Int_set.add skip 3);
  let variants =
    [
      ("budget", { base with budget = 5 });
      ("field-based", { base with field_sensitive = false });
      ( "refined strategy",
        { base with refined_strategy = Flavors.strategy p (Flavors.Object_sens { depth = 2; heap = 1 }) } );
      ( "refine sets",
        { base with refine = Ipa_core.Refine.All_except { skip_objects = skip; skip_sites = Int_set.create () } } );
    ]
  in
  List.iter
    (fun (name, c) ->
      if key c = key base then Alcotest.failf "%s does not change the key" name)
    variants;
  let other_digest = Snapshot.digest_program (T.random_program 3) in
  if Snapshot.config_key ~program_digest:other_digest base = key base then
    Alcotest.fail "program digest does not change the key"

let test_program_digest () =
  let p = Lazy.force boxes in
  check Alcotest.string "deterministic" (Snapshot.digest_program p) (Snapshot.digest_program p);
  check Alcotest.bool "reparse stable" true
    (Snapshot.digest_program (T.parse_exn T.boxes_src) = Snapshot.digest_program p);
  check Alcotest.bool "discriminates" true
    (Snapshot.digest_program (T.random_program 1) <> Snapshot.digest_program (T.random_program 2))

let () =
  Alcotest.run "snapshot"
    [
      ( "codec",
        [
          Alcotest.test_case "uint boundaries" `Quick test_codec_uint;
          Alcotest.test_case "zigzag extremes" `Quick test_codec_int;
          Alcotest.test_case "float bit patterns" `Quick test_codec_float;
          Alcotest.test_case "strings and scalars" `Quick test_codec_string;
          Alcotest.test_case "arrays, sets, options" `Quick test_codec_containers;
          Alcotest.test_case "corrupt inputs raise" `Quick test_codec_corrupt;
          Alcotest.test_case "set decoder edges" `Quick test_codec_set_edges;
          Alcotest.test_case "set decoder memo" `Quick test_codec_set_memo;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "boxes, all stored forms" `Quick test_roundtrip_boxes;
          Alcotest.test_case "budget-exceeded solution" `Quick test_roundtrip_budget_exceeded;
          qtest ~count:25 "random solved programs" gen_case prop_roundtrip;
          qtest ~count:40 "projections equal the per-tuple folds" gen_projection_case
            prop_projections;
        ] );
      ( "golden",
        List.map golden_case golden_cases
        @ [ Alcotest.test_case "shared sets" `Quick test_golden_sharing ] );
      ( "robustness",
        [
          qtest ~count:200 "single-byte corruption" gen_mutation prop_corruption_fails_cleanly;
          qtest ~count:100 "truncation" gen_truncation prop_truncation_fails_cleanly;
          qtest ~count:100 "corrupt inspect" gen_mutation prop_corrupt_inspect;
          qtest ~count:300 "payload corruption past the checksum" gen_mutation
            prop_payload_corruption_typed;
          qtest ~count:100 "payload truncation past the checksum" gen_truncation
            prop_payload_truncation_typed;
          Alcotest.test_case "negative varints in the payload" `Quick test_negative_in_payload;
          Alcotest.test_case "version mismatch" `Quick test_version_mismatch;
          Alcotest.test_case "framing errors" `Quick test_framing_errors;
          Alcotest.test_case "inspect" `Quick test_inspect;
        ] );
      ( "keys",
        [
          Alcotest.test_case "config key discriminates" `Quick test_config_key_discriminates;
          Alcotest.test_case "program digest" `Quick test_program_digest;
        ] );
    ]

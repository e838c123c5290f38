(* Unit and property tests for the support data structures. *)

module Dynarr = Ipa_support.Dynarr
module Int_set = Ipa_support.Int_set
module Int_sort = Ipa_support.Int_sort
module Interner = Ipa_support.Interner
module Pair_tbl = Ipa_support.Pair_tbl
module Splitmix = Ipa_support.Splitmix
module Ascii_table = Ipa_support.Ascii_table
module Codec = Ipa_support.Codec

let check = Alcotest.check
let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ---------- Dynarr ---------- *)

let test_dynarr_basic () =
  let d = Dynarr.create ~dummy:0 () in
  check Alcotest.bool "empty" true (Dynarr.is_empty d);
  check Alcotest.int "len 0" 0 (Dynarr.length d);
  Dynarr.push d 10;
  Dynarr.push d 20;
  check Alcotest.int "len 2" 2 (Dynarr.length d);
  check Alcotest.int "get 0" 10 (Dynarr.get d 0);
  check Alcotest.int "get 1" 20 (Dynarr.get d 1);
  Dynarr.set d 0 99;
  check Alcotest.int "set" 99 (Dynarr.get d 0);
  check Alcotest.int "push_get_index" 2 (Dynarr.push_get_index d 30)

let test_dynarr_bounds () =
  let d = Dynarr.of_list ~dummy:0 [ 1; 2; 3 ] in
  Alcotest.check_raises "get oob" (Invalid_argument "Dynarr.get: index 3 out of bounds [0,3)")
    (fun () -> ignore (Dynarr.get d 3));
  Alcotest.check_raises "get neg" (Invalid_argument "Dynarr.get: index -1 out of bounds [0,3)")
    (fun () -> ignore (Dynarr.get d (-1)));
  Alcotest.check_raises "set oob" (Invalid_argument "Dynarr.set: index 5 out of bounds [0,3)")
    (fun () -> Dynarr.set d 5 0)

let test_dynarr_growth () =
  let d = Dynarr.create ~capacity:1 ~dummy:(-1) () in
  for i = 0 to 9999 do
    Dynarr.push d i
  done;
  check Alcotest.int "len" 10000 (Dynarr.length d);
  let ok = ref true in
  Dynarr.iteri (fun i x -> if i <> x then ok := false) d;
  check Alcotest.bool "contents" true !ok;
  check Alcotest.int "fold" (9999 * 10000 / 2) (Dynarr.fold_left ( + ) 0 d);
  Dynarr.clear d;
  check Alcotest.int "cleared" 0 (Dynarr.length d)

let test_dynarr_conversions () =
  let d = Dynarr.of_list ~dummy:"" [ "a"; "b"; "c" ] in
  check (Alcotest.list Alcotest.string) "to_list" [ "a"; "b"; "c" ] (Dynarr.to_list d);
  check (Alcotest.array Alcotest.string) "to_array" [| "a"; "b"; "c" |] (Dynarr.to_array d);
  check Alcotest.bool "mem yes" true (List.mem "b" (Dynarr.to_list d));
  check Alcotest.bool "mem no" false (List.mem "z" (Dynarr.to_list d))

let test_dynarr_prefix () =
  let d = Dynarr.of_list ~dummy:0 [ 1; 2; 3; 4; 5 ] in
  let seen = ref [] in
  Dynarr.iter_prefix (fun x -> seen := x :: !seen) d ~n:3;
  check (Alcotest.list Alcotest.int) "prefix order" [ 1; 2; 3 ] (List.rev !seen);
  Dynarr.drop_prefix d 3;
  check (Alcotest.list Alcotest.int) "rest shifted" [ 4; 5 ] (Dynarr.to_list d);
  Dynarr.drop_prefix d 2;
  check Alcotest.int "emptied" 0 (Dynarr.length d);
  Alcotest.check_raises "iter oob" (Invalid_argument "Dynarr.iter_prefix: prefix 1 out of bounds [0,0]")
    (fun () -> Dynarr.iter_prefix ignore d ~n:1);
  Alcotest.check_raises "drop oob" (Invalid_argument "Dynarr.drop_prefix: prefix 3 out of bounds [0,0]")
    (fun () -> Dynarr.drop_prefix d 3)

let test_dynarr_prefix_push_during_iter () =
  (* The solver pushes to a node's pending batch while iterating a snapshot
     prefix of the same batch; the prefix must stay stable. *)
  let d = Dynarr.of_list ~dummy:0 [ 10; 20; 30 ] in
  let seen = ref [] in
  Dynarr.iter_prefix
    (fun x ->
      seen := x :: !seen;
      Dynarr.push d (x + 1))
    d ~n:3;
  check (Alcotest.list Alcotest.int) "snapshot prefix" [ 10; 20; 30 ] (List.rev !seen);
  check (Alcotest.list Alcotest.int) "pushes appended" [ 10; 20; 30; 11; 21; 31 ]
    (Dynarr.to_list d);
  Dynarr.drop_prefix d 3;
  check (Alcotest.list Alcotest.int) "batch consumed" [ 11; 21; 31 ] (Dynarr.to_list d)

(* ---------- Int_set ---------- *)

let int_set_of xs =
  let s = Int_set.create () in
  List.iter (fun x -> ignore (Int_set.add s x)) xs;
  s

let test_int_set_basic () =
  let s = Int_set.create () in
  check Alcotest.bool "add new" true (Int_set.add s 5);
  check Alcotest.bool "add dup" false (Int_set.add s 5);
  check Alcotest.bool "mem" true (Int_set.mem s 5);
  check Alcotest.bool "not mem" false (Int_set.mem s 6);
  check Alcotest.int "cardinal" 1 (Int_set.cardinal s);
  check Alcotest.bool "mem zero absent" false (Int_set.mem s 0);
  ignore (Int_set.add s 0);
  check Alcotest.bool "mem zero present" true (Int_set.mem s 0);
  Alcotest.check_raises "negative" (Invalid_argument "Int_set.add: negative element") (fun () ->
      ignore (Int_set.add s (-1)))

let test_int_set_resize () =
  let s = Int_set.create ~capacity:2 () in
  for i = 0 to 99_999 do
    ignore (Int_set.add s (i * 3))
  done;
  check Alcotest.int "cardinal" 100_000 (Int_set.cardinal s);
  check Alcotest.bool "mem mid" true (Int_set.mem s 149_999 || Int_set.mem s 150_000);
  check Alcotest.bool "mem 3k" true (Int_set.mem s 299_997);
  check Alcotest.bool "non-multiple" false (Int_set.mem s 299_998)

let test_int_set_ops () =
  let a = int_set_of [ 1; 2; 3 ] in
  let b = int_set_of [ 1; 2; 3; 4 ] in
  check Alcotest.bool "subset" true (Int_set.subset a b);
  check Alcotest.bool "not subset" false (Int_set.subset b a);
  check Alcotest.bool "not equal" false (Int_set.equal a b);
  let c = Int_set.copy a in
  check Alcotest.bool "copy equal" true (Int_set.equal a c);
  ignore (Int_set.add c 9);
  check Alcotest.bool "copy independent" false (Int_set.mem a 9);
  check (Alcotest.list Alcotest.int) "sorted" [ 1; 2; 3 ] (Int_set.to_sorted_list a);
  Int_set.clear c;
  check Alcotest.int "clear" 0 (Int_set.cardinal c);
  check Alcotest.int "fold" 6 (Int_set.fold ( + ) a 0);
  check Alcotest.bool "exists" true (Int_set.exists (fun x -> x = 2) a);
  check Alcotest.bool "exists no" false (Int_set.exists (fun x -> x > 5) a)

let test_int_set_promotion () =
  let s = Int_set.create () in
  check Alcotest.bool "starts small" true (Int_set.is_small s);
  for i = 1 to 8 do
    ignore (Int_set.add s (i * 10))
  done;
  check Alcotest.bool "8 elements still small" true (Int_set.is_small s);
  (* duplicates at the boundary must not promote *)
  check Alcotest.bool "dup add" false (Int_set.add s 40);
  check Alcotest.bool "dup keeps small" true (Int_set.is_small s);
  let before = Int_set.promotion_count () in
  ignore (Int_set.add s 90);
  check Alcotest.bool "9th promotes" false (Int_set.is_small s);
  check Alcotest.int "promotion counted" (before + 1) (Int_set.promotion_count ());
  check Alcotest.int "cardinal across boundary" 9 (Int_set.cardinal s);
  for i = 1 to 9 do
    if not (Int_set.mem s (i * 10)) then Alcotest.failf "lost %d in promotion" (i * 10)
  done;
  check (Alcotest.list Alcotest.int) "sorted across reps"
    [ 10; 20; 30; 40; 50; 60; 70; 80; 90 ]
    (Int_set.to_sorted_list s);
  check Alcotest.int "fold across reps" 450 (Int_set.fold ( + ) s 0)

let test_int_set_small_rep () =
  let s = int_set_of [ 5; 1; 3 ] in
  check Alcotest.bool "three elements small" true (Int_set.is_small s);
  check (Alcotest.list Alcotest.int) "kept sorted" [ 1; 3; 5 ] (Int_set.to_sorted_list s);
  let c = Int_set.copy s in
  check Alcotest.bool "copy stays small" true (Int_set.is_small c);
  ignore (Int_set.add c 2);
  check Alcotest.bool "copy independent" false (Int_set.mem s 2);
  Int_set.clear c;
  check Alcotest.int "clear small" 0 (Int_set.cardinal c);
  check Alcotest.bool "cleared mem" false (Int_set.mem c 1);
  (* explicit large capacity starts in the hash representation *)
  let big = Int_set.create ~capacity:100 () in
  check Alcotest.bool "large capacity is hash" false (Int_set.is_small big);
  let before = Int_set.promotion_count () in
  for i = 0 to 50 do
    ignore (Int_set.add big i)
  done;
  check Alcotest.int "hash rep never promotes" before (Int_set.promotion_count ())

let prop_int_set_small_vs_stdlib =
  (* Dense small values exercise the sorted-array rep and the boundary. *)
  let module S = Set.Make (Int) in
  qtest "adaptive rep matches stdlib Set near the boundary"
    QCheck2.Gen.(list_size (int_bound 20) (int_bound 12))
    (fun xs ->
      let s = Int_set.create () in
      List.iter (fun x -> ignore (Int_set.add s x)) xs;
      let reference = S.of_list xs in
      Int_set.cardinal s = S.cardinal reference
      && S.for_all (Int_set.mem s) reference
      && Int_set.to_sorted_list s = S.elements reference)

let prop_int_set_vs_stdlib =
  let module S = Set.Make (Int) in
  qtest "int_set matches stdlib Set"
    QCheck2.Gen.(list (int_bound 500))
    (fun xs ->
      let s = Int_set.create () in
      let reference =
        List.fold_left
          (fun acc x ->
            let added = Int_set.add s x in
            if added = S.mem x acc then QCheck2.Test.fail_report "add/mem disagree";
            S.add x acc)
          S.empty xs
      in
      Int_set.cardinal s = S.cardinal reference
      && S.for_all (Int_set.mem s) reference
      && List.sort_uniq compare xs = Int_set.to_sorted_list s)

(* Element lists aimed at each branch of [Int_set.to_sorted_array]: the
   small representation (at most 8 elements); hashed and dense (largest
   element below 16 × length, so below 32 × cardinal); hashed, sparse and
   at most 32 elements (insertion sort); hashed and sparse past 32
   (radix sort). Sparse elements mix 0, bytes, values past 2^16 and 2^24
   (two and three radix digits) and values up to 2^40. *)
let gen_sort_case =
  QCheck2.Gen.(
    let wide =
      oneof
        [
          return 0;
          int_bound 255;
          int_range (1 lsl 16) ((1 lsl 17) - 1);
          int_range (1 lsl 24) ((1 lsl 25) - 1);
          int_bound (1 lsl 40);
        ]
    in
    let* shape = int_bound 3 in
    match shape with
    | 0 -> list_size (int_bound 8) wide
    | 1 ->
      let* n = int_range 9 400 in
      list_repeat n (int_bound ((16 * n) - 1))
    | 2 ->
      let* n = int_range 9 32 in
      list_repeat n wide
    | _ ->
      let* n = int_range 33 400 in
      let+ xs = list_repeat n wide in
      (1 lsl 40) :: xs)

let prop_to_sorted_array =
  qtest "to_sorted_array = sort_uniq, every branch" gen_sort_case (fun xs ->
      Array.to_list (Int_set.to_sorted_array (int_set_of xs)) = List.sort_uniq compare xs)

(* [of_sorted_array] fixes a set's slot layout: the same elements give the
   same iteration order, however the elements were gathered. *)
let prop_of_sorted_array =
  qtest "of_sorted_array: elements and layout" gen_sort_case (fun xs ->
      let sorted = Array.of_list (List.sort_uniq compare xs) in
      let a = Int_set.of_sorted_array sorted in
      let b = Int_set.of_sorted_array (Int_set.to_sorted_array (int_set_of (List.rev xs))) in
      let order s = Int_set.fold (fun x acc -> x :: acc) s [] in
      Int_set.to_sorted_array a = sorted && order a = order b)

let test_of_sorted_array_rejects () =
  let bad = Invalid_argument "Int_set.of_sorted_array: not strictly ascending and non-negative" in
  Alcotest.check_raises "descending" bad (fun () -> ignore (Int_set.of_sorted_array [| 2; 1 |]));
  Alcotest.check_raises "duplicate" bad (fun () -> ignore (Int_set.of_sorted_array [| 1; 1 |]));
  Alcotest.check_raises "negative" bad (fun () -> ignore (Int_set.of_sorted_array [| -1; 1 |]))

(* ---------- Int_sort ---------- *)

(* Keys for the permutation sort: few distinct values so that duplicates
   are common (stability shows), drawn from 0, bytes, values at and past
   2^31 (a packed pair's first component) and values near 2^61 (the top
   radix digits); lengths on both sides of the insertion-sort cutoff. *)
let gen_keys =
  QCheck2.Gen.(
    let* pool =
      list_size (int_range 1 12)
        (oneof
           [
             return 0;
             int_bound 255;
             int_range (1 lsl 31) ((1 lsl 32) + 5);
             int_range ((1 lsl 61) - 300) ((1 lsl 61) + 300);
             return max_int;
           ])
    in
    let pool = Array.of_list pool in
    let* n = int_bound 300 in
    let+ picks = list_repeat n (int_bound (Array.length pool - 1)) in
    Array.of_list (List.map (fun i -> pool.(i)) picks))

let stable_order keys =
  let idx = Array.init (Array.length keys) Fun.id in
  Array.stable_sort (fun a b -> compare keys.(a) keys.(b)) idx;
  idx

let prop_sort_perm =
  qtest "sort_perm = Array.stable_sort" gen_keys (fun keys ->
      let before = Array.copy keys in
      Int_sort.sort_perm keys (Array.init (Array.length keys) Fun.id) = stable_order keys
      && keys = before)

(* Two passes, the less significant key first, sort lexicographically:
   how the solver orders call-graph edges. *)
let prop_sort_perm_two_keys =
  qtest "sort_perm twice = sort on (hi, lo)"
    QCheck2.Gen.(pair gen_keys (int_bound 1_000_000))
    (fun (hi, salt) ->
      let n = Array.length hi in
      let lo = Array.init n (fun i -> (i * 7919 + salt) mod 13) in
      let idx = Array.init n Fun.id in
      let expected = Array.copy idx in
      Array.stable_sort (fun a b -> compare (hi.(a), lo.(a)) (hi.(b), lo.(b))) expected;
      Int_sort.sort_perm hi (Int_sort.sort_perm lo idx) = expected)

let prop_sort_distinct =
  qtest "sort_distinct = sort_uniq, every branch" gen_sort_case (fun xs ->
      let xs = List.sort_uniq compare xs in
      let shuffled = Array.of_list (List.rev xs) in
      Array.to_list (Int_sort.sort_distinct shuffled) = xs)

let test_int_sort_negative () =
  Alcotest.check_raises "sort_perm" (Invalid_argument "Int_sort.sort_perm: negative key")
    (fun () -> ignore (Int_sort.sort_perm [| 3; -1 |] [| 0; 1 |]));
  Alcotest.check_raises "sort_distinct" (Invalid_argument "Int_sort.sort_distinct: negative key")
    (fun () -> ignore (Int_sort.sort_distinct [| 3; -1 |]))

(* The canonical set encoding as it was first written: cardinal, first
   element absolute, then gaps, over a sorted list. *)
let reference_int_set_bytes xs =
  let w = Codec.Writer.create () in
  let elems = List.sort_uniq compare xs in
  Codec.Writer.uint w (List.length elems);
  ignore
    (List.fold_left
       (fun prev e ->
         (match prev with
         | None -> Codec.Writer.uint w e
         | Some p -> Codec.Writer.uint w (e - p));
         Some e)
       None elems);
  Codec.Writer.contents w

let prop_codec_int_set =
  qtest "Writer.int_set bytes = list-based reference" gen_sort_case (fun xs ->
      let w = Codec.Writer.create () in
      Codec.Writer.int_set w (int_set_of xs);
      Codec.Writer.contents w = reference_int_set_bytes xs)

(* ---------- Interner ---------- *)

let test_interner () =
  let t = Interner.create ~dummy:"" () in
  let a = Interner.intern t "alpha" in
  let b = Interner.intern t "beta" in
  check Alcotest.int "first id" 0 a;
  check Alcotest.int "second id" 1 b;
  check Alcotest.int "dedup" a (Interner.intern t "alpha");
  check Alcotest.string "value" "beta" (Interner.value t b);
  check Alcotest.int "count" 2 (Interner.count t);
  check (Alcotest.option Alcotest.int) "find hit" (Some 0) (Interner.find_opt t "alpha");
  check (Alcotest.option Alcotest.int) "find miss" None (Interner.find_opt t "gamma");
  Alcotest.check_raises "bad id" (Invalid_argument "Interner.value: unknown id 7") (fun () ->
      ignore (Interner.value t 7))

let prop_interner_roundtrip =
  qtest "interner id/value roundtrip"
    QCheck2.Gen.(list (string_size (int_bound 6)))
    (fun keys ->
      let t = Interner.create ~dummy:"" () in
      List.for_all (fun k -> Interner.value t (Interner.intern t k) = k) keys)

(* ---------- Pair_tbl ---------- *)

let test_pair_tbl () =
  let t = Pair_tbl.create () in
  let a = Pair_tbl.intern t 3 4 in
  check Alcotest.int "dedup" a (Pair_tbl.intern t 3 4);
  check Alcotest.bool "distinct" true (a <> Pair_tbl.intern t 4 3);
  check Alcotest.int "fst" 3 (Pair_tbl.fst t a);
  check Alcotest.int "snd" 4 (Pair_tbl.snd t a);
  check Alcotest.int "count" 2 (Pair_tbl.count t);
  check (Alcotest.option Alcotest.int) "find" (Some a) (Pair_tbl.find_opt t 3 4);
  check (Alcotest.option Alcotest.int) "find miss" None (Pair_tbl.find_opt t 9 9);
  Alcotest.check_raises "range" (Invalid_argument "Pair_tbl: component out of range (-1, 0)")
    (fun () -> ignore (Pair_tbl.intern t (-1) 0))

let prop_pair_tbl_roundtrip =
  qtest "pair_tbl roundtrip"
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (a, b) ->
      let t = Pair_tbl.create () in
      let id = Pair_tbl.intern t a b in
      Pair_tbl.fst t id = a && Pair_tbl.snd t id = b)

(* [renumber] interns the mapped pairs in ascending order of their packed
   keys, which must be the order [compare] gives the tuples. Components
   reach past 2^30 and up to 2^31 - 1. *)
let prop_pair_tbl_renumber =
  let comp = QCheck2.Gen.(oneof [ int_bound 40; int_range ((1 lsl 31) - 50) ((1 lsl 31) - 1) ]) in
  qtest "renumber orders pairs as compare does"
    QCheck2.Gen.(list_size (int_bound 200) (pair comp comp))
    (fun pairs ->
      let t = Pair_tbl.create () in
      List.iter (fun (a, b) -> ignore (Pair_tbl.intern t a b)) pairs;
      (* An injective map that reverses the order of second components. *)
      let flip b = (1 lsl 31) - 1 - b in
      let t', map = Pair_tbl.renumber t ~fst:Fun.id ~snd:flip in
      let images = List.sort_uniq compare (List.map (fun (a, b) -> (a, flip b)) pairs) in
      let got =
        List.init (Pair_tbl.count t') (fun id -> (Pair_tbl.fst t' id, Pair_tbl.snd t' id))
      in
      got = images
      && List.for_all
           (fun (a, b) ->
             let id = Option.get (Pair_tbl.find_opt t a b) in
             Pair_tbl.find_opt t' a (flip b) = Some map.(id))
           pairs)

let test_pair_tbl_renumber_collision () =
  let t = Pair_tbl.create () in
  ignore (Pair_tbl.intern t 1 2);
  ignore (Pair_tbl.intern t 1 3);
  Alcotest.check_raises "two pairs, one image"
    (Invalid_argument "Pair_tbl.renumber: two pairs map to one") (fun () ->
      ignore (Pair_tbl.renumber t ~fst:Fun.id ~snd:(fun _ -> 0)))

(* ---------- Splitmix ---------- *)

let test_splitmix_determinism () =
  let seq seed = List.init 50 (fun _ -> Splitmix.int (Splitmix.create seed) 1000) in
  let r1 = Splitmix.create 42 and r2 = Splitmix.create 42 in
  let s1 = List.init 50 (fun _ -> Splitmix.int r1 1000) in
  let s2 = List.init 50 (fun _ -> Splitmix.int r2 1000) in
  check (Alcotest.list Alcotest.int) "same seed same stream" s1 s2;
  check Alcotest.bool "different seeds differ" true (seq 1 <> seq 2)

let test_splitmix_ranges () =
  let rng = Splitmix.create 7 in
  for _ = 1 to 1000 do
    let x = Splitmix.int rng 10 in
    if x < 0 || x >= 10 then Alcotest.fail "int out of range";
    let y = Splitmix.int_in rng 5 8 in
    if y < 5 || y > 8 then Alcotest.fail "int_in out of range"
  done;
  check Alcotest.bool "chance 0" false (Splitmix.chance rng 0.0);
  check Alcotest.bool "chance 1" true (Splitmix.chance rng 1.0);
  Alcotest.check_raises "bad bound" (Invalid_argument "Splitmix.int: bound must be positive")
    (fun () -> ignore (Splitmix.int rng 0));
  Alcotest.check_raises "empty range" (Invalid_argument "Splitmix.int_in: empty range") (fun () ->
      ignore (Splitmix.int_in rng 3 2));
  Alcotest.check_raises "empty choose" (Invalid_argument "Splitmix.choose: empty array")
    (fun () -> ignore (Splitmix.choose rng ([||] : int array)))

let test_splitmix_shuffle () =
  let rng = Splitmix.create 11 in
  let arr = Array.init 100 Fun.id in
  Splitmix.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "permutation" (Array.init 100 Fun.id) sorted;
  check Alcotest.bool "actually shuffled" true (arr <> Array.init 100 Fun.id)

let test_splitmix_split () =
  let rng = Splitmix.create 3 in
  let child = Splitmix.split rng in
  let a = List.init 20 (fun _ -> Splitmix.int rng 1000) in
  let b = List.init 20 (fun _ -> Splitmix.int child 1000) in
  check Alcotest.bool "split independent" true (a <> b)

(* ---------- Ascii_table ---------- *)

(* ---------- union_find ---------- *)

module Union_find = Ipa_support.Union_find

let test_union_find_basic () =
  let uf = Union_find.create () in
  check Alcotest.bool "fresh is identity" true (Union_find.is_identity uf);
  check Alcotest.int "untouched" 41 (Union_find.find uf 41);
  Union_find.union uf ~winner:2 ~loser:7;
  check Alcotest.int "loser redirected" 2 (Union_find.find uf 7);
  check Alcotest.int "winner unchanged" 2 (Union_find.find uf 2);
  check Alcotest.bool "no longer identity" false (Union_find.is_identity uf);
  Union_find.union uf ~winner:1 ~loser:2;
  check Alcotest.int "transitive" 1 (Union_find.find uf 7);
  check Alcotest.int "merged count" 2 (Union_find.merged_count uf);
  (* growth: union far beyond current storage, lower ids stay untouched *)
  Union_find.union uf ~winner:1000 ~loser:2000;
  check Alcotest.int "high loser" 1000 (Union_find.find uf 2000);
  check Alcotest.int "between untouched" 500 (Union_find.find uf 500)

let test_union_find_errors () =
  let uf = Union_find.create () in
  let expect_invalid name f =
    match f () with
    | () -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "negative find" (fun () -> ignore (Union_find.find uf (-1)));
  Union_find.union uf ~winner:0 ~loser:1;
  expect_invalid "non-root loser" (fun () -> Union_find.union uf ~winner:2 ~loser:1);
  expect_invalid "non-root winner" (fun () -> Union_find.union uf ~winner:1 ~loser:2);
  expect_invalid "self union" (fun () -> Union_find.union uf ~winner:0 ~loser:0)

let prop_union_find_vs_naive =
  qtest ~count:100 "union_find matches a naive partition"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Splitmix.create seed in
      let n = 40 in
      let uf = Union_find.create () in
      let naive = Array.init n (fun i -> i) in
      let naive_find i = naive.(i) in
      for _ = 1 to 60 do
        let a = naive_find (Splitmix.int rng n) and b = naive_find (Splitmix.int rng n) in
        if a <> b then begin
          let winner = min a b and loser = max a b in
          Union_find.union uf ~winner ~loser;
          Array.iteri (fun i r -> if r = loser then naive.(i) <- winner) naive
        end
      done;
      Array.for_all (fun i -> Union_find.find uf i = naive_find i) (Array.init n (fun i -> i)))

(* ---------- tarjan ---------- *)

module Tarjan = Ipa_support.Tarjan

(* A random digraph of up to 40 nodes: [edges.(v)] are [v]'s edge heads in
   index order, [-1] for an edge to skip; about half the nodes are roots. *)
let random_digraph seed =
  let rng = Splitmix.create seed in
  let n = Splitmix.int rng 41 in
  let edges =
    Array.init n (fun _ ->
        Array.init (Splitmix.int rng 5) (fun _ ->
            if Splitmix.chance rng 0.2 then -1 else Splitmix.int rng n))
  in
  (n, edges, Array.init n (fun _ -> Splitmix.bool rng))

(* The components in close order. *)
let tarjan_order (n, edges, roots) =
  let comps = ref [] in
  Tarjan.components ~n
    ~root:(fun v -> roots.(v))
    ~degree:(fun v -> Array.length edges.(v))
    ~succ:(fun v i -> edges.(v).(i))
    (fun comp -> comps := comp :: !comps);
  List.rev !comps

let prop_tarjan_vs_naive =
  qtest ~count:300 "components = mutual reachability, in close order"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let ((n, edges, roots) as g) = random_digraph seed in
      (* [reach.(v).(w)]: [w] is reachable from [v], reflexively. *)
      let reach =
        Array.init n (fun v ->
            let seen = Array.make n false in
            let rec go u =
              if not seen.(u) then begin
                seen.(u) <- true;
                Array.iter (fun w -> if w >= 0 then go w) edges.(u)
              end
            in
            go v;
            seen)
      in
      let visited w = List.exists (fun r -> roots.(r) && reach.(r).(w)) (List.init n Fun.id) in
      let comps = tarjan_order g in
      let pos = Array.make n (-1) in
      List.iteri
        (fun k comp ->
          List.iter
            (fun v ->
              if pos.(v) >= 0 then QCheck2.Test.fail_reportf "node %d emitted twice" v;
              pos.(v) <- k)
            comp)
        comps;
      for v = 0 to n - 1 do
        if (pos.(v) >= 0) <> visited v then
          QCheck2.Test.fail_reportf "node %d: emitted %b, reachable from a root %b" v
            (pos.(v) >= 0) (visited v);
        for w = 0 to n - 1 do
          if pos.(v) >= 0 && reach.(v).(w) then begin
            if (pos.(v) = pos.(w)) <> reach.(w).(v) then
              QCheck2.Test.fail_reportf "nodes %d and %d: same component %b, mutually reachable %b"
                v w (pos.(v) = pos.(w)) reach.(w).(v);
            if pos.(w) > pos.(v) then
              QCheck2.Test.fail_reportf "node %d reaches %d, whose component closes later" v w
          end
        done
      done;
      comps = tarjan_order g)

let test_ascii_table () =
  let out = Ascii_table.render ~header:[ "name"; "n" ] [ [ "a"; "10" ]; [ "bcd"; "5" ] ] in
  let lines = String.split_on_char '\n' out in
  check Alcotest.int "line count" 5 (List.length lines) (* header, rule, 2 rows, trailing *);
  check Alcotest.string "header" "name   n" (List.nth lines 0);
  check Alcotest.string "rule" "----  --" (List.nth lines 1);
  check Alcotest.string "row right-aligned" "a     10" (List.nth lines 2);
  check Alcotest.string "row2" "bcd    5" (List.nth lines 3)

let test_ascii_table_ragged () =
  let out = Ascii_table.render ~header:[ "x" ] [ [ "1"; "2" ]; [ "3" ] ] in
  check Alcotest.bool "pads ragged rows" true (String.length out > 0)

(* ---------- Json ---------- *)

(* A non-finite float has no JSON literal: the document must still parse,
   with [null] in its place, while finite floats keep their digits. *)
let test_json_non_finite () =
  let module Json = Ipa_support.Json in
  let doc =
    Json.Obj
      [
        ("inf", Json.Float Float.infinity);
        ("neg", Json.Float Float.neg_infinity);
        ("nan", Json.Float Float.nan);
        ("half", Json.Float 0.5);
      ]
  in
  let text = Json.to_string doc in
  check Alcotest.string "emitted" {|{"inf":null,"neg":null,"nan":null,"half":0.5}|} text;
  match Json.of_string text with
  | Error e -> Alcotest.failf "does not parse back: %s" e
  | Ok back ->
    check Alcotest.bool "non-finite read back as null" true
      (List.for_all (fun k -> Json.member k back = Some Json.Null) [ "inf"; "neg"; "nan" ]);
    check Alcotest.bool "finite kept" true (Json.member "half" back = Some (Json.Float 0.5))

(* ---------- Timer ---------- *)

let test_timer () =
  let result, elapsed = Ipa_support.Timer.time (fun () -> 21 * 2) in
  check Alcotest.int "result" 42 result;
  check Alcotest.bool "non-negative" true (elapsed >= 0.0)

let () =
  Alcotest.run "support"
    [
      ( "dynarr",
        [
          Alcotest.test_case "basic" `Quick test_dynarr_basic;
          Alcotest.test_case "bounds" `Quick test_dynarr_bounds;
          Alcotest.test_case "growth" `Quick test_dynarr_growth;
          Alcotest.test_case "conversions" `Quick test_dynarr_conversions;
          Alcotest.test_case "prefix" `Quick test_dynarr_prefix;
          Alcotest.test_case "prefix push during iter" `Quick test_dynarr_prefix_push_during_iter;
        ] );
      ( "int_set",
        [
          Alcotest.test_case "basic" `Quick test_int_set_basic;
          Alcotest.test_case "resize" `Quick test_int_set_resize;
          Alcotest.test_case "ops" `Quick test_int_set_ops;
          Alcotest.test_case "promotion" `Quick test_int_set_promotion;
          Alcotest.test_case "small rep" `Quick test_int_set_small_rep;
          prop_int_set_small_vs_stdlib;
          prop_int_set_vs_stdlib;
          prop_to_sorted_array;
          prop_of_sorted_array;
          Alcotest.test_case "of_sorted_array rejects" `Quick test_of_sorted_array_rejects;
          prop_codec_int_set;
        ] );
      ( "int_sort",
        [
          prop_sort_perm;
          prop_sort_perm_two_keys;
          prop_sort_distinct;
          Alcotest.test_case "negative keys" `Quick test_int_sort_negative;
        ] );
      ( "interner",
        [ Alcotest.test_case "basic" `Quick test_interner; prop_interner_roundtrip ] );
      ( "pair_tbl",
        [
          Alcotest.test_case "basic" `Quick test_pair_tbl;
          prop_pair_tbl_roundtrip;
          prop_pair_tbl_renumber;
          Alcotest.test_case "renumber collision" `Quick test_pair_tbl_renumber_collision;
        ] );
      ( "splitmix",
        [
          Alcotest.test_case "determinism" `Quick test_splitmix_determinism;
          Alcotest.test_case "ranges" `Quick test_splitmix_ranges;
          Alcotest.test_case "shuffle" `Quick test_splitmix_shuffle;
          Alcotest.test_case "split" `Quick test_splitmix_split;
        ] );
      ( "union_find",
        [
          Alcotest.test_case "basic" `Quick test_union_find_basic;
          Alcotest.test_case "errors" `Quick test_union_find_errors;
          prop_union_find_vs_naive;
        ] );
      ("tarjan", [ prop_tarjan_vs_naive ]);
      ( "ascii_table",
        [
          Alcotest.test_case "render" `Quick test_ascii_table;
          Alcotest.test_case "ragged" `Quick test_ascii_table_ragged;
        ] );
      ("json", [ Alcotest.test_case "non-finite floats" `Quick test_json_non_finite ]);
      ("timer", [ Alcotest.test_case "time" `Quick test_timer ]);
    ]

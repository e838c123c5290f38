(* A dense set of distinct elements is sorted by marking a byte map and
   scanning it; any other input by a radix sort, or an insertion sort up to
   [insertion_cutoff] elements. *)
let dense_factor = 32
let insertion_cutoff = 32

(* Stable LSD radix sort of [keys] on 8-bit digits, one digit per pass up
   to the highest byte of [hi] (the largest key), alternating between the
   inputs and scratch arrays. When [carry] is set, [items] is permuted
   alongside [keys]. A digit every key shares moves nothing, so its scatter
   pass is skipped. Returns whichever arrays hold the result. *)
let lsd ~carry keys items hi =
  let n = Array.length keys in
  let counts = Array.make 257 0 in
  let k_src = ref keys and k_dst = ref (Array.make n 0) in
  let v_src = ref items and v_dst = ref (if carry then Array.make n 0 else items) in
  let shift = ref 0 in
  while !shift < Sys.int_size && hi lsr !shift > 0 do
    let ks = !k_src and sh = !shift in
    Array.fill counts 0 257 0;
    for i = 0 to n - 1 do
      let b = ((ks.(i) lsr sh) land 0xff) + 1 in
      counts.(b) <- counts.(b) + 1
    done;
    if counts.(((ks.(0) lsr sh) land 0xff) + 1) < n then begin
      let kd = !k_dst and vs = !v_src and vd = !v_dst in
      for b = 1 to 255 do
        counts.(b) <- counts.(b) + counts.(b - 1)
      done;
      for i = 0 to n - 1 do
        let k = ks.(i) in
        let b = (k lsr sh) land 0xff in
        let j = counts.(b) in
        kd.(j) <- k;
        if carry then vd.(j) <- vs.(i);
        counts.(b) <- j + 1
      done;
      k_src := kd;
      k_dst := ks;
      v_src := vd;
      v_dst := vs
    end;
    shift := sh + 8
  done;
  (!k_src, !v_src)

(* Stable insertion sort of [keys], permuting [items] alongside when
   [carry] is set. *)
let insertion_sort ~carry keys items =
  for i = 1 to Array.length keys - 1 do
    let k = keys.(i) in
    let v = if carry then items.(i) else 0 in
    let j = ref (i - 1) in
    while !j >= 0 && keys.(!j) > k do
      keys.(!j + 1) <- keys.(!j);
      if carry then items.(!j + 1) <- items.(!j);
      decr j
    done;
    keys.(!j + 1) <- k;
    if carry then items.(!j + 1) <- v
  done

(* The largest key of [a], or 0 when [a] is empty; raises on a negative
   one, which would index outside the byte map and the digit counts. *)
let max_key name a =
  let hi = ref 0 in
  for i = 0 to Array.length a - 1 do
    let x = a.(i) in
    if x < 0 then invalid_arg (name ^ ": negative key");
    if x > !hi then hi := x
  done;
  !hi

let sort_distinct a =
  let n = Array.length a in
  let hi = max_key "Int_sort.sort_distinct" a in
  if hi < dense_factor * n then begin
    let marks = Bytes.make (hi + 1) '\000' in
    Array.iter (fun v -> Bytes.unsafe_set marks v '\001') a;
    let k = ref 0 in
    for v = 0 to hi do
      if Bytes.unsafe_get marks v <> '\000' then begin
        a.(!k) <- v;
        incr k
      end
    done;
    a
  end
  else if n <= insertion_cutoff then begin
    insertion_sort ~carry:false a a;
    a
  end
  else fst (lsd ~carry:false a a hi)

let sort_perm keys perm =
  let n = Array.length perm in
  let k = Array.map (fun i -> keys.(i)) perm in
  let p = Array.copy perm in
  let hi = max_key "Int_sort.sort_perm" k in
  if n <= insertion_cutoff then begin
    insertion_sort ~carry:true k p;
    p
  end
  else snd (lsd ~carry:true k p hi)

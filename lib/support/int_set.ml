let empty_slot = min_int

(* Adaptive representation. The long tail of points-to sets is tiny (1-8
   objects), so small sets are a sorted inline array scanned linearly; once
   the element count exceeds [small_capacity] the set promotes to the
   open-addressing table. [mask] doubles as the representation tag: a
   negative mask marks the small (sorted-array) representation. *)
let small_capacity = 8

type t = {
  mutable slots : int array;
    (* small rep: the first [count] entries, sorted ascending;
       hash rep: [empty_slot] marks a free slot *)
  mutable count : int;
  mutable mask : int; (* hash rep: capacity - 1, capacity a power of two *)
}

(* Small->hash promotions performed by the current domain. Domain-local so
   concurrent solver runs in a Domain_pool never race on the counter; a
   caller measures a run by taking a delta, which is exact because each run
   executes entirely on one domain. *)
let promotions_key = Domain.DLS.new_key (fun () -> ref 0)

let promotion_count () = !(Domain.DLS.get promotions_key)

let create ?(capacity = 8) () =
  if capacity <= small_capacity then
    { slots = Array.make small_capacity empty_slot; count = 0; mask = -1 }
  else begin
    let rec pow2 n = if n >= capacity then n else pow2 (2 * n) in
    let cap = pow2 16 in
    { slots = Array.make cap empty_slot; count = 0; mask = cap - 1 }
  end

let cardinal t = t.count

let is_small t = t.mask < 0

(* Fibonacci hashing spreads consecutive interned ids well. The multiplier is
   2^62 / phi, kept positive in OCaml's 63-bit ints. *)
let hash x = (x * 0x3105_2E60_8C61_9E55) land max_int

(* The loops of [mem] and [add] are top level, not local to them: a local
   recursive function capturing its arguments is a closure allocated on
   every call. Their slot arrays are typed [int array], or [=] and [<]
   would be polymorphic comparisons. *)
let rec scan (slots : int array) count x i =
  i < count
  &&
  let v = slots.(i) in
  v = x || (v < x && scan slots count x (i + 1))

let rec probe (slots : int array) mask x i =
  let v = slots.(i) in
  if v = empty_slot then false else v = x || probe slots mask x ((i + 1) land mask)

let mem t x =
  if t.mask < 0 then scan t.slots t.count x 0
  else probe t.slots t.mask x (hash x land t.mask)

let unsafe_insert slots mask x =
  let i = ref (hash x land mask) in
  while slots.(!i) <> empty_slot do
    i := (!i + 1) land mask
  done;
  slots.(!i) <- x

let resize t =
  let old = t.slots in
  let cap = 2 * Array.length old in
  let slots = Array.make cap empty_slot in
  let mask = cap - 1 in
  Array.iter (fun v -> if v <> empty_slot then unsafe_insert slots mask v) old;
  t.slots <- slots;
  t.mask <- mask

(* Leave the open-addressing table headroom past the boundary so the first
   hash-side resize does not follow immediately. *)
let promote t x =
  let cap = 4 * small_capacity in
  let slots = Array.make cap empty_slot in
  let mask = cap - 1 in
  for i = 0 to t.count - 1 do
    unsafe_insert slots mask t.slots.(i)
  done;
  unsafe_insert slots mask x;
  t.slots <- slots;
  t.mask <- mask;
  t.count <- t.count + 1;
  incr (Domain.DLS.get promotions_key)

let rec hash_add t (slots : int array) mask x i =
  let v = slots.(i) in
  if v = empty_slot then begin
    slots.(i) <- x;
    t.count <- t.count + 1;
    (* Keep the load factor under ~0.7. *)
    if 10 * t.count > 7 * (mask + 1) then resize t;
    true
  end
  else v <> x && hash_add t slots mask x ((i + 1) land mask)

(* The insertion point of [x] in the sorted prefix of [count] slots. *)
let rec find (slots : int array) count x i =
  if i < count && slots.(i) < x then find slots count x (i + 1) else i

let add t x =
  if x < 0 then invalid_arg "Int_set.add: negative element";
  if t.mask < 0 then begin
    let slots = t.slots in
    let count = t.count in
    let i = find slots count x 0 in
    if i < count && slots.(i) = x then false
    else if count < small_capacity then begin
      Array.blit slots i slots (i + 1) (count - i);
      slots.(i) <- x;
      t.count <- count + 1;
      true
    end
    else begin
      promote t x;
      true
    end
  end
  else hash_add t t.slots t.mask x (hash x land t.mask)

let iter f t =
  let slots = t.slots in
  if t.mask < 0 then
    for i = 0 to t.count - 1 do
      f slots.(i)
    done
  else
    for i = 0 to Array.length slots - 1 do
      let v = slots.(i) in
      if v <> empty_slot then f v
    done

let fold f t acc =
  if t.mask < 0 then begin
    let acc = ref acc in
    for i = 0 to t.count - 1 do
      acc := f t.slots.(i) !acc
    done;
    !acc
  end
  else begin
    let slots = t.slots in
    let acc = ref acc in
    for i = 0 to Array.length slots - 1 do
      let v = slots.(i) in
      if v <> empty_slot then acc := f v !acc
    done;
    !acc
  end

let exists p t =
  let slots = t.slots in
  let n = if t.mask < 0 then t.count else Array.length slots in
  let small = t.mask < 0 in
  let rec loop i =
    i < n && ((small || slots.(i) <> empty_slot) && p slots.(i) || loop (i + 1))
  in
  loop 0

(* ---------- sorting ---------- *)

let to_sorted_array t =
  if t.mask < 0 then Array.sub t.slots 0 t.count
  else begin
    let out = Array.make t.count 0 in
    let slots = t.slots in
    let k = ref 0 in
    for i = 0 to Array.length slots - 1 do
      let v = slots.(i) in
      if v <> empty_slot then begin
        out.(!k) <- v;
        incr k
      end
    done;
    Int_sort.sort_distinct out
  end

let check_sorted fn a pos len =
  if pos < 0 || len < 0 || pos > Array.length a - len then invalid_arg ("Int_set." ^ fn);
  for i = pos to pos + len - 1 do
    if a.(i) < 0 || (i > pos && a.(i) <= a.(i - 1)) then
      invalid_arg ("Int_set." ^ fn ^ ": not strictly ascending and non-negative")
  done

(* Lays the [len] ascending elements of [a] from [pos] on into the empty
   set [t]. *)
let fill t a pos len =
  if t.mask < 0 then Array.blit a pos t.slots 0 len
  else
    for i = pos to pos + len - 1 do
      unsafe_insert t.slots t.mask a.(i)
    done;
  t.count <- len;
  t

let of_sorted_array a =
  let n = Array.length a in
  check_sorted "of_sorted_array" a 0 n;
  fill (create ~capacity:(2 * n) ()) a 0 n

(* The table one-by-one [add]s of [len] elements end with: inline up to
   [small_capacity], else the smallest power of two from 16 on that keeps
   the load factor at most 0.7. *)
let of_sorted_sub a ~pos ~len =
  check_sorted "of_sorted_sub" a pos len;
  let t =
    if len <= small_capacity then create ()
    else begin
      let rec grow cap = if 10 * len <= 7 * cap then cap else grow (2 * cap) in
      let cap = grow 16 in
      { slots = Array.make cap empty_slot; count = 0; mask = cap - 1 }
    end
  in
  fill t a pos len

let to_sorted_list t = Array.to_list (to_sorted_array t)

let copy t = { slots = Array.copy t.slots; count = t.count; mask = t.mask }

let subset a b = not (exists (fun x -> not (mem b x)) a)

let equal a b = a.count = b.count && subset a b

let clear t =
  Array.fill t.slots 0 (Array.length t.slots) empty_slot;
  t.count <- 0

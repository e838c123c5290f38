exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun msg -> raise (Corrupt msg)) fmt

module Writer = struct
  type t = Buffer.t

  let create ?(capacity = 256) () = Buffer.create capacity

  let u8 t v =
    if v < 0 || v > 0xff then invalid_arg (Printf.sprintf "Codec.Writer.u8: %d" v);
    Buffer.add_char t (Char.unsafe_chr v)

  let raw t s = Buffer.add_string t s

  (* LEB128 over the 63-bit pattern; [lsr] keeps the loop well-defined even
     for inputs with the sign bit set (zigzagged values land here). *)
  let uint_bits t v =
    let v = ref v in
    while !v lsr 7 <> 0 do
      Buffer.add_char t (Char.unsafe_chr (!v land 0x7f lor 0x80));
      v := !v lsr 7
    done;
    Buffer.add_char t (Char.unsafe_chr !v)

  let uint t v =
    if v < 0 then invalid_arg (Printf.sprintf "Codec.Writer.uint: negative %d" v);
    uint_bits t v

  let int t v = uint_bits t ((v lsl 1) lxor (v asr (Sys.int_size - 1)))

  let bool t b = Buffer.add_char t (if b then '\001' else '\000')

  let float t f = Buffer.add_int64_le t (Int64.bits_of_float f)

  let string t s =
    uint t (String.length s);
    Buffer.add_string t s

  let int_array t a =
    uint t (Array.length a);
    Array.iter (fun v -> uint t v) a

  (* Gaps between ascending non-negative elements, the first taken from 0:
     exactly the first element absolute. *)
  let int_set t s =
    let elems = Int_set.to_sorted_array s in
    uint t (Array.length elems);
    let prev = ref 0 in
    Array.iter
      (fun e ->
        uint_bits t (e - !prev);
        prev := e)
      elems

  let option t f = function
    | None -> bool t false
    | Some v ->
      bool t true;
      f t v

  let length t = Buffer.length t

  let sub t pos len = Buffer.sub t pos len

  let contents t = Buffer.contents t
end

(* Decoded sets by their encoded bytes, for one reader: byte-range hash to
   the ranges with that hash, each with the set it decoded to. *)
module Hash_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash h = h
end)

module Reader = struct
  (* [scratch] holds the elements of the set being decoded; it grows to the
     largest set the reader has met and is reused for every later one.
     [memo] holds every set the reader has decoded, by its bytes. *)
  type t = {
    src : string;
    mutable pos : int;
    mutable scratch : int array;
    memo : (int * int * Int_set.t) list Hash_tbl.t;
  }

  let of_string ?(pos = 0) src =
    if pos < 0 || pos > String.length src then invalid_arg "Codec.Reader.of_string";
    { src; pos; scratch = [||]; memo = Hash_tbl.create 64 }

  let remaining t = String.length t.src - t.pos

  let at_end t = remaining t = 0

  let need t n = if remaining t < n then corrupt "truncated: need %d bytes, have %d" n (remaining t)

  let u8 t =
    need t 1;
    let v = Char.code t.src.[t.pos] in
    t.pos <- t.pos + 1;
    v

  let raw t n =
    need t n;
    let s = String.sub t.src t.pos n in
    t.pos <- t.pos + n;
    s

  let expect t s =
    let got = raw t (String.length s) in
    if got <> s then corrupt "expected %S, found %S" s got

  (* The varint at the cursor as a 63-bit pattern: a ninth byte may set the
     sign bit, which only the zigzag [int] wants. *)
  let uint_bits t =
    let src = t.src in
    let len = String.length src in
    let pos = ref t.pos in
    let acc = ref 0 in
    let shift = ref 0 in
    let more = ref true in
    while !more do
      if !pos >= len then corrupt "truncated varint";
      if !shift >= Sys.int_size then corrupt "varint too long";
      let b = Char.code (String.unsafe_get src !pos) in
      incr pos;
      acc := !acc lor ((b land 0x7f) lsl !shift);
      shift := !shift + 7;
      more := b >= 0x80
    done;
    t.pos <- !pos;
    !acc

  let uint t =
    let v = uint_bits t in
    if v < 0 then corrupt "varint past max_int";
    v

  let int t =
    let z = uint_bits t in
    (z lsr 1) lxor (-(z land 1))

  let bool t =
    match u8 t with
    | 0 -> false
    | 1 -> true
    | b -> corrupt "bad bool byte %d" b

  let float t =
    need t 8;
    let bits = String.get_int64_le t.src t.pos in
    t.pos <- t.pos + 8;
    Int64.float_of_bits bits

  let string t =
    let n = uint t in
    raw t n

  let int_array t =
    let n = uint t in
    if n > remaining t then corrupt "int array longer than input";
    Array.init n (fun _ -> uint t)

  (* The end of the [n] varints from [pos] on and a hash of their bytes;
     [None] when the input ends first. *)
  let scan_varints src ~pos n =
    let len = String.length src in
    let h = ref 0 and pos = ref pos and left = ref n in
    while !left > 0 && !pos < len do
      let b = Char.code (String.unsafe_get src !pos) in
      h := (!h lxor b) * 0x100000001b3;
      if b < 0x80 then decr left;
      incr pos
    done;
    if !left > 0 then None else Some (!pos, !h land max_int)

  let rec same_bytes src a b len =
    len = 0
    || String.unsafe_get src a = String.unsafe_get src b
       && same_bytes src (a + 1) (b + 1) (len - 1)

  (* One pass: the gaps are decoded straight into [scratch], a zero gap
     past the first element is a duplicate, and the set's table is filled
     once from the ascending elements. *)
  let decode_set t n =
    if Array.length t.scratch < n then t.scratch <- Array.make (max n (2 * Array.length t.scratch)) 0;
    let buf = t.scratch in
    let prev = ref 0 in
    for i = 0 to n - 1 do
      let gap = uint_bits t in
      let v = !prev + gap in
      if gap < 0 || v < 0 then corrupt "set element past max_int";
      if gap = 0 && i > 0 then corrupt "duplicate set element %d" v;
      Array.unsafe_set buf i v;
      prev := v
    done;
    Int_set.of_sorted_sub buf ~pos:0 ~len:n

  (* Canonical encoding makes equal sets equal bytes, so a set is looked up
     by the bytes of its count and gaps before it is decoded, and a range
     met before returns the set it decoded to. Only a set that decoded
     whole is remembered. *)
  let int_set t =
    let start = t.pos in
    let n = uint t in
    if n > remaining t then corrupt "int set longer than input";
    match scan_varints t.src ~pos:start (n + 1) with
    | None -> decode_set t n
    | Some (stop, h) -> (
      let len = stop - start in
      let ranges = Option.value ~default:[] (Hash_tbl.find_opt t.memo h) in
      match
        List.find_opt (fun (a, l, _) -> l = len && same_bytes t.src a start len) ranges
      with
      | Some (_, _, set) ->
        t.pos <- stop;
        set
      | None ->
        let set = decode_set t n in
        Hash_tbl.replace t.memo h ((start, len, set) :: ranges);
        set)

  let option t f = if bool t then Some (f t) else None
end

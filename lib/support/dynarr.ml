type 'a t = {
  mutable data : 'a array;
  mutable len : int;
  dummy : 'a;
}

let create ?(capacity = 8) ~dummy () =
  let capacity = max capacity 1 in
  { data = Array.make capacity dummy; len = 0; dummy }

let make ?(capacity = 8) n x = { data = Array.make (max 1 (max capacity n)) x; len = n; dummy = x }

let length t = t.len

let is_empty t = t.len = 0

let check_bounds t i op =
  if i < 0 || i >= t.len then
    invalid_arg (Printf.sprintf "Dynarr.%s: index %d out of bounds [0,%d)" op i t.len)

let get t i =
  check_bounds t i "get";
  t.data.(i)

let set t i x =
  check_bounds t i "set";
  t.data.(i) <- x

let grow t =
  let cap = Array.length t.data in
  let data = Array.make (2 * cap) t.dummy in
  Array.blit t.data 0 data 0 t.len;
  t.data <- data

let push t x =
  if t.len = Array.length t.data then grow t;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let push_get_index t x =
  push t x;
  t.len - 1

let clear t =
  Array.fill t.data 0 t.len t.dummy;
  t.len <- 0

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iter_prefix f t ~n =
  if n < 0 || n > t.len then
    invalid_arg (Printf.sprintf "Dynarr.iter_prefix: prefix %d out of bounds [0,%d]" n t.len);
  (* [t.data] is re-read every iteration, so [f] may push (and trigger a
     grow) without invalidating the walk; only the first [n] elements are
     visited. *)
  for i = 0 to n - 1 do
    f t.data.(i)
  done

let drop_prefix t n =
  if n < 0 || n > t.len then
    invalid_arg (Printf.sprintf "Dynarr.drop_prefix: prefix %d out of bounds [0,%d]" n t.len);
  if n > 0 then begin
    let rest = t.len - n in
    Array.blit t.data n t.data 0 rest;
    Array.fill t.data rest n t.dummy;
    t.len <- rest
  end

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let fold_left f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let to_list t =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (t.data.(i) :: acc) in
  loop (t.len - 1) []

let to_array t = Array.sub t.data 0 t.len

let of_list ~dummy xs =
  let t = create ~capacity:(max 1 (List.length xs)) ~dummy () in
  List.iter (push t) xs;
  t

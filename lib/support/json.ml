type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ---------- emission ---------- *)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* JSON has no literal for infinities or NaN: they are written as [null]. *)
let float_repr f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.12g" f

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | Str s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape s);
    Buffer.add_char buf '"'
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        emit buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape k);
        Buffer.add_string buf "\":";
        emit buf v)
      kvs;
    Buffer.add_char buf '}'

let rec emit_indented buf indent = function
  | List (_ :: _ as xs) ->
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf (String.make (indent + 2) ' ');
        emit_indented buf (indent + 2) x)
      xs;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (String.make indent ' ');
    Buffer.add_char buf ']'
  | Obj (_ :: _ as kvs) ->
    Buffer.add_string buf "{\n";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf (String.make (indent + 2) ' ');
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape k);
        Buffer.add_string buf "\": ";
        emit_indented buf (indent + 2) v)
      kvs;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (String.make indent ' ');
    Buffer.add_char buf '}'
  | v -> emit buf v

let to_string ?(pretty = false) v =
  let buf = Buffer.create 256 in
  if pretty then emit_indented buf 0 v else emit buf v;
  Buffer.contents buf

(* ---------- parsing ---------- *)

exception Parse_failure of string

type parser_state = { src : string; mutable at : int }

let fail st fmt =
  Printf.ksprintf (fun m -> raise (Parse_failure (Printf.sprintf "offset %d: %s" st.at m))) fmt

let peek st = if st.at < String.length st.src then Some st.src.[st.at] else None

let skip_ws st =
  while
    st.at < String.length st.src
    && match st.src.[st.at] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.at <- st.at + 1
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> st.at <- st.at + 1
  | Some c' -> fail st "expected %C but found %C" c c'
  | None -> fail st "expected %C but found end of input" c

let literal st word value =
  let n = String.length word in
  if st.at + n <= String.length st.src && String.sub st.src st.at n = word then begin
    st.at <- st.at + n;
    value
  end
  else fail st "expected %s" word

let parse_string_body st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> st.at <- st.at + 1
    | Some '\\' -> (
      st.at <- st.at + 1;
      match peek st with
      | None -> fail st "unterminated escape"
      | Some c ->
        st.at <- st.at + 1;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          if st.at + 4 > String.length st.src then fail st "truncated \\u escape";
          let hex = String.sub st.src st.at 4 in
          st.at <- st.at + 4;
          let code =
            try int_of_string ("0x" ^ hex) with _ -> fail st "bad \\u escape %S" hex
          in
          (* Encode the code point as UTF-8 (surrogates land as-is; the
             emitter only produces \u for control characters). *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else if code < 0x800 then begin
            Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
          else begin
            Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
        | c -> fail st "bad escape \\%C" c);
        go ())
    | Some c ->
      st.at <- st.at + 1;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.at in
  let is_num_char c =
    (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
  in
  while st.at < String.length st.src && is_num_char st.src.[st.at] do
    st.at <- st.at + 1
  done;
  let text = String.sub st.src start (st.at - start) in
  match int_of_string_opt text with
  | Some i -> Int i
  | None -> (
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail st "bad number %S" text)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '"' -> Str (parse_string_body st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some '[' ->
    st.at <- st.at + 1;
    skip_ws st;
    if peek st = Some ']' then begin
      st.at <- st.at + 1;
      List []
    end
    else begin
      let acc = ref [ parse_value st ] in
      skip_ws st;
      while peek st = Some ',' do
        st.at <- st.at + 1;
        acc := parse_value st :: !acc;
        skip_ws st
      done;
      expect st ']';
      List (List.rev !acc)
    end
  | Some '{' ->
    st.at <- st.at + 1;
    skip_ws st;
    if peek st = Some '}' then begin
      st.at <- st.at + 1;
      Obj []
    end
    else begin
      let entry () =
        skip_ws st;
        let k = parse_string_body st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        (k, v)
      in
      let acc = ref [ entry () ] in
      skip_ws st;
      while peek st = Some ',' do
        st.at <- st.at + 1;
        acc := entry () :: !acc;
        skip_ws st
      done;
      expect st '}';
      Obj (List.rev !acc)
    end
  | Some _ -> parse_number st

let of_string s =
  let st = { src = s; at = 0 } in
  match parse_value st with
  | v ->
    skip_ws st;
    if st.at < String.length s then Error (Printf.sprintf "trailing content at offset %d" st.at)
    else Ok v
  | exception Parse_failure msg -> Error msg

(* ---------- accessors ---------- *)

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None

let to_list = function List xs -> Some xs | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_int = function Int i -> Some i | _ -> None

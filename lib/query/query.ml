type t =
  | Pts of string
  | Pointed_by of string
  | Alias of string * string
  | Callees of string
  | Callers of string
  | Reach of string * string
  | Fieldpts of string * string
  | Taint of (string * string) option
  | Stats

(* The leading keywords, in documentation order. *)
let forms =
  [ "pts"; "pointed-by"; "alias"; "callees"; "callers"; "reach"; "fieldpts"; "taint"; "stats" ]

(* ---------- lexical syntax ---------- *)

let is_space c = c = ' ' || c = '\t' || c = '\r'

let tokens line =
  let n = String.length line in
  let buf = Buffer.create 16 in
  let acc = ref [] in
  let flush_tok () =
    acc := Buffer.contents buf :: !acc;
    Buffer.clear buf
  in
  (* [in_tok] distinguishes an empty quoted token ("") from no token. *)
  let rec go i in_tok =
    if i >= n then begin
      if in_tok then flush_tok ();
      Ok (List.rev !acc)
    end
    else
      let c = line.[i] in
      if is_space c then begin
        if in_tok then flush_tok ();
        go (i + 1) false
      end
      else if c = '"' then quoted (i + 1)
      else begin
        Buffer.add_char buf c;
        go (i + 1) true
      end
  and quoted i =
    if i >= n then Error "unterminated quote"
    else
      match line.[i] with
      | '"' -> go (i + 1) true
      | '\\' ->
        if i + 1 >= n then Error "dangling escape at end of line"
        else begin
          (match line.[i + 1] with
          | ('"' | '\\') as c -> Buffer.add_char buf c
          | c ->
            Buffer.add_char buf '\\';
            Buffer.add_char buf c);
          quoted (i + 2)
        end
      | c ->
        Buffer.add_char buf c;
        quoted (i + 1)
  in
  go 0 false

let needs_quoting s =
  s = "" || String.exists (fun c -> is_space c || c = '\n' || c = '"' || c = '\\' || c = '#') s

let quote s =
  if not (needs_quoting s) then s
  else begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' || c = '\\' then Buffer.add_char buf '\\';
        Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

(* ---------- parse / print ---------- *)

let usage = function
  | "pts" -> "pts <var>"
  | "pointed-by" -> "pointed-by <heap>"
  | "alias" -> "alias <var> <var>"
  | "callees" -> "callees <site>"
  | "callers" -> "callers <method>"
  | "reach" -> "reach <method> <method>"
  | "fieldpts" -> "fieldpts <heap> <field>"
  | "taint" -> "taint [<source-pattern> <sink-pattern>]"
  | "stats" -> "stats"
  | _ -> assert false

let arity_error form got =
  Error
    (Printf.sprintf "%s takes %s, got %d: usage: %s" form
       (match form with
       | "stats" -> "no arguments"
       | "pts" | "pointed-by" | "callees" | "callers" -> "one argument"
       | "taint" -> "zero or two arguments"
       | _ -> "two arguments")
       got (usage form))

let parse line =
  match tokens line with
  | Error e -> Error e
  | Ok [] -> Error "empty query"
  | Ok (form :: args) -> (
    let n = List.length args in
    match (form, args) with
    | "pts", [ v ] -> Ok (Pts v)
    | "pointed-by", [ h ] -> Ok (Pointed_by h)
    | "alias", [ a; b ] -> Ok (Alias (a, b))
    | "callees", [ s ] -> Ok (Callees s)
    | "callers", [ m ] -> Ok (Callers m)
    | "reach", [ a; b ] -> Ok (Reach (a, b))
    | "fieldpts", [ h; f ] -> Ok (Fieldpts (h, f))
    | "taint", [] -> Ok (Taint None)
    | "taint", [ src; snk ] -> Ok (Taint (Some (src, snk)))
    | "stats", [] -> Ok Stats
    | ("pts" | "pointed-by" | "alias" | "callees" | "callers" | "reach" | "fieldpts" | "taint" | "stats"), _ ->
      arity_error form n
    | _ ->
      Error
        (Printf.sprintf "unknown query form %S (expected one of: %s)" form
           (String.concat ", " forms)))

let to_string = function
  | Pts v -> "pts " ^ quote v
  | Pointed_by h -> "pointed-by " ^ quote h
  | Alias (a, b) -> Printf.sprintf "alias %s %s" (quote a) (quote b)
  | Callees s -> "callees " ^ quote s
  | Callers m -> "callers " ^ quote m
  | Reach (a, b) -> Printf.sprintf "reach %s %s" (quote a) (quote b)
  | Fieldpts (h, f) -> Printf.sprintf "fieldpts %s %s" (quote h) (quote f)
  | Taint None -> "taint"
  | Taint (Some (src, snk)) -> Printf.sprintf "taint %s %s" (quote src) (quote snk)
  | Stats -> "stats"

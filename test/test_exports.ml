(* Dead-export check. Every value a library interface (lib/**/*.mli)
   exports must be used outside its own module by the program: lib/, bin/,
   bench/, benchmark/ or examples/. The exceptions, values reached only
   from test/, are listed in exports.allow. An export nothing outside its
   module uses, an allow-list entry that names no export or an export that
   has gained an outside user, and an allow-list entry that no file in
   test/ uses all fail the check.

   A use is found by lexing, not by type checking: a qualified reference
   [... M.v] (M the module or a local alias of it), or a bare [v] in a file
   that opens M. Name clashes can only hide an unused export, never report
   a used one. *)

let program_dirs = [ "lib"; "bin"; "bench"; "benchmark"; "examples" ]

(* Run by dune from _build/default/test; run by hand from the root. *)
let root = if Sys.file_exists "../lib" && Sys.file_exists "../test" then ".." else "."

let rec files dir =
  if not (Sys.file_exists dir) then []
  else
    List.concat_map
      (fun name ->
        let path = Filename.concat dir name in
        if Sys.is_directory path then
          if name = "_build" || name.[0] = '.' || name.[0] = '_' then [] else files path
        else if Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli" then [ path ]
        else [])
      (List.sort compare (Array.to_list (Sys.readdir dir)))

let read path = In_channel.with_open_bin path In_channel.input_all

(* ---------- lexing ---------- *)

type token = Upper of string | Lower of string | Sym of char

let is_ident c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true | _ -> false

(* Tokens outside comments, strings and character literals. *)
let tokens src =
  let n = String.length src in
  let out = ref [] in
  let rec skip_string i =
    if i >= n then n
    else match src.[i] with '\\' -> skip_string (i + 2) | '"' -> i + 1 | _ -> skip_string (i + 1)
  in
  let rec skip_comment depth i =
    if i >= n then n
    else if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then skip_comment (depth + 1) (i + 2)
    else if i + 1 < n && src.[i] = '*' && src.[i + 1] = ')' then
      if depth = 1 then i + 2 else skip_comment (depth - 1) (i + 2)
    else if src.[i] = '"' then skip_comment depth (skip_string (i + 1))
    else skip_comment depth (i + 1)
  in
  let rec go i =
    if i < n then
      match src.[i] with
      | '(' when i + 1 < n && src.[i + 1] = '*' -> go (skip_comment 1 (i + 2))
      | '"' -> go (skip_string (i + 1))
      | '\'' when i + 2 < n && src.[i + 2] = '\'' -> go (i + 3)
      | '\'' when i + 1 < n && src.[i + 1] = '\\' -> (
        match String.index_from_opt src (i + 2) '\'' with Some j -> go (j + 1) | None -> ())
      | ('a' .. 'z' | 'A' .. 'Z' | '_') as c ->
        let j = ref i in
        while !j < n && is_ident src.[!j] do
          incr j
        done;
        let word = String.sub src i (!j - i) in
        out := (match c with 'A' .. 'Z' -> Upper word | _ -> Lower word) :: !out;
        go !j
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1)
      | c ->
        out := Sym c :: !out;
        go (i + 1)
  in
  go 0;
  Array.of_list (List.rev !out)

(* ---------- exports ---------- *)

let module_of path = String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

(* [(key, module, name)] for every [val] of an interface; [key] is the
   allow-list spelling: the file's module, the nested module path, the
   name. Values of a nested [module X : sig ... end] are referred to as
   [X.v]. *)
let exports path =
  let t = tokens (read path) in
  let n = Array.length t in
  let top = module_of path in
  let out = ref [] in
  (* The stack holds [Some name] for a nested module signature and [None]
     for any other [sig]/[struct]/[object] block. *)
  let rec go i stack =
    if i < n then
      match t.(i) with
      | Lower "module" when i + 3 < n && t.(i + 2) = Sym ':' && t.(i + 3) = Lower "sig" -> (
        match t.(i + 1) with Upper m -> go (i + 4) (Some m :: stack) | _ -> go (i + 1) stack)
      | Lower ("sig" | "struct" | "object") -> go (i + 1) (None :: stack)
      | Lower "end" -> go (i + 1) (match stack with _ :: s -> s | [] -> [])
      | Lower "val" when i + 1 < n -> (
        match t.(i + 1) with
        | Lower v ->
          let path = List.rev (List.filter_map Fun.id stack) in
          let m = match List.rev path with m :: _ -> m | [] -> top in
          out := (String.concat "." ((top :: path) @ [ v ]), m, v) :: !out;
          go (i + 2) stack
        | _ -> go (i + 1) stack)
      | _ -> go (i + 1) stack
  in
  go 0 [];
  List.rev !out

(* ---------- uses ---------- *)

type uses = {
  qualified : (string * string, unit) Hashtbl.t; (* (module, value), aliases resolved *)
  opened : (string, unit) Hashtbl.t;
  words : (string, unit) Hashtbl.t;
}

(* The last component of the module path starting at [i], and the index
   after it; [None] unless [t.(i)] is an uppercase identifier. *)
let module_path t i =
  let n = Array.length t in
  let rec go i last =
    if i + 2 < n && t.(i) = Sym '.' then
      match t.(i + 1) with Upper m -> go (i + 2) m | _ -> (last, i)
    else (last, i)
  in
  match t.(i) with Upper m -> Some (go (i + 1) m) | _ -> None

let uses_of path =
  let t = tokens (read path) in
  let n = Array.length t in
  let aliases = Hashtbl.create 16 in
  let resolve m = Option.value (Hashtbl.find_opt aliases m) ~default:m in
  let u =
    { qualified = Hashtbl.create 64; opened = Hashtbl.create 4; words = Hashtbl.create 256 }
  in
  for i = 0 to n - 1 do
    match t.(i) with
    | Lower "module" when i + 3 < n && t.(i + 2) = Sym '=' -> (
      match (t.(i + 1), module_path t (i + 3)) with
      | Upper x, Some (m, j) when j >= n || t.(j) <> Sym '(' -> Hashtbl.replace aliases x m
      | _ -> ())
    | _ -> ()
  done;
  for i = 0 to n - 1 do
    match t.(i) with
    | Lower "open" when i + 1 < n -> (
      match module_path t (i + 1) with
      | Some (m, _) -> Hashtbl.replace u.opened (resolve m) ()
      | None -> ())
    | Upper _ when i = 0 || t.(i - 1) <> Sym '.' -> (
      match module_path t i with
      | Some (m, j) when j + 1 < n && t.(j) = Sym '.' -> (
        match t.(j + 1) with
        | Lower v -> Hashtbl.replace u.qualified (resolve m, v) ()
        | Sym '(' -> Hashtbl.replace u.opened (resolve m) ()
        | _ -> ())
      | _ -> ())
    | Lower w -> Hashtbl.replace u.words w ()
    | _ -> ()
  done;
  u

let used_by (m, v) u =
  Hashtbl.mem u.qualified (m, v) || (Hashtbl.mem u.opened m && Hashtbl.mem u.words v)

(* ---------- the allow-list ---------- *)

(* One entry per line: the key, then an optional [#] comment. *)
let allow_list () =
  read (Filename.concat root "test/exports.allow")
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         let key = Option.fold ~none:line ~some:(String.sub line 0) (String.index_opt line '#') in
         match String.trim key with "" -> None | key -> Some key)

let test_exports () =
  let lex dirs = List.concat_map (fun d -> files (Filename.concat root d)) dirs in
  let program = List.map (fun f -> (f, uses_of f)) (lex program_dirs) in
  let tests = List.map uses_of (lex [ "test" ]) in
  let interfaces =
    List.filter (fun f -> Filename.check_suffix f ".mli") (files (Filename.concat root "lib"))
  in
  let allowed = allow_list () in
  let keys = Hashtbl.create 512 in
  let unused = ref [] and stale = ref [] and nobody = ref [] in
  List.iter
    (fun mli ->
      let own = Filename.remove_extension mli in
      List.iter
        (fun (key, m, v) ->
          Hashtbl.replace keys key ();
          let used =
            List.exists
              (fun (f, u) -> Filename.remove_extension f <> own && used_by (m, v) u)
              program
          in
          match (used, List.mem key allowed) with
          | false, false -> unused := key :: !unused
          | true, true -> stale := key :: !stale
          | false, true ->
            if not (List.exists (used_by (m, v)) tests) then nobody := key :: !nobody
          | true, false -> ())
        (exports mli))
    interfaces;
  let missing = List.filter (fun key -> not (Hashtbl.mem keys key)) allowed in
  let section what l =
    if l = [] then [] else [ what ^ ":\n  " ^ String.concat "\n  " (List.sort compare l) ]
  in
  match
    section
      "exported, but nothing outside its module uses it (delete it, or allow-list it with \
       a reason in test/exports.allow)"
      !unused
    @ section "allow-listed, but used outside its module now (drop it from test/exports.allow)"
        !stale
    @ section "allow-listed, but no interface exports it (drop it from test/exports.allow)"
        missing
    @ section "exported for nobody: drop it from the .mli" !nobody
  with
  | [] -> ()
  | failures -> Alcotest.fail (String.concat "\n" failures)

let () =
  Alcotest.run "exports"
    [ ("dead", [ Alcotest.test_case "every export has an outside user" `Quick test_exports ]) ]

(** The context-sensitivity flavors evaluated in the paper.

    Each flavor is a {!Strategy.t} instance over {!Ctx} tables. Depths follow
    the paper's naming: ["2objH"] is 2-object-sensitive with a 1-deep
    context-sensitive heap, etc.

    - {b Insensitive}: every constructor returns the empty context — the
      paper's first-pass configuration.
    - {b Call-site} ([kcallH]): [merge]/[merge_static] push the invocation
      site, truncated to [depth]; [record] keeps the first [heap] elements of
      the allocating context.
    - {b Object} ([kobjH]): [merge] pushes the receiver's allocation site
      onto the receiver's heap context; static calls propagate the caller
      context unchanged; [record] as above.
    - {b Type} ([ktypeH]): like object-sensitivity but each element is the
      class {e containing the allocation site} of the would-be object
      element (Smaragdakis et al., POPL'11).
    - {b Hybrid} (extension; Kastrinis & Smaragdakis, PLDI'13): virtual calls
      behave object-sensitively; static calls push the invocation site on top
      of the caller's elements (keeping [depth]+1 elements); [record] drops
      leading invocation-site elements before truncating, so heap contexts
      stay object-based. *)

type spec =
  | Insensitive
  | Call_site of { depth : int; heap : int }
  | Object_sens of { depth : int; heap : int }
  | Type_sens of { depth : int; heap : int }
  | Hybrid of { depth : int; heap : int }

val strategy : Ipa_ir.Program.t -> spec -> Strategy.t
(** The program argument is unused: a strategy reads the program being
    solved from its caller ({!Strategy.t}), so one strategy serves every
    program. Raises [Invalid_argument] on non-positive depths. *)

val to_string : spec -> string
(** Paper-style names: ["insens"], ["2objH"], ["1callH"], ["2typeH"],
    ["2hybH"], .... A heap depth other than [1] is suffixed, e.g.
    ["2objH2"]. *)

val of_string : string -> spec option
(** Inverse of {!to_string}; also accepts ["2obj"] (heap depth 0),
    ["insensitive"]. *)

val all_named : (string * spec) list
(** The flavors exercised by the benchmark harness. *)

(** The demand query language: one query per line over a solved analysis.

    Queries name program entities by their full names — variables as
    ["Class::meth/arity$var"], methods as ["Class::meth/arity"], fields as
    ["Class::field"] (or a bare unambiguous field name), allocation sites
    and invocation sites by their generated site names (e.g.
    ["Main::main/0/new Box#0"], ["Main::main/0/vcall#2"]). Names containing
    whitespace are double-quoted; backslash escapes a quote or a
    backslash inside quotes.

    The forms:

    {v
    pts <var>                  collapsed points-to set of a variable
    pointed-by <heap>          variables that may point to an allocation site
    alias <var> <var>          may the two variables alias? (with witnesses)
    callees <site>             call-graph targets of an invocation site
    callers <method>           invocation sites with an edge into a method
    reach <method> <method>    call-graph reachability, with a path
    fieldpts <heap> <field>    collapsed points-to set of one field slot
    taint [<source> <sink>]    taint findings (default or one-pattern spec)
    stats                      solution size statistics
    v}

    [parse] and [to_string] are mutual inverses on well-formed queries, a
    property the test suite pins. *)

type t =
  | Pts of string
  | Pointed_by of string
  | Alias of string * string
  | Callees of string
  | Callers of string
  | Reach of string * string
  | Fieldpts of string * string
  | Taint of (string * string) option
      (** [None] is the built-in default spec; [Some (source, sink)] builds
          a spec from the two glob patterns, the source pattern matched
          against both source methods and allocated classes. *)
  | Stats

val tokens : string -> (string list, string) result
(** Split a line into whitespace-separated tokens with double-quoting
    (backslash escapes a quote or a backslash inside quotes). Errors on
    an unterminated quote or a dangling escape. Exposed for the server's
    control commands, which share the lexical syntax. *)

val quote : string -> string
(** Quote a token iff it needs it (empty, whitespace, quote or backslash). *)

val parse : string -> (t, string) result
(** Parse one query line. The error message names the offending form and
    its expected argument count. *)

val to_string : t -> string
(** Canonical rendering; inverse of {!parse}. *)

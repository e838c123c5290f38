(** Evaluation of {!Query} forms over one loaded {!Ipa_core.Solution}.

    An engine wraps a solution with name-lookup tables (entity full name →
    id), built once per program and shared by every engine over a solution
    of that program; relation lookups go through the solution's
    cached collapsed projections and reverse indexes
    ({!Ipa_core.Solution.inverted_var_pts}, [callee_meths], ...), so the
    first query of each kind pays the index build and later ones are
    dictionary lookups. After {!warm}, evaluation performs no internal
    mutation and an engine may be shared by concurrently evaluating
    domains (how the server runs concurrent socket sessions). *)

type t

val create : Ipa_core.Solution.t -> t

val solution : t -> Ipa_core.Solution.t

type names
(** A program's name tables, entity full name → id. *)

val names : Ipa_ir.Program.t -> names
(** The tables of a program, built once per physical program
    ({!Ipa_ir.Program.memo}) and shared by every engine over it. *)

val find_var : names -> string -> Ipa_ir.Program.var_id option
(** The variable {!eval} resolves a variable name to. *)

val find_field : names -> string -> Ipa_ir.Program.field_id option
(** The field {!eval} resolves a field name to, full or bare; [None] when
    no field or more than one has the name. *)

val warm : t -> unit
(** Force every lazy solution index. Required before sharing the engine
    across domains. *)

val warm_for : t -> Query.t -> unit
(** Force the lazy indexes that {!eval} reads for this query's form, and
    no others. Afterwards evaluating that form performs no internal
    mutation; callers sharing the engine across domains must serialize
    [warm_for] calls and order them before the evaluations they cover
    (how {!Demand} warms each slice engine only for the forms asked of
    it). *)

(** A successful answer. All name lists are sorted (and, where they came
    from sets, duplicate-free), so answers are canonical: sequential and
    concurrent evaluation render identically. *)
type answer =
  | Names of { kind : string; items : string list }
      (** [pts]/[fieldpts] ([kind = "objects"]), [pointed-by] ("vars"),
          [callees] ("methods"), [callers] ("sites") *)
  | Truth of { holds : bool; witness : string list }
      (** [alias] (witness: common objects) and [reach] (witness: a
          shortest call path, source to target, when reachable) *)
  | Taint_report of { seeds : int; findings : (string * int * string) list }
      (** (invocation site, argument index, resolved sink method) *)
  | Stats_report of (string * int) list  (** ordered key/value pairs *)

val eval : t -> Query.t -> (answer, string) result
(** Errors name the unresolved entity (["unknown variable \"x\""], ...);
    they never raise. *)

(** {1 Rendering} — shared by the batch CLI, the server, and the tests. *)

val render_text : ?latency_us:int -> Query.t -> (answer, string) result -> string
(** One human-readable line, prefixed with the canonical query.
    [latency_us] appends [" [Nus]"]. *)

val render_json : ?latency_us:int -> Query.t -> (answer, string) result -> string
(** One JSON object per line:
    [{"q": ..., "ok": true, "kind": ..., ...}] on success,
    [{"q": ..., "ok": false, "error": ...}] on failure.
    [latency_us] adds an ["us"] field. *)

val render_error : json:bool -> q:string -> string -> string
(** An error record for a line that did not parse ([q] is the raw line). *)

val json_string : string -> string
(** {!Ipa_support.Json.escape} in double quotes: a JSON string literal
    (exposed for the server's own records). *)

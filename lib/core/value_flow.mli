(** The collapsed value-flow graph of a solved program.

    A directed graph whose nodes are the places analysis clients reason
    about — variables, [(allocation site, field)] slots, static fields, and
    per-method escaping-exception slots — and whose edges are the one-step
    value flows the solved program admits: moves and casts, field loads and
    stores resolved through the solution's points-to relation, parameter
    passing and returns resolved through the solution's call graph, and
    throw/catch routing. Everything is computed on the context-insensitive
    projection of a {!Solution.t}: a more precise solution (smaller
    points-to sets, fewer call-graph edges, fewer reachable methods) yields
    a subgraph, so any forward-reachability client is monotone in analysis
    precision.

    This is shared infrastructure for inter-procedural value-flow clients
    (taint tracking, escape reasoning, slicing); it is deliberately
    client-agnostic. *)

type t

(** Nodes are dense non-negative ints; use {!kind} to decode. *)
type node = int

type kind =
  | Var of Ipa_ir.Program.var_id
  | Fld of { heap : Ipa_ir.Program.heap_id; field : Ipa_ir.Program.field_id }
      (** instance field slot of one allocation site *)
  | Static_fld of Ipa_ir.Program.field_id
  | Exc of Ipa_ir.Program.meth_id
      (** exceptions escaping the method (uncaught within it) *)

val build : Solution.t -> t
(** Materialize the graph from a solved program. Only instructions of
    methods reachable in the solution contribute edges. *)


(** {1 Nodes} *)

val var_node : t -> Ipa_ir.Program.var_id -> node

val kind : t -> node -> kind
val node_to_string : t -> node -> string
(** Human-readable label, e.g. ["Main::main/x"] or ["Box::set/new Box#0.val"]. *)

val n_nodes : t -> int
(** Size of the node id space (most ids have no incident edge). *)

val n_edges : t -> int
(** Distinct edges materialized. *)

(** {1 Traversal} *)

val reachable : ?blocked:(node -> bool) -> t -> seeds:node list -> Ipa_support.Int_set.t
(** Forward closure of [seeds] over the edges. Nodes satisfying [blocked]
    are never entered (nor seeded): flow is cut both into and through them. *)

val find_path : ?blocked:(node -> bool) -> t -> seeds:node list -> target:node -> node list option
(** A shortest edge-path [s; ...; target] from some seed, respecting
    [blocked]; [None] when the target is unreachable. [Some [target]] when
    the target itself is a seed. *)

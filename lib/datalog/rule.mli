(** Datalog rules with multiple heads, stratified negation, external
    functions, and guards.

    A rule binds variables (numbered [0 .. n_vars-1]) by matching the
    positive body atoms left to right, then evaluates the [lets] in order
    (each may bind a fresh variable from the environment — this is how the
    paper's context constructors [Record]/[Merge] enter the rules), then
    checks the negated atoms and guards, and finally inserts every head
    tuple.

    Negated atoms must be over relations that are already fully computed
    when the rule's stratum runs (EDB or a lower stratum) — the engine does
    not verify stratification; see {!Engine}. *)

type term =
  | Var of int
  | Const of int

type atom = Relation.t * term array

type t

val make :
  n_vars:int ->
  heads:atom list ->
  body:atom list ->
  ?neg:atom list ->
  ?lets:(int * (int array -> int)) list ->
  ?guards:(int array -> bool) list ->
  unit ->
  t
(** Validates the rule shape; raises [Invalid_argument] when:
    - an atom's term count differs from its relation's arity;
    - a variable index is outside [0 .. n_vars-1];
    - a head, negated-atom, or let-input variable is not bound by the body
      atoms or an earlier let (guards and let functions receive the full
      environment array and are trusted to read only bound slots, which is
      checked for lets via a conservative "all body vars" rule: a let may
      read anything bound before it). *)

(** {1 Engine interface} *)

val n_vars : t -> int
val heads : t -> atom array
val body : t -> atom array
val neg : t -> atom array
val lets : t -> (int * (int array -> int)) array
val guards : t -> (int array -> bool) array

(** The analyzed intermediate language.

    This is the paper's input language (§2): a simplified Jimple-like typed
    IR for an object-oriented language with [new], [move], field [load]/
    [store], and virtual method calls — extended, as in Doop, with casts,
    static calls, and static fields. A program is an immutable bundle of
    dense arrays indexed by integer ids; construct one with {!Builder} or
    parse the textual [.jir] format with [Ipa_frontend].

    Id types are plain [int]s (they index the arrays below); distinct aliases
    document intent. *)

type class_id = int
type field_id = int
type sig_id = int
type meth_id = int
type var_id = int
type heap_id = int
type invo_id = int

(** A class or interface. [declared] maps signatures to the concrete methods
    this class itself declares (abstract methods excluded). *)
type class_info = {
  class_name : string;
  super : class_id option;
  interfaces : class_id list;
  is_interface : bool;
  declared : (sig_id * meth_id) list;
}

type field_info = {
  field_name : string;
  field_owner : class_id;
  is_static_field : bool;
}

(** Method signatures: dispatch key is name plus arity (no parameter types —
    the source language is untyped at parameters, as in the paper's model). *)
type sig_info = { sig_name : string; arity : int }

type var_info = { var_name : string; var_owner : meth_id }

(** A heap abstraction: one allocation site, with the class it instantiates. *)
type heap_info = {
  heap_name : string;
  heap_class : class_id;
  heap_owner : meth_id;
}

type call_kind =
  | Virtual of { base : var_id; signature : sig_id }
  | Static of { callee : meth_id }

(** One invocation site: its kind, actual arguments, the variable receiving
    the return value (if any), and the enclosing method. *)
type invo_info = {
  call : call_kind;
  actuals : var_id array;
  recv : var_id option;
  invo_owner : meth_id;
  invo_name : string;
}

type instr =
  | Alloc of { target : var_id; heap : heap_id }
  | Move of { target : var_id; source : var_id }
  | Cast of { target : var_id; source : var_id; cast_to : class_id }
  | Load of { target : var_id; base : var_id; field : field_id }
  | Store of { base : var_id; field : field_id; source : var_id }
  | Load_static of { target : var_id; field : field_id }
  | Store_static of { field : field_id; source : var_id }
  | Call of invo_id
  | Return of { source : var_id }
  | Throw of { source : var_id }

(** An exception handler. The model is flow-insensitive, as in Doop's
    simplified configurations: a method's catch clauses guard its whole body.
    An exception object thrown in the method (or escaping one of its callees)
    is routed to the first clause whose type it is a subtype of; if none
    matches, it escapes to the method's own callers. *)
type catch_clause = { catch_type : class_id; catch_var : var_id }

type meth_info = {
  meth_name : string;
  meth_owner : class_id;
  meth_sig : sig_id;
  is_static_meth : bool;
  is_abstract : bool;
  this_var : var_id option;  (** implicit receiver, instance methods only *)
  formals : var_id array;  (** excludes [this] *)
  ret_var : var_id option;  (** canonical return variable, if the method returns *)
  catches : catch_clause array;  (** in matching order *)
  body : instr array;
}

type t

(** {1 Sizes} *)

val n_classes : t -> int
val n_fields : t -> int
val n_sigs : t -> int
val n_meths : t -> int
val n_vars : t -> int
val n_heaps : t -> int
val n_invos : t -> int

(** {1 Accessors} — all raise [Invalid_argument] on out-of-range ids. *)

val class_info : t -> class_id -> class_info
val field_info : t -> field_id -> field_info
val sig_info : t -> sig_id -> sig_info
val meth_info : t -> meth_id -> meth_info
val var_info : t -> var_id -> var_info
val heap_info : t -> heap_id -> heap_info
val invo_info : t -> invo_id -> invo_info

val entries : t -> meth_id list
(** Entry-point methods seeding reachability. *)

(** {1 Names} *)

val class_name : t -> class_id -> string
val meth_full_name : t -> meth_id -> string
(** ["Class::name/arity"]. *)

val var_full_name : t -> var_id -> string
val heap_full_name : t -> heap_id -> string
val field_full_name : t -> field_id -> string
(** ["Class::field"]. *)

(** {1 Lookups} *)

val find_class : t -> string -> class_id option
val find_meth : t -> class_name:string -> name:string -> arity:int -> meth_id option
val find_sig : t -> name:string -> arity:int -> sig_id option

(** {1 Type hierarchy and dispatch} *)

val subtype : t -> sub:class_id -> super:class_id -> bool
(** Reflexive, transitive subtyping through [super] chains and interfaces. *)

val dispatch : t -> class_id -> sig_id -> meth_id option
(** [dispatch t c s] is the concrete method invoked by a call with signature
    [s] on a receiver of dynamic class [c]: the declaration in [c] or its
    nearest ancestor class. [None] when unresolved. *)

val cha_targets : t -> invo_id -> meth_id list
(** [cha_targets t i] is the class-hierarchy-analysis call graph at
    invocation site [i]: a static call's declared callee, or every concrete
    method anywhere that declares a virtual call's signature, ascending.
    It over-approximates the call graph of every analysis flavor. *)

val iter_dispatch : t -> (class_id -> sig_id -> meth_id -> unit) -> unit
(** Iterate the whole dispatch table: every (class, signature) pair that
    resolves, with its target. This is the paper's [LOOKUP] input relation. *)

val catch_route : t -> meth_id -> class_id -> int option
(** [catch_route t m c] is the index of the first catch clause of [m] whose
    type admits an exception object of class [c], or [None] if the object
    escapes [m]. *)

(** {1 Derived data} *)

val memo : (t -> 'a) -> t -> 'a
(** [memo f] is [f] with a one-entry memo on the physical program: applied
    again to the program it last saw, it returns the value computed then
    instead of calling [f]. For values that depend on the program alone and
    are only read once built (its digest, name tables). The entry is
    published through an [Atomic], so domains may share the memoized
    function; two that miss at once both compute, and the later entry
    stays. The entry does not keep its program alive. *)

(** {1 Construction} — used by {!Builder}; not for direct consumption. *)

val srcloc : t -> Srcloc.t option
(** Source positions of the program's entities, when the construction path
    recorded them ({!Builder} always does; a direct {!make} may not). *)

val make :
  ?srcloc:Srcloc.t ->
  classes:class_info array ->
  fields:field_info array ->
  sigs:sig_info array ->
  meths:meth_info array ->
  vars:var_info array ->
  heaps:heap_info array ->
  invos:invo_info array ->
  entries:meth_id list ->
  unit ->
  t
(** Computes the subtyping closure and dispatch tables. Raises [Failure] on a
    cyclic class hierarchy. Callers are expected to have validated the rest
    (see {!Wf.check}). *)

val with_bodies : t -> (meth_id -> instr array -> instr array) -> t
(** [with_bodies t f] is [t] with method [m]'s body replaced by
    [f m body]. Nothing but bodies changes, so the result shares [t]'s
    entity arrays and every table derived from them (ancestors, dispatch,
    name lookups, implementations) instead of recomputing them; a method
    whose body [f] returns physically unchanged keeps its [meth_info].
    Bodies must still reference only [t]'s entities. *)

(** Deterministic program deltas for the incremental-analysis harness.

    An edit names a method of a {e base} program plus a salt; applying it
    rebuilds the program with the delta spliced in, never renumbering an
    existing entity. [Add_alloc] and [Add_call] are monotone extensions
    ({!Ipa_core.Summary.delta} accepts them), so the incremental solver can
    warm-start across them; [Rewrite_body] replaces an instruction in
    place, which the monotonicity check must refuse — it exists to exercise
    the cold-fallback path. Picking is seeded and independent of the edits'
    application order: an edit list chosen against the base program stays
    valid through sequential application. *)

type kind =
  | Add_alloc  (** append a fresh allocation, flowing into the return *)
  | Add_call  (** append a static call wired to existing locals *)
  | Rewrite_body
      (** overwrite the last instruction that is not a call, an allocation
          or a return with a fresh allocation (non-monotone) *)

type t = { kind : kind; meth : Ipa_ir.Program.meth_id; salt : int }

val kind_of_name : string -> kind option

val all_kinds : kind list

val monotone_kinds : kind list
(** The kinds the warm path accepts: {!Add_alloc} and {!Add_call}. *)

val pick : ?kinds:kind list -> seed:int -> n:int -> Ipa_ir.Program.t -> t list
(** [pick ~seed ~n p] draws [n] edits against [p], kinds uniform over
    [kinds] (default {!all_kinds}), methods uniform over each kind's
    candidates. A method is drawn for no more rewrites than it has
    instructions a rewrite may overwrite. Deterministic in [seed]. May
    return fewer than [n] when a drawn kind has no candidates left. Raises
    [Invalid_argument] on an empty [kinds]. *)

val apply : Ipa_ir.Program.t -> t -> Ipa_ir.Program.t
(** Rebuild with the edit applied. The result drops source locations (the
    new entities have none). Raises [Invalid_argument] on a rewrite of a
    method with no instruction left to overwrite, which a list from
    {!pick} never asks for. *)

val apply_all : Ipa_ir.Program.t -> t list -> Ipa_ir.Program.t
(** Left fold of {!apply}. *)

val describe : Ipa_ir.Program.t -> t -> string
(** e.g. ["add-alloc Main::main/0"]. *)

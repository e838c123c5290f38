(** The one record every gated bench selection writes, and the one gate
    that compares a fresh record with a committed baseline.

    On disk a record is a JSON object:
    {[
      {"selection": "incr",
       "params": {"scale": 0.1, "budget": 10000000, "jobs": 2, ...},
       "counters": {"cold_derivations": 2751, ...},
       "measured": {"cold/mem_hits": 27.0, ...}}
    ]}
    [counters] are deterministic integers (derivations, per-row solver
    counters, cache lookups, ...) and are gated exactly. [measured] holds
    the counts the schedule can move (cache hit splits and write conflicts
    under concurrency) and is never gated. No record holds
    a wall-clock figure: timing claims are made by the end-to-end
    benchmark, not here. [params] describe the run and are not gated
    either. *)

type t = {
  selection : string;
  params : (string * Ipa_support.Json.t) list;
  counters : (string * int) list;
  measured : (string * float) list;
}

type error =
  | Unreadable of string  (** the file could not be read *)
  | Malformed of string  (** the file is not a record *)

val error_to_string : error -> string

val write : string -> t -> unit
(** [write path r] writes [r] as pretty-printed JSON. *)

val read : string -> (t, error) result
(** [read path] parses a file written by {!write}. Never raises. *)

val diff : baseline:t -> t -> string list
(** [diff ~baseline fresh] lists every way [fresh]'s counters differ from
    [baseline]'s: a different selection, a counter missing on either side,
    or a changed value. Each line names the selection, the counter and
    both values. The gate passes exactly when the list is empty; [params]
    and [measured] are ignored. *)

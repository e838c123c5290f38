(** Tarjan's strongly connected components, iterative (an explicit frame
    stack: call and copy chains can be deeper than the OCaml stack).

    The graph is given by callbacks over nodes [0 .. n-1], so callers need
    not build it: [degree v] edges leave [v], and [succ v i] is the head of
    its [i]-th edge, or a negative number for an edge to ignore. The walk is
    deterministic: searches start from the root nodes in ascending order,
    and a node's edges are followed in index order. *)

val components :
  n:int ->
  root:(int -> bool) ->
  degree:(int -> int) ->
  succ:(int -> int -> int) ->
  (int list -> unit) ->
  unit
(** [components ~n ~root ~degree ~succ emit] calls [emit] on every
    component reachable from a node [v] with [root v], singletons included,
    in the order the components close: a component is emitted after every
    component it reaches. A component's members are listed in the order
    the search discovered them. [succ] must return a node
    below [n] or a negative number. *)

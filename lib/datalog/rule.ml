type term =
  | Var of int
  | Const of int

type atom = Relation.t * term array

type t = {
  rule_n_vars : int;
  rule_heads : atom array;
  rule_body : atom array;
  rule_neg : atom array;
  rule_lets : (int * (int array -> int)) array;
  rule_guards : (int array -> bool) array;
}

let check_atom what n_vars ((rel, terms) : atom) =
  if Array.length terms <> Relation.arity rel then
    invalid_arg
      (Printf.sprintf "Rule.make: %s atom %s has %d terms, arity is %d" what (Relation.name rel)
         (Array.length terms) (Relation.arity rel));
  Array.iter
    (function
      | Var v when v < 0 || v >= n_vars ->
        invalid_arg (Printf.sprintf "Rule.make: variable %d out of range in %s" v (Relation.name rel))
      | Var _ | Const _ -> ())
    terms

let bound_by_body body lets n_vars =
  let bound = Array.make n_vars false in
  List.iter
    (fun ((_, terms) : atom) ->
      Array.iter (function Var v -> bound.(v) <- true | Const _ -> ()) terms)
    body;
  List.iter (fun (v, _) -> bound.(v) <- true) lets;
  bound

let make ~n_vars ~heads ~body ?(neg = []) ?(lets = []) ?(guards = []) () =
  if n_vars < 0 then invalid_arg "Rule.make: negative n_vars";
  List.iter (check_atom "head" n_vars) heads;
  List.iter (check_atom "body" n_vars) body;
  List.iter (check_atom "negated" n_vars) neg;
  List.iter
    (fun (v, _) ->
      if v < 0 || v >= n_vars then invalid_arg "Rule.make: let variable out of range")
    lets;
  let bound = bound_by_body body lets n_vars in
  let check_bound what ((rel, terms) : atom) =
    Array.iter
      (function
        | Var v when not bound.(v) ->
          invalid_arg
            (Printf.sprintf "Rule.make: unbound variable %d in %s atom %s" v what
               (Relation.name rel))
        | Var _ | Const _ -> ())
      terms
  in
  List.iter (check_bound "head") heads;
  List.iter (check_bound "negated") neg;
  if heads = [] then invalid_arg "Rule.make: a rule needs at least one head";
  {
    rule_n_vars = n_vars;
    rule_heads = Array.of_list heads;
    rule_body = Array.of_list body;
    rule_neg = Array.of_list neg;
    rule_lets = Array.of_list lets;
    rule_guards = Array.of_list guards;
  }

let n_vars t = t.rule_n_vars
let heads t = t.rule_heads
let body t = t.rule_body
let neg t = t.rule_neg
let lets t = t.rule_lets
let guards t = t.rule_guards

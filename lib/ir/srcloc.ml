type pos = { line : int; col : int }

let no_pos = { line = 0; col = 0 }

let synthetic_file = "<synthetic>"

type t = {
  file : string;
  classes : pos array;
  fields : pos array;
  meths : pos array;
  vars : pos array;
  heaps : pos array;
  invos : pos array;
  instrs : pos array array;
  catches : pos array array;
}

let get (arr : pos array) i = if i >= 0 && i < Array.length arr then arr.(i) else no_pos

let get2 (arr : pos array array) m k =
  if m >= 0 && m < Array.length arr then get arr.(m) k else no_pos

let class_pos t c = get t.classes c
let field_pos t f = get t.fields f
let meth_pos t m = get t.meths m
let var_pos t v = get t.vars v
let invo_pos t i = get t.invos i
let instr_pos t m k = get2 t.instrs m k
let catch_pos t m k = get2 t.catches m k

module Builder = Ipa_ir.Builder

type t = {
  b : Builder.t;
  object_cls : Ipa_ir.Program.class_id;
  main_cls : Ipa_ir.Program.class_id;
  main : Ipa_ir.Program.meth_id;
  mutable counter : int;
}

let create () =
  let b = Builder.create () in
  let object_cls = Builder.add_class b "Object" in
  let main_cls = Builder.add_class b ~super:object_cls "Main" in
  let main = Builder.add_method b ~owner:main_cls ~name:"main" ~static:true ~params:[] () in
  Builder.add_entry b main;
  { b; object_cls; main_cls; main; counter = 0 }

let fresh t prefix =
  t.counter <- t.counter + 1;
  Printf.sprintf "%s%d" prefix t.counter

let main_var t prefix = Builder.add_var t.b t.main (fresh t prefix)

let finish t = Builder.finish t.b

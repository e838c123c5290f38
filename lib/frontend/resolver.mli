(** Name resolution: {!Ast.program} to [Ipa_ir.Program.t].

    The resolver is two-phase, so forward references between classes and
    methods are allowed anywhere in a compilation unit: phase one declares
    classes (in a topological order of the hierarchy), fields and method
    signatures; phase two fills method bodies and entry points through
    [Ipa_ir.Builder], which runs the well-formedness checker. *)

type error = { pos : Ast.pos; msg : string }


val resolve : ?file:string -> Ast.program -> (Ipa_ir.Program.t, error) result
(** [resolve ?file ast] names the source file in the resulting program's
    {!Ipa_ir.Srcloc.t} (diagnostics then carry [file:line:col] spans); the
    declaration and statement positions from the AST are recorded either way.
    Resolution rules:
    - classes/interfaces: names are global, duplicates rejected; the
      hierarchy must be acyclic;
    - variables: [this], the formals, and every [var]-declared local, scoped
      to the whole method regardless of declaration position;
    - qualified field references [C::f] name the field declared exactly in
      [C]; unqualified references [f] are allowed when exactly one field of
      that name exists in the program;
    - static calls and entry points [C::m/k] find [m/k] declared in [C] or
      inherited through the [super] chain. *)

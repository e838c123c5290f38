(** Textual rendering of programs in the [.jir] format.

    The format round-trips through [Ipa_frontend]: for programs built with
    {!Builder} (whose class order is topological by construction),
    [parse (program p)] reconstructs an equivalent program. Grammar sketch:

    {v
    program  := (class | interface | entry)*
    class    := "class" ID ["extends" ID] ["implements" ID {"," ID}] "{" member* "}"
    interface:= "interface" ID ["extends" ID {"," ID}] "{" member* "}"
    member   := ["static"] "field" ID ";"
              | ["static"] "method" ID "/" INT [params "{" stmt* "}" | ";"]
    stmt     := "var" ID {"," ID} ";"
              | ID "=" "new" ID ";"                 (alloc)
              | ID "=" "(" ID ")" ID ";"            (cast)
              | ID "=" ID ";"                       (move)
              | ID "=" ID "." fieldref ";"          (load)
              | ID "." fieldref "=" ID ";"          (store)
              | ID "=" ID "::" ID ";"               (static load)
              | ID "::" ID "=" ID ";"               (static store)
              | [ID "="] ID "." ID "(" args ")" ";" (virtual call)
              | [ID "="] ID "::" ID "(" args ")" ";"(static call)
              | "return" [ID] ";"
    fieldref := [ID "::"] ID
    entry    := "entry" ID "::" ID "/" INT ";"
    v} *)

val program : Program.t -> string
(** Render the whole program. *)

(* Cast-safety client: use the points-to analysis to prove downcasts safe.

   The input program (in .jir concrete syntax, parsed by the front-end) is a
   small plugin registry: plugins are created by a factory, stored through a
   shared setter, retrieved, and downcast to their concrete type. A
   context-insensitive analysis conflates the registry slots and reports
   every downcast as potentially failing; the introspective 2objH analysis
   proves them all safe while remaining robustly scalable.

   Run with: dune exec examples/cast_safety.exe *)

let source = {|
class Object { }
interface Plugin {
  method init/0;
}
class Registry {
  field slot;
  method put/1 (p) { this.slot = p; }
  method get/0 () { var t; t = this.slot; return t; }
}
class RegistryFactory {
  static method make/0 () { var r; r = new Registry; return r; }
}

class AudioPlugin extends Object implements Plugin {
  method init/0 () { return this; }
}
class VideoPlugin extends Object implements Plugin {
  method init/0 () { return this; }
}
class NetworkPlugin extends Object implements Plugin {
  method init/0 () { return this; }
}

class Host {
  static method audio/0 () {
    var r, p, g, c;
    r = RegistryFactory::make();
    p = new AudioPlugin;
    r.put(p);
    g = r.get();
    c = (AudioPlugin) g;
    return c;
  }
  static method video/0 () {
    var r, p, g, c;
    r = RegistryFactory::make();
    p = new VideoPlugin;
    r.put(p);
    g = r.get();
    c = (VideoPlugin) g;
    return c;
  }
  static method network/0 () {
    var r, p, g, c;
    r = RegistryFactory::make();
    p = new NetworkPlugin;
    r.put(p);
    g = r.get();
    c = (NetworkPlugin) g;
    return c;
  }
  static method main/0 () {
    var a, v, n;
    a = Host::audio();
    v = Host::video();
    n = Host::network();
  }
}
entry Host::main/0;
|}

module Program = Ipa_ir.Program

(* List every reachable cast and whether the analysis proves it safe. *)
let report_casts (r : Ipa_core.Analysis.result) =
  let p = r.solution.program in
  Printf.printf "--- %s (%.3fs) ---\n" r.label r.seconds;
  List.iter
    (fun (c : Ipa_core.Precision.cast) ->
      Printf.printf "  %-24s (%s) %s : %s\n" (Program.meth_full_name p c.meth)
        (Program.class_name p c.target_type)
        (Program.var_info p c.source).var_name
        (if Ipa_core.Precision.may_fail c then "MAY FAIL" else "safe"))
    (Ipa_core.Precision.casts r.solution);
  print_newline ()

let () =
  let p =
    match Ipa_frontend.Jir.parse_string source with
    | Ok p -> p
    | Error e -> failwith (Ipa_frontend.Jir.error_to_string e)
  in
  (* All registries come from one allocation site inside the factory, so the
     context-insensitive analysis merges their contents: every cast "may
     fail". *)
  report_casts (Ipa_core.Analysis.run_plain p Ipa_core.Flavors.Insensitive);
  (* Call-site-sensitivity separates the three factory invocations: every
     cast is proven safe. *)
  report_casts (Ipa_core.Analysis.run_plain p (Ipa_core.Flavors.Call_site { depth = 2; heap = 1 }));
  (* The introspective variant keeps that precision here — nothing in this
     small program trips the cost heuristics — while guaranteeing the
     analysis cannot blow up on a hostile input. *)
  let intro =
    Ipa_core.Analysis.run_introspective p
      (Ipa_core.Flavors.Call_site { depth = 2; heap = 1 })
      Ipa_core.Heuristics.default_b
  in
  report_casts intro.second

type spec = {
  name : string;
  seed : int;
  generate : scale:float -> World.t -> unit;
}

(* Scale a motif size, keeping it at least 1. *)
let sc scale n = max 1 (int_of_float (Float.round (float_of_int n *. scale)))

let antlr ~scale w =
  let s = sc scale in
  Motifs.exceptional w ~n:(s 15);
  Motifs.ballast w ~n:(s 800);
  Motifs.chains w ~n:(s 60) ~depth:6;
  Motifs.factory_boxes w ~n:(s 40);
  Motifs.factory_boxes w ~n:(s 12) ~junk:(s 110);
  Motifs.listeners w ~n:(s 25);
  Motifs.dispatch_storm w ~wrappers:(s 35) ~payload:(s 450) ~depth:5

let bloat ~scale w =
  let s = sc scale in
  Motifs.exceptional w ~n:(s 15);
  Motifs.ballast w ~n:(s 5500);
  Motifs.chains w ~n:(s 40) ~depth:5;
  Motifs.factory_boxes w ~n:(s 60);
  Motifs.factory_boxes w ~n:(s 25) ~junk:(s 110);
  Motifs.dispatch_storm w ~recursive:true ~wrappers:(s 220) ~payload:(s 5200) ~depth:10;
  Motifs.mega_hub w ~items:(s 1100) ~users:(s 160) ~chain:2

let chart ~scale w =
  let s = sc scale in
  Motifs.exceptional w ~n:(s 20);
  Motifs.ballast w ~n:(s 1200);
  Motifs.chains w ~n:(s 50) ~depth:5;
  Motifs.factory_boxes w ~n:(s 80);
  Motifs.factory_boxes w ~n:(s 30) ~junk:(s 110);
  Motifs.listeners w ~n:(s 40);
  Motifs.mega_hub w ~items:(s 500) ~users:(s 60) ~chain:2;
  Motifs.dispatch_storm w ~wrappers:(s 30) ~payload:(s 450) ~depth:5

let eclipse ~scale w =
  let s = sc scale in
  Motifs.exceptional w ~n:(s 18);
  Motifs.ballast w ~n:(s 1500);
  Motifs.chains w ~n:(s 70) ~depth:6;
  Motifs.factory_boxes w ~n:(s 70);
  Motifs.factory_boxes w ~n:(s 28) ~junk:(s 110);
  Motifs.listeners w ~n:(s 30);
  Motifs.mega_hub w ~items:(s 700) ~users:(s 90) ~chain:2;
  Motifs.dispatch_storm w ~wrappers:(s 35) ~payload:(s 500) ~depth:5

let hsqldb ~scale w =
  let s = sc scale in
  Motifs.exceptional w ~n:(s 12);
  Motifs.ballast w ~n:(s 4000);
  Motifs.chains w ~n:(s 30) ~depth:4;
  Motifs.factory_boxes w ~n:(s 50);
  Motifs.factory_boxes w ~n:(s 20) ~junk:(s 110);
  Motifs.listeners w ~n:(s 20);
  Motifs.mega_hub w ~items:(s 3400) ~users:(s 340) ~chain:3

let jython ~scale w =
  let s = sc scale in
  Motifs.exceptional w ~n:(s 12);
  Motifs.ballast w ~n:(s 1000);
  Motifs.chains w ~n:(s 30) ~depth:4;
  Motifs.factory_boxes w ~n:(s 50);
  Motifs.factory_boxes w ~n:(s 20) ~junk:(s 110);
  Motifs.interp_loop w ~feedback:true ~ops:(s 1200) ~vals:3 ~steps:8 ~family:4;
  Motifs.mega_hub w ~items:(s 2200) ~users:(s 20) ~typed_users:(s 300) ~chain:1

let lusearch ~scale w =
  let s = sc scale in
  Motifs.exceptional w ~n:(s 10);
  Motifs.ballast w ~n:(s 600);
  Motifs.chains w ~n:(s 50) ~depth:5;
  Motifs.factory_boxes w ~n:(s 30);
  Motifs.factory_boxes w ~n:(s 10) ~junk:(s 110);
  Motifs.listeners w ~n:(s 20);
  Motifs.dispatch_storm w ~wrappers:(s 30) ~payload:(s 400) ~depth:5

let pmd ~scale w =
  let s = sc scale in
  Motifs.exceptional w ~n:(s 20);
  Motifs.ballast w ~n:(s 1500);
  Motifs.chains w ~n:(s 60) ~depth:6;
  Motifs.factory_boxes w ~n:(s 90);
  Motifs.factory_boxes w ~n:(s 35) ~junk:(s 110);
  Motifs.listeners w ~n:(s 30);
  Motifs.mega_hub w ~items:(s 900) ~users:(s 110) ~chain:2;
  Motifs.dispatch_storm w ~wrappers:(s 35) ~payload:(s 500) ~depth:5

let xalan ~scale w =
  let s = sc scale in
  Motifs.exceptional w ~n:(s 15);
  Motifs.ballast w ~n:(s 5500);
  Motifs.chains w ~n:(s 40) ~depth:5;
  Motifs.factory_boxes w ~n:(s 60);
  Motifs.factory_boxes w ~n:(s 25) ~junk:(s 110);
  Motifs.dispatch_storm w ~recursive:true ~wrappers:(s 220) ~payload:(s 5200) ~depth:10;
  Motifs.mega_hub w ~items:(s 1800) ~users:(s 150) ~chain:3

let all =
  [
    { name = "antlr"; seed = 0xA171; generate = antlr };
    { name = "bloat"; seed = 0xB10A; generate = bloat };
    { name = "chart"; seed = 0xC4A7; generate = chart };
    { name = "eclipse"; seed = 0xEC11; generate = eclipse };
    { name = "hsqldb"; seed = 0x45DB; generate = hsqldb };
    { name = "jython"; seed = 0x1707; generate = jython };
    { name = "lusearch"; seed = 0x105E; generate = lusearch };
    { name = "pmd"; seed = 0x93D0; generate = pmd };
    { name = "xalan"; seed = 0xAA1A; generate = xalan };
  ]

let hard_names = [ "bloat"; "chart"; "eclipse"; "hsqldb"; "jython"; "pmd"; "xalan" ]
let charted_names = [ "bloat"; "chart"; "eclipse"; "hsqldb"; "jython"; "xalan" ]

let of_names names = List.filter (fun s -> List.mem s.name names) all

let hard = of_names hard_names
let charted = of_names charted_names

let find name = List.find_opt (fun s -> s.name = name) all

let build ?(scale = 1.0) spec =
  let w = World.create () in
  spec.generate ~scale w;
  World.finish w

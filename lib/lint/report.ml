(* Reporters over sorted diagnostic lists. All three formats are
   deterministic functions of the input list, so jobs=N runs emit
   byte-identical reports. *)

module Diagnostic = Ipa_ir.Diagnostic
module Json = Ipa_support.Json

let tool_name = "introspect"
let tool_version = "1.0.0"

let human (ds : Diagnostic.t list) =
  String.concat "" (List.map (fun d -> Diagnostic.to_human d ^ "\n") ds)

let json_of_diag (d : Diagnostic.t) =
  Json.Obj
    [
      ("rule", Json.Str d.rule);
      ("severity", Json.Str (Diagnostic.severity_to_string d.severity));
      ("file", if d.span.file = "" then Json.Null else Json.Str d.span.file);
      ("line", Json.Int d.span.line);
      ("col", Json.Int d.span.col);
      ("entity", Json.Str d.entity);
      ("message", Json.Str d.message);
      ("witnesses", Json.List (List.map (fun w -> Json.Str w) d.witnesses));
      ("fingerprint", Json.Str (Diagnostic.fingerprint d));
    ]

let jsonl (ds : Diagnostic.t list) =
  String.concat "" (List.map (fun d -> Json.to_string (json_of_diag d) ^ "\n") ds)

(* SARIF 2.1.0: one run, one driver, rule metadata for every rule that could
   fire (the whole registry of the invocation), one result per finding. *)
let sarif_level (s : Diagnostic.severity) =
  match s with Error -> "error" | Warning -> "warning" | Info -> "note"

let sarif ?(rules : Lint.rule list = Lint.all_rules) (ds : Diagnostic.t list) =
  let rule_meta (r : Lint.rule) =
    Json.Obj
      [
        ("id", Json.Str r.id);
        ("name", Json.Str r.name);
        ("shortDescription", Json.Obj [ ("text", Json.Str r.doc) ]);
        ( "defaultConfiguration",
          Json.Obj [ ("level", Json.Str (sarif_level r.severity)) ] );
      ]
  in
  let result (d : Diagnostic.t) =
    let location =
      if d.span.line = 0 && d.span.file = "" then []
      else
        [
          ( "locations",
            Json.List
              [
                Json.Obj
                  [
                    ( "physicalLocation",
                      Json.Obj
                        [
                          ( "artifactLocation",
                            Json.Obj
                              [ ("uri", Json.Str (if d.span.file = "" then "<unknown>" else d.span.file)) ]
                          );
                          ( "region",
                            Json.Obj
                              [
                                ("startLine", Json.Int (max 1 d.span.line));
                                ("startColumn", Json.Int (max 1 d.span.col));
                              ] );
                        ] );
                  ];
              ] );
        ]
    in
    let message =
      match d.witnesses with
      | [] -> d.message
      | ws -> d.message ^ " [" ^ String.concat "; " ws ^ "]"
    in
    Json.Obj
      ([
         ("ruleId", Json.Str d.rule);
         ("level", Json.Str (sarif_level d.severity));
         ("message", Json.Obj [ ("text", Json.Str message) ]);
       ]
      @ location
      @ [
          ( "partialFingerprints",
            Json.Obj [ ("ipaFindingId/v1", Json.Str (Diagnostic.fingerprint d)) ] );
        ])
  in
  let doc =
    Json.Obj
      [
        ("version", Json.Str "2.1.0");
        ( "$schema",
          Json.Str
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"
        );
        ( "runs",
          Json.List
            [
              Json.Obj
                [
                  ( "tool",
                    Json.Obj
                      [
                        ( "driver",
                          Json.Obj
                            [
                              ("name", Json.Str tool_name);
                              ("version", Json.Str tool_version);
                              ("informationUri", Json.Str "https://example.org/introspect");
                              ("rules", Json.List (List.map rule_meta rules));
                            ] );
                      ] );
                  ("results", Json.List (List.map result ds));
                ];
            ] );
      ]
  in
  Json.to_string ~pretty:true doc ^ "\n"

type format = Human | Jsonl | Sarif

let render ?rules fmt ds =
  match fmt with Human -> human ds | Jsonl -> jsonl ds | Sarif -> sarif ?rules ds

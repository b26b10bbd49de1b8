(** Tests for the [parcoachd] serve layer: the JSON codec, the source
    chunker, the content-hashed summary keys, warm/cold report identity
    through the daemon, the worker pool, and [Driver.analyze ?reuse]. *)

open Minilang
module Gen = QCheck.Gen

let serve_options =
  {
    Parcoach.Driver.default_options with
    Parcoach.Driver.taint_filter = true;
    interprocedural = true;
    races = true;
  }

(* A small interprocedural program used by the cache-key tests: [main]
   calls [helper], [helper] calls [leaf]; [loner] is unrelated. *)
let base_source =
  "func leaf() {\n\
  \  MPI_Barrier();\n\
   }\n\
   func helper() {\n\
  \  leaf();\n\
   }\n\
   func loner() {\n\
  \  var t = 1;\n\
  \  t = MPI_Allreduce(t, sum);\n\
   }\n\
   func main() {\n\
  \  helper();\n\
  \  MPI_Barrier();\n\
   }\n"

let parse source = Parser.parse_string ~file:"test.hml" source

(* First-occurrence substring replacement (enough for these tests; no
   regexp library needed). *)
let replace ~sub ~by s =
  let rec find i =
    if i + String.length sub > String.length s then
      Alcotest.failf "replace: %s not found" sub
    else if String.equal (String.sub s i (String.length sub)) sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by
  ^ String.sub s
      (i + String.length sub)
      (String.length s - i - String.length sub)

let keys_of source =
  List.map
    (fun (f, k) -> (f.Ast.fname, k))
    (Serve.Hash.keys ~options:serve_options (parse source))

let key tbl name =
  match List.assoc_opt name tbl with
  | Some k -> k
  | None -> Alcotest.failf "no key for %s" name

(* ------------------------------------------------------------------ *)
(* JSON codec                                                          *)
(* ------------------------------------------------------------------ *)

let rec json_equal a b =
  match (a, b) with
  | Serve.Json.Null, Serve.Json.Null -> true
  | Serve.Json.Bool x, Serve.Json.Bool y -> x = y
  | Serve.Json.Int x, Serve.Json.Int y -> x = y
  | Serve.Json.Float x, Serve.Json.Float y -> x = y
  | Serve.Json.Str x, Serve.Json.Str y -> String.equal x y
  | Serve.Json.List x, Serve.Json.List y ->
      List.length x = List.length y && List.for_all2 json_equal x y
  | Serve.Json.Obj x, Serve.Json.Obj y ->
      List.length x = List.length y
      && List.for_all2
           (fun (ka, va) (kb, vb) -> String.equal ka kb && json_equal va vb)
           x y
  | _ -> false

let test_json_roundtrip () =
  let v =
    Serve.Json.Obj
      [
        ("id", Serve.Json.Int 7);
        ("pi", Serve.Json.Float 3.5);
        ("name", Serve.Json.Str "a \"quoted\"\n\tstring \\ with\rescapes");
        ("flag", Serve.Json.Bool true);
        ("nothing", Serve.Json.Null);
        ( "items",
          Serve.Json.List
            [ Serve.Json.Int 1; Serve.Json.Str ""; Serve.Json.Bool false ] );
        ("empty_obj", Serve.Json.Obj []);
        ("empty_list", Serve.Json.List []);
      ]
  in
  match Serve.Json.parse (Serve.Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "round trip" true (json_equal v v')
  | Error msg -> Alcotest.failf "round trip failed: %s" msg

let test_json_unicode () =
  match Serve.Json.parse {|{"s":"café ✓"}|} with
  | Ok v ->
      Alcotest.(check (option string))
        "utf8 decoding"
        (Some "caf\xc3\xa9 \xe2\x9c\x93")
        (Option.bind (Serve.Json.member "s" v) Serve.Json.to_str)
  | Error msg -> Alcotest.failf "unicode parse failed: %s" msg

let test_json_errors () =
  let bad s =
    match Serve.Json.parse s with
    | Ok _ -> Alcotest.failf "expected parse error for %s" s
    | Error _ -> ()
  in
  bad "{\"a\":1} trailing";
  bad "{\"a\":}";
  bad "\"unterminated";
  bad "[1,]";
  bad "{\"a\" 1}";
  bad "nul"

let test_json_raw_splice () =
  let v =
    Serve.Json.Obj
      [ ("ok", Serve.Json.Bool true); ("report", Serve.Json.Raw {|{"n":1}|}) ]
  in
  Alcotest.(check string)
    "raw spliced verbatim" {|{"ok":true,"report":{"n":1}}|}
    (Serve.Json.to_string v)

(* ------------------------------------------------------------------ *)
(* Chunker                                                             *)
(* ------------------------------------------------------------------ *)

let locs_of_program (p : Ast.program) =
  List.concat_map
    (fun f -> f.Ast.floc :: List.map (fun s -> s.Ast.sloc) (Ast.stmts_of_func f))
    p.Ast.funcs

let chunked_parse ~file source =
  match Serve.Chunker.split source with
  | { Serve.Chunker.clean = false; _ } -> None
  | { Serve.Chunker.chunks; _ } ->
      Some
        {
          Ast.funcs =
            List.map
              (fun (c : Serve.Chunker.chunk) ->
                match (Parser.parse_string ~file:"" c.Serve.Chunker.text).Ast.funcs with
                | [ f ] ->
                    Serve.Chunker.shift_func ~file ~line:c.Serve.Chunker.line
                      ~col:c.Serve.Chunker.col f
                | _ -> Alcotest.fail "chunk is not a single function")
              chunks;
        }

let check_chunked_equals_direct source =
  let direct = parse source in
  match chunked_parse ~file:"test.hml" source with
  | None -> Alcotest.fail "splitter rejected a clean source"
  | Some via_chunks ->
      Alcotest.(check bool)
        "chunked parse structurally equal" true
        (Ast.equal_program direct via_chunks);
      Alcotest.(check bool)
        "chunked parse locations equal" true
        (List.for_all2 Loc.equal (locs_of_program direct)
           (locs_of_program via_chunks))

let test_chunker_equals_direct () =
  check_chunked_equals_direct base_source;
  (* Comments (with a decoy 'func' keyword), blank lines, and a closing
     brace sharing a line with the next function's keyword. *)
  check_chunked_equals_direct
    "// leading comment, func decoy\n\n\
     func one() {\n\
  \  /* block comment { with braces } and func decoy */\n\
  \  MPI_Barrier();\n\
     }\n\n\
     func two() { MPI_Barrier(); }\n\
     func three() {\n\
  \  two();\n\
     }\n"

let test_chunker_fallback () =
  let unclean source =
    let { Serve.Chunker.clean; _ } = Serve.Chunker.split source in
    Alcotest.(check bool) (Printf.sprintf "unclean: %s" source) false clean
  in
  unclean "garbage func main() { }";
  unclean "func broken() {";
  unclean "func broken() { } }";
  unclean "func c() { } /* unterminated";
  unclean ""

let prop_chunker_roundtrip =
  QCheck.Test.make ~name:"chunked parse = direct parse (incl. locations)"
    ~count:40 Test_qcheck.arb_program (fun p ->
      let source = Pretty.program_to_string p in
      let direct = parse source in
      match chunked_parse ~file:"test.hml" source with
      | None -> false
      | Some via_chunks ->
          Ast.equal_program direct via_chunks
          && List.for_all2 Loc.equal (locs_of_program direct)
               (locs_of_program via_chunks))

(* ------------------------------------------------------------------ *)
(* Summary-cache keys                                                  *)
(* ------------------------------------------------------------------ *)

let test_keys_ignore_layout () =
  let base = keys_of base_source in
  (* Inserting comments and blank lines shifts every location but no
     key. *)
  let commented =
    "// a new leading comment\n\n"
    ^ String.concat "\n// mid comment\n"
        [ base_source; "func extra_unused() {\n  MPI_Barrier();\n}\n" ]
  in
  let shifted = keys_of commented in
  List.iter
    (fun (name, k) ->
      Alcotest.(check string) (name ^ " key unchanged") k (key shifted name))
    base

let test_keys_ignore_unrelated () =
  let base = keys_of base_source in
  (* Renaming [loner] (referenced by nobody) leaves the other keys
     alone. *)
  let renamed = replace ~sub:"loner" ~by:"renamed_loner" base_source in
  let renamed_keys = keys_of renamed in
  List.iter
    (fun name ->
      Alcotest.(check string)
        (name ^ " key survives unrelated rename")
        (key base name) (key renamed_keys name))
    [ "leaf"; "helper"; "main" ];
  (* Reordering functions changes no key. *)
  let p = parse base_source in
  let reordered =
    Pretty.program_to_string { Ast.funcs = List.rev p.Ast.funcs }
  in
  let reordered_keys = keys_of reordered in
  List.iter
    (fun (name, k) ->
      Alcotest.(check string) (name ^ " key survives reorder") k
        (key reordered_keys name))
    base

let test_keys_track_bodies () =
  let base = keys_of base_source in
  (* Editing [leaf]'s body invalidates leaf and its transitive callers
     (helper, main) but not the unrelated [loner]. *)
  let edited =
    replace
      ~sub:"func leaf() {\n  MPI_Barrier();\n}"
      ~by:"func leaf() {\n  MPI_Barrier();\n  MPI_Barrier();\n}" base_source
  in
  let edited_keys = keys_of edited in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ " key invalidated by callee edit")
        false
        (String.equal (key base name) (key edited_keys name)))
    [ "leaf"; "helper"; "main" ];
  Alcotest.(check string)
    "loner key untouched by leaf edit" (key base "loner")
    (key edited_keys "loner");
  (* Different analysis options give different keys for every function. *)
  let other_options =
    List.map
      (fun (f, k) -> (f.Ast.fname, k))
      (Serve.Hash.keys ~options:Parcoach.Driver.default_options
         (parse base_source))
  in
  List.iter
    (fun (name, k) ->
      Alcotest.(check bool)
        (name ^ " key depends on options")
        false
        (String.equal k (key other_options name)))
    base

let prop_keys_location_insensitive =
  QCheck.Test.make ~name:"summary keys ignore locations" ~count:40
    Test_qcheck.arb_program (fun p ->
      let reparsed = parse (Pretty.program_to_string p) in
      List.for_all2
        (fun (a, ka) (b, kb) ->
          String.equal a.Ast.fname b.Ast.fname && String.equal ka kb)
        (Serve.Hash.keys ~options:serve_options p)
        (Serve.Hash.keys ~options:serve_options reparsed))

(* ------------------------------------------------------------------ *)
(* Daemon: warm = cold, incrementality, relocation                     *)
(* ------------------------------------------------------------------ *)

let analysis_exn label = function
  | Ok (a : Serve.Daemon.analysis) -> a
  | Error _ -> Alcotest.failf "%s: analysis failed validation" label

let cold_json source =
  Parcoach.Json_report.to_string
    (Parcoach.Driver.analyze ~options:serve_options ~jobs:1
       (Parser.parse_string ~file:"warm.hml" source))

let test_daemon_warm_identity () =
  let daemon = Serve.Daemon.create () in
  let seed =
    analysis_exn "seed"
      (Serve.Daemon.analyze_source daemon ~options:serve_options ~jobs:1
         ~file:"warm.hml" base_source)
  in
  Alcotest.(check int) "cold request analyses everything" 0
    seed.Serve.Daemon.reused;
  (* A leading comment shifts every line; the [main] edit re-analyses
     exactly one function; cached summaries must be relocated so the
     merged report is byte-identical to a cold analysis. *)
  let edited =
    "// shift every line down\n"
    ^ replace
        ~sub:"func main() {\n  helper();"
        ~by:"func main() {\n  var fresh = 3;\n  helper();" base_source
  in
  let warm =
    analysis_exn "warm"
      (Serve.Daemon.analyze_source daemon ~options:serve_options ~jobs:1
         ~file:"warm.hml" edited)
  in
  Alcotest.(check int) "one function re-analysed" 1 warm.Serve.Daemon.analysed;
  Alcotest.(check int) "three summaries reused" 3 warm.Serve.Daemon.reused;
  Alcotest.(check string)
    "warm report byte-identical to cold"
    (cold_json edited)
    (Parcoach.Json_report.to_string warm.Serve.Daemon.report);
  (* Re-sending the same source must hit the whole-source AST cache and
     still produce the identical report. *)
  let again =
    analysis_exn "again"
      (Serve.Daemon.analyze_source daemon ~options:serve_options ~jobs:1
         ~file:"warm.hml" edited)
  in
  Alcotest.(check string)
    "replayed report identical"
    (cold_json edited)
    (Parcoach.Json_report.to_string again.Serve.Daemon.report)

let test_daemon_invalid_source () =
  let daemon = Serve.Daemon.create () in
  (match
     Serve.Daemon.analyze_source daemon ~options:serve_options
       "func main() { no_such_function(); }"
   with
  | Ok _ -> Alcotest.fail "undefined call should not validate"
  | Error issues ->
      Alcotest.(check bool) "validation errors reported" false
        (Validate.is_valid issues));
  match Serve.Daemon.analyze_source daemon ~options:serve_options "func main( {" with
  | Ok _ -> Alcotest.fail "syntax error should not analyse"
  | Error issues ->
      Alcotest.(check int) "one parse issue" 1 (List.length issues)

(* Drive [Daemon.serve] through temp files and collect responses keyed by
   request id (responses may arrive out of order with a pool). *)
let run_serve ~pool lines =
  let in_path = Filename.temp_file "parcoachd_test" ".in" in
  let out_path = Filename.temp_file "parcoachd_test" ".out" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove in_path;
      Sys.remove out_path)
    (fun () ->
      let oc = open_out in_path in
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines;
      close_out oc;
      let ic = open_in in_path in
      let oc = open_out out_path in
      let daemon = Serve.Daemon.create () in
      Serve.Daemon.serve ~pool daemon ic oc;
      close_in ic;
      close_out oc;
      let ic = open_in out_path in
      let rec read acc =
        match input_line ic with
        | line -> read (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      let lines = read [] in
      close_in ic;
      List.map
        (fun line ->
          match Serve.Json.parse line with
          | Error msg -> Alcotest.failf "bad response %s: %s" line msg
          | Ok v -> (
              match
                Option.bind (Serve.Json.member "id" v) Serve.Json.to_int
              with
              | Some id -> (id, v)
              | None -> Alcotest.failf "response without id: %s" line))
        lines)

let analyze_request id source =
  Serve.Json.to_string
    (Serve.Json.Obj
       [
         ("id", Serve.Json.Int id);
         ("method", Serve.Json.Str "analyze");
         ( "params",
           Serve.Json.Obj
             [
               ("source", Serve.Json.Str source);
               ("file", Serve.Json.Str "pool.hml");
               ("taint_filter", Serve.Json.Bool true);
               ("interprocedural", Serve.Json.Bool true);
               ("races", Serve.Json.Bool true);
               ("jobs", Serve.Json.Int 1);
             ] );
       ])

(* The analysis payload of a response: everything except the cache
   counters and timings, which legitimately depend on scheduling. *)
let payload response =
  let part name =
    match Serve.Json.member name response with
    | Some v -> Serve.Json.to_string v
    | None -> "<absent>"
  in
  String.concat "|" [ part "ok"; part "valid"; part "report"; part "warnings" ]

let test_daemon_pool_deterministic () =
  let edit n =
    replace ~sub:"func main() {"
      ~by:(Printf.sprintf "func main() {\n  var round = %d;\n  compute(round);" n)
      base_source
  in
  let requests = List.init 6 (fun i -> analyze_request i (edit (i mod 3))) in
  let sequential = run_serve ~pool:1 requests in
  (* 200 is past OCaml's limit on live domains: the pool must clamp. *)
  List.iter
    (fun width ->
      let pooled = run_serve ~pool:width requests in
      Alcotest.(check int) "all requests answered" (List.length requests)
        (List.length pooled);
      List.iter
        (fun (id, seq_response) ->
          match List.assoc_opt id pooled with
          | None -> Alcotest.failf "pool %d lost response %d" width id
          | Some pooled_response ->
              Alcotest.(check string)
                (Printf.sprintf "response %d identical under pool %d" id width)
                (payload seq_response) (payload pooled_response))
        sequential)
    [ 4; 200 ]

let test_daemon_protocol_errors () =
  let daemon = Serve.Daemon.create () in
  let check_error label line =
    match Serve.Json.parse (Serve.Daemon.handle_line daemon line) with
    | Error msg -> Alcotest.failf "%s: unparsable response: %s" label msg
    | Ok v ->
        Alcotest.(check (option bool))
          label (Some false)
          (Option.bind (Serve.Json.member "ok" v) Serve.Json.to_bool)
  in
  check_error "bad json" "{nope";
  check_error "missing method" {|{"id":1}|};
  check_error "unknown method" {|{"id":1,"method":"frobnicate"}|};
  check_error "missing source" {|{"id":1,"method":"analyze"}|};
  check_error "bad level"
    {|{"id":1,"method":"analyze","params":{"source":"func main() { }","level":"nope"}}|};
  check_error "bad jobs"
    {|{"id":1,"method":"analyze","params":{"source":"func main() { }","jobs":0}}|};
  check_error "unknown warning class in only"
    {|{"id":1,"method":"analyze","params":{"source":"func main() { }","only":"no-such-class"}}|}

(* An integer literal above [max_int] is a syntax error located at the
   literal, reported like any other: a valid response with one issue. *)
let test_daemon_oversized_literal () =
  let daemon = Serve.Daemon.create () in
  let line =
    Serve.Json.to_string
      (Serve.Json.Obj
         [
           ("id", Serve.Json.Int 7);
           ("method", Serve.Json.Str "analyze");
           ( "params",
             Serve.Json.Obj
               [
                 ( "source",
                   Serve.Json.Str
                     "func main() {\n  var x = 99999999999999999999;\n}\n" );
                 ("file", Serve.Json.Str "big.hml");
               ] );
         ])
  in
  match Serve.Json.parse (Serve.Daemon.handle_line daemon line) with
  | Error msg -> Alcotest.failf "unparsable response: %s" msg
  | Ok v -> (
      let field name conv = Option.bind (Serve.Json.member name v) conv in
      Alcotest.(check (option bool)) "ok" (Some true) (field "ok" Serve.Json.to_bool);
      Alcotest.(check (option bool)) "valid" (Some false)
        (field "valid" Serve.Json.to_bool);
      match Serve.Json.member "issues" v with
      | Some (Serve.Json.List [ issue ]) ->
          let get name conv = Option.bind (Serve.Json.member name issue) conv in
          let loc name =
            Option.bind (Serve.Json.member "loc" issue) (fun l ->
                Option.bind (Serve.Json.member name l) Serve.Json.to_int)
          in
          Alcotest.(check (option int)) "line" (Some 2) (loc "line");
          Alcotest.(check (option int)) "col" (Some 11) (loc "col");
          Alcotest.(check bool) "lex error message" true
            (match get "message" Serve.Json.to_str with
            | Some m ->
                String.starts_with
                  ~prefix:"lex error: integer literal 99999999999999999999" m
            | None -> false)
      | _ -> Alcotest.fail "expected exactly one issue")

(* The requests pass and the warning-class filter, shared with
   [parcoachc --requests] / [--only]. *)
let test_daemon_only_filter () =
  let source =
    "func main() {\n\
    \  r = MPI_Ibarrier();\n\
    \  if (rank() == 0) {\n\
    \    MPI_Wait(r);\n\
    \  }\n\
     }\n"
  in
  let request id only =
    Serve.Json.to_string
      (Serve.Json.Obj
         ([
            ("id", Serve.Json.Int id);
            ("method", Serve.Json.Str "analyze");
          ]
         @ [
             ( "params",
               Serve.Json.Obj
                 ([
                    ("source", Serve.Json.Str source);
                    ("file", Serve.Json.Str "only.hml");
                    ("taint_filter", Serve.Json.Bool true);
                    ("requests", Serve.Json.Bool true);
                  ]
                 @
                 match only with
                 | None -> []
                 | Some classes -> [ ("only", Serve.Json.Str classes) ]) );
           ]))
  in
  let warning_count response =
    match
      Option.bind (Serve.Json.member "warnings" response) Serve.Json.to_int
    with
    | Some n -> n
    | None -> Alcotest.failf "response without warning count"
  in
  let responses =
    run_serve ~pool:1
      [
        request 1 None;
        request 2 (Some "request leak");
        request 3 (Some "data race");
      ]
  in
  let get id = List.assoc id responses in
  (* Unfiltered: the leak and the completion mismatch. *)
  Alcotest.(check int) "both warnings unfiltered" 2 (warning_count (get 1));
  Alcotest.(check int) "leak only" 1 (warning_count (get 2));
  Alcotest.(check int) "disjoint class filters everything" 0
    (warning_count (get 3))

(* ------------------------------------------------------------------ *)
(* Driver.analyze ?reuse                                               *)
(* ------------------------------------------------------------------ *)

let test_driver_reuse_identity () =
  let program = parse base_source in
  let cold = Parcoach.Driver.analyze ~options:serve_options ~jobs:1 program in
  let by_name =
    List.map (fun (fr : Parcoach.Driver.func_report) -> (fr.Parcoach.Driver.fname, fr)) cold.Parcoach.Driver.funcs
  in
  let full_reuse (f : Ast.func) = List.assoc_opt f.Ast.fname by_name in
  let partial_reuse (f : Ast.func) =
    if String.equal f.Ast.fname "main" then None
    else List.assoc_opt f.Ast.fname by_name
  in
  List.iter
    (fun (label, reuse) ->
      let merged =
        Parcoach.Driver.analyze ~options:serve_options ~jobs:1 ~reuse program
      in
      Alcotest.(check string)
        (label ^ " merge is byte-identical")
        (Parcoach.Json_report.to_string cold)
        (Parcoach.Json_report.to_string merged))
    [ ("full reuse", full_reuse); ("partial reuse", partial_reuse) ]

(* ------------------------------------------------------------------ *)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_chunker_roundtrip; prop_keys_location_insensitive ]

let suite =
  [
    ( "serve",
      [
        Alcotest.test_case "json round trip" `Quick test_json_roundtrip;
        Alcotest.test_case "json unicode escapes" `Quick test_json_unicode;
        Alcotest.test_case "json parse errors" `Quick test_json_errors;
        Alcotest.test_case "json raw splice" `Quick test_json_raw_splice;
        Alcotest.test_case "chunker = direct parse" `Quick
          test_chunker_equals_direct;
        Alcotest.test_case "chunker falls back on unclean input" `Quick
          test_chunker_fallback;
        Alcotest.test_case "keys ignore comments and blank lines" `Quick
          test_keys_ignore_layout;
        Alcotest.test_case "keys ignore unrelated functions" `Quick
          test_keys_ignore_unrelated;
        Alcotest.test_case "keys track body and callee edits" `Quick
          test_keys_track_bodies;
        Alcotest.test_case "daemon warm report = cold report" `Quick
          test_daemon_warm_identity;
        Alcotest.test_case "daemon rejects invalid sources" `Quick
          test_daemon_invalid_source;
        Alcotest.test_case "daemon pool = sequential responses" `Quick
          test_daemon_pool_deterministic;
        Alcotest.test_case "daemon warning-class filter" `Quick
          test_daemon_only_filter;
        Alcotest.test_case "daemon protocol errors" `Quick
          test_daemon_protocol_errors;
        Alcotest.test_case "daemon locates an oversized literal" `Quick
          test_daemon_oversized_literal;
        Alcotest.test_case "Driver.analyze reuse identity" `Quick
          test_driver_reuse_identity;
      ]
      @ qcheck_tests );
  ]

(** Machine-readable (JSON) rendering of analysis reports, for CI
    integration of the [parcoachc] tool.  Self-contained emitter — no
    external JSON dependency: every rendering writes into one [Buffer],
    with no intermediate strings per object or field. *)

open Minilang

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let add_escaped buf s =
  if not (String.exists needs_escape s) then Buffer.add_string buf s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  add_escaped buf s;
  Buffer.contents buf

let render size f =
  let buf = Buffer.create size in
  f buf;
  Buffer.contents buf

(* Emitters.  Keys are literals without characters to escape; [first]
   opens the object with its first key, [field] adds a later one. *)

let add_str buf s =
  Buffer.add_char buf '"';
  add_escaped buf s;
  Buffer.add_char buf '"'

(* Digits straight into the buffer: [string_of_int] goes through the C
   printf machinery and costs several times more. *)
let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (n mod 10)))

let add_int buf n =
  if n >= 0 then add_digits buf n
  else if n = min_int then Buffer.add_string buf (string_of_int n)
  else begin
    Buffer.add_char buf '-';
    add_digits buf (-n)
  end

let add_bool buf b = Buffer.add_string buf (if b then "true" else "false")

let first buf key =
  Buffer.add_string buf "{\"";
  Buffer.add_string buf key;
  Buffer.add_string buf "\":"

let field buf key =
  Buffer.add_string buf ",\"";
  Buffer.add_string buf key;
  Buffer.add_string buf "\":"

let close buf = Buffer.add_char buf '}'

let add_list buf add items =
  Buffer.add_char buf '[';
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char buf ',';
      add buf x)
    items;
  Buffer.add_char buf ']'

let add_loc buf (l : Loc.t) =
  first buf "file";
  add_str buf l.Loc.file;
  field buf "line";
  add_int buf l.Loc.line;
  field buf "col";
  add_int buf l.Loc.col;
  close buf

let add_locs buf locs = add_list buf add_loc locs

let add_warning buf (w : Warning.t) =
  let str key s =
    field buf key;
    add_str buf s
  in
  let locs key l =
    field buf key;
    add_locs buf l
  in
  first buf "class";
  add_str buf (Warning.class_of w.Warning.kind);
  str "function" w.Warning.func;
  field buf "loc";
  add_loc buf w.Warning.loc;
  str "message" (Warning.to_string w);
  (match w.Warning.kind with
  | Warning.Multithreaded_collective { coll; word; required } ->
      str "collective" coll;
      str "parallelism_word" (Pword.to_string word);
      str "required_level" (Mpisim.Thread_level.to_string required)
  | Warning.Concurrent_collectives { coll1; loc1; coll2; loc2; region1; region2 } ->
      let coll buf (name, loc) =
        first buf "name";
        add_str buf name;
        field buf "loc";
        add_loc buf loc;
        close buf
      in
      field buf "collectives";
      add_list buf coll [ (coll1, loc1); (coll2, loc2) ];
      field buf "regions";
      add_list buf add_int [ region1; region2 ]
  | Warning.Collective_mismatch { coll; sites; conds } ->
      str "collective" coll;
      locs "call_sites" sites;
      locs "conditionals" conds
  | Warning.Level_insufficient { coll; required; provided } ->
      str "collective" coll;
      str "required_level" (Mpisim.Thread_level.to_string required);
      str "provided_level" (Mpisim.Thread_level.to_string provided)
  | Warning.Word_inconsistency { word_a; word_b } ->
      str "word_a" (Pword.to_string word_a);
      str "word_b" (Pword.to_string word_b)
  | Warning.Data_race
      { var; write1; loc1; write2; loc2; feeds_collective; advice } ->
      let access buf (w, l) =
        first buf "kind";
        add_str buf (if w then "write" else "read");
        field buf "loc";
        add_loc buf l;
        close buf
      in
      str "variable" var;
      field buf "accesses";
      add_list buf access [ (write1, loc1); (write2, loc2) ];
      field buf "feeds_collective";
      add_bool buf feeds_collective;
      str "advice" advice
  | Warning.Request_leak { req; rop; started } ->
      str "request" req;
      str "operation" rop;
      locs "start_sites" started
  | Warning.Request_double_wait { req; prior } ->
      str "request" req;
      locs "prior_completions" prior
  | Warning.Request_stale_buffer { req; var; write; started } ->
      str "request" req;
      str "buffer" var;
      str "access" (if write then "write" else "read");
      locs "start_sites" started
  | Warning.Request_completion_mismatch { req; coll; sites; conds } ->
      str "request" req;
      str "collective" coll;
      locs "wait_sites" sites;
      locs "conditionals" conds);
  close buf

let warning_json w = render 512 (fun buf -> add_warning buf w)

let add_issue buf (i : Validate.issue) =
  first buf "severity";
  add_str buf
    (match i.Validate.severity with
    | Validate.Error -> "error"
    | Validate.Warning -> "warning");
  field buf "loc";
  add_loc buf i.Validate.loc;
  field buf "message";
  add_str buf i.Validate.message;
  close buf

let add_issues buf issues = add_list buf add_issue issues

(** Validation issues as a JSON array (the [issues] field of both the
    [parcoachc --json] output and the daemon protocol responses). *)
let issues_json issues = render 256 (fun buf -> add_issues buf issues)

(** The whole-object rendering of a program that failed validation:
    [{"valid":false,"issues":[...]}], the single format machine consumers
    see on [parcoachc --json]'s stdout and in daemon responses. *)
let invalid_to_string issues =
  render 256 (fun buf ->
      first buf "valid";
      add_bool buf false;
      field buf "issues";
      add_issues buf issues;
      close buf)

let add_func buf (fr : Driver.func_report) =
  let count key n =
    field buf key;
    add_int buf n
  in
  first buf "name";
  add_str buf fr.Driver.fname;
  field buf "warnings";
  add_list buf add_warning fr.Driver.warnings;
  count "collective_sites"
    (Cfg.Graph.fold_nodes fr.Driver.graph
       (fun acc n ->
         match n.Cfg.Graph.kind with Cfg.Graph.Collective _ -> acc + 1 | _ -> acc)
       0);
  count "cc_sites" (List.length fr.Driver.cc_sites);
  count "multithreaded_collectives"
    (List.length fr.Driver.phase1.Monothread.s_mt);
  count "concurrent_pairs" (List.length fr.Driver.phase2.Concurrency.pairs);
  count "race_pairs"
    (match fr.Driver.races with
    | None -> 0
    | Some r -> List.length r.Races.pairs);
  count "request_findings"
    (match fr.Driver.requests with
    | None -> 0
    | Some r -> List.length r.Requests.findings);
  close buf

(** The whole report as a single JSON object: per-function warnings and
    check counts, plus totals by class. *)
let report_json ?issues (report : Driver.report) =
  render 8192 (fun buf ->
      (* The validity fields are only present when the caller hands over
         the validation issues: existing consumers comparing raw reports
         keep their byte format. *)
      (match issues with
      | None -> first buf "total_warnings"
      | Some issues ->
          first buf "valid";
          add_bool buf true;
          field buf "issues";
          add_issues buf issues;
          field buf "total_warnings");
      add_int buf (Driver.warning_count report);
      field buf "warnings_by_class";
      add_list buf
        (fun buf (cls, n) ->
          first buf "class";
          add_str buf cls;
          field buf "count";
          add_int buf n;
          close buf)
        (Driver.warnings_by_class report);
      field buf "functions";
      add_list buf add_func report.Driver.funcs;
      close buf)

let to_string = report_json

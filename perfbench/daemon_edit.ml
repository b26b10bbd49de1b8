(** Workload [daemon-edit]: one in-process daemon, warmed with the
    service-scale catalog sources, answers [analyze] protocol lines.  A
    seeded 1:1 mix of edits (one function's body changes) and re-checks
    (an unchanged source is re-sent) reaches the analysis through the
    summary cache, so protocol decode, chunking, hashing, validation and
    report rendering carry most of the cost. *)

open Minilang
module D = Parcoach.Driver
module J = Serve.Json

type doc = {
  file : string;
  mutable program : Ast.program;
  mutable source : string;
  mutable cold : string;  (** Cold [Json_report] of [source]. *)
}

let request ~id (d : doc) =
  J.Obj
    [
      ("id", J.Int id);
      ("method", J.Str "analyze");
      ( "params",
        J.Obj
          [
            ("source", J.Str d.source);
            ("file", J.Str d.file);
            ("taint_filter", J.Bool true);
            ("interprocedural", J.Bool true);
            ("races", J.Bool true);
            ("requests", J.Bool true);
          ] );
    ]

(** What [parcoachc --json] prints for the source: the oracle every
    daemon report must match byte for byte. *)
let cold_report (d : doc) =
  let program = Parser.parse_string ~file:d.file d.source in
  let issues = Validate.check_program program in
  Parcoach.Json_report.to_string ~issues
    (D.analyze ~options:Analyze_cold.options program)

(** Edit markers are [compute(n)] statements with [n >= marker_base],
    far above any cost the catalog generators write. *)
let marker_base = 1_000_000

(** Mark an edit in function [k]: its body ends with [compute(marker)],
    replacing the marker a previous edit left there, so each edit
    changes exactly one function. *)
let edit (p : Ast.program) k marker =
  let mark = Ast.mk (Ast.Compute (Ast.Int marker)) in
  {
    Ast.funcs =
      List.mapi
        (fun i (f : Ast.func) ->
          if i <> k then f
          else
            let body =
              match List.rev f.Ast.body with
              | { Ast.sdesc = Ast.Compute (Ast.Int m); _ } :: rest
                when m >= marker_base ->
                  List.rev rest
              | _ -> f.Ast.body
            in
            { f with Ast.body = body @ [ mark ] })
        p.Ast.funcs;
  }

(** Check a response line: [ok], [valid] and a report byte-identical to
    [cold].  Returns the parsed response. *)
let check_response line ~cold =
  match J.parse line with
  | Error msg -> Error ("unparsable response: " ^ msg)
  | Ok r ->
      let flag k = Option.bind (J.member k r) J.to_bool in
      if flag "ok" <> Some true || flag "valid" <> Some true then
        Error ("not ok/valid: " ^ String.sub line 0 (min 200 (String.length line)))
      else
        let key = "\"report\":" in
        let at =
          let rec find i =
            if i + String.length key > String.length line then -1
            else if String.sub line i (String.length key) = key then i
            else find (i + 1)
          in
          find 0
        in
        let start = at + String.length key in
        if
          at >= 0
          && start + String.length cold <= String.length line
          && String.equal (String.sub line start (String.length cold)) cold
        then Ok r
        else Error "report differs from a cold Driver.analyze"

let int_member path r =
  Option.value ~default:0
    (Option.bind
       (List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some r) path)
       J.to_int)

(* The daemon times its phases itself and reports them in [timings]. *)
let record_timings r =
  match J.member "timings" r with
  | Some (J.Obj phases) ->
      let phases =
        List.map
          (fun (phase, v) ->
            (phase, match v with J.Int n -> float_of_int n | J.Float f -> f | _ -> 0.))
          phases
      in
      Trace.add_phases phases;
      Trace.add "serve.daemon.analyze_source"
        (List.fold_left
           (fun acc (phase, ns) -> if phase = "render" then acc else acc +. ns)
           0. phases)
  | _ -> ()

let run ~seed ~seconds ~traced ~known:_ =
  let h = Harness.create () in
  let ids = ref 0 in
  let send daemon d =
    incr ids;
    Serve.Daemon.handle_line daemon (J.to_string (request ~id:!ids d))
  in
  let warm_daemon docs =
    let daemon = Serve.Daemon.create () in
    Array.iter
      (fun d ->
        match check_response (send daemon d) ~cold:d.cold with
        | Ok _ -> ()
        | Error msg -> failwith ("warm-up: " ^ msg))
      docs;
    daemon
  in
  (* Set-up: the service-scale sources, their cold reports, and a daemon
     warmed by one request per source. *)
  let daemon, docs =
    Harness.setup h (fun () ->
        let docs =
          Array.of_list
            (List.map
               (fun (e : Benchsuite.Catalog.entry) ->
                 let program = e.Benchsuite.Catalog.generate_large () in
                 let d =
                   {
                     file = e.Benchsuite.Catalog.name ^ ".hml";
                     program;
                     source = Pretty.program_to_string program;
                     cold = "";
                   }
                 in
                 d.cold <- cold_report d;
                 d)
               Benchsuite.Catalog.all)
        in
        (warm_daemon docs, docs))
  in
  let daemon = ref daemon in
  let marker = ref marker_base in
  (* A round edits and re-checks every source the same number of times,
     in a seeded order.  Edits take each source's functions in turn, in
     a seeded order, so that over a run every function is edited about
     equally often: an edit's cost grows with the function's size, and
     picking functions independently would leave the tail to the luck
     of how many edits drew the largest ones. *)
  let per_source = 4 in
  let edits_per_source = per_source / 2 in
  let order =
    let st = Random.State.make [| seed; -1 |] in
    Array.map
      (fun d ->
        Array.of_list
          (Harness.shuffle st (List.init (List.length d.program.Ast.funcs) Fun.id)))
      docs
  in
  let rounds_per_daemon = 50 in
  let round ~key ~traced =
    (* Every edit adds summaries to the daemon's cache, so a daemon's
       heap grows with the number of operations it served.  A fresh
       daemon, warmed with the current sources, takes over every
       [rounds_per_daemon] rounds; the cache then never nears its capacity
       and peak heap does not rise with throughput. *)
    if key > 0 && key mod rounds_per_daemon = 0 then daemon := warm_daemon docs;
    let st = Random.State.make [| seed; key |] in
    let ops =
      Harness.shuffle st
        (List.concat
           (List.init (Array.length docs) (fun doc ->
                List.init per_source (fun i -> (doc, i)))))
    in
    List.iter
      (fun (doc, i) ->
        let d = docs.(doc) and is_edit = i mod 2 = 0 in
        if is_edit then begin
          let funcs = order.(doc) in
          let k =
            funcs.(((key * edits_per_source) + (i / 2)) mod Array.length funcs)
          in
          incr marker;
          d.program <- edit d.program k !marker;
          d.source <- Pretty.program_to_string d.program;
          d.cold <- cold_report d
        end;
        incr ids;
        let line = J.to_string (request ~id:!ids d) in
        let tag = if is_edit then "edit" else "recheck" in
        let response =
          if not traced then
            Harness.op h ~tag (fun () -> Serve.Daemon.handle_line !daemon line)
              (fun resp -> Result.map ignore (check_response resp ~cold:d.cold))
          else
            (* [handle_line] is exactly decode, dispatch and render; the
               traced run makes the three calls itself to time each. *)
            Harness.op h ~tag
              (fun () ->
                match Trace.span "serve.json.parse" (fun () -> J.parse line) with
                | Error msg -> failwith msg
                | Ok req ->
                    let resp =
                      Trace.span "serve.daemon.handle" (fun () ->
                          Serve.Daemon.handle_request !daemon req)
                    in
                    Trace.span "serve.json.render" (fun () -> J.to_string resp))
              (fun resp -> Result.map ignore (check_response resp ~cold:d.cold))
        in
        match response with
        | Some resp when traced -> (
            ignore
              (Trace.span "serve.chunker" (fun () -> Serve.Chunker.split d.source));
            match J.parse resp with
            | Ok r ->
                record_timings r;
                let hits = int_member [ "cache"; "hits" ] r in
                let misses = int_member [ "cache"; "misses" ] r in
                Trace.add "serve.daemon.analysed_funcs" (float_of_int misses);
                Trace.add "serve.cache.hits" (float_of_int hits);
                Trace.add "serve.cache.lookups" (float_of_int (hits + misses))
            | Error _ -> ())
        | _ -> ())
      ops
  in
  Harness.rounds h ~seconds ~traced round;
  let lats = Harness.latencies h in
  let edits = Harness.latencies ~tag:(String.equal "edit") h in
  let e2e, tail = Harness.end_to_end h ~per_round:(Array.length docs * per_source) lats in
  let extra =
    [
      ("edit_latency_ms_p50", Harness.median edits, "ms");
      ("edit_latency_ms_p99", Harness.percentile edits 0.99, "ms");
    ]
  in
  let layers =
    [ ("serve.cache.hit_ratio", Trace.ratio "serve.cache.hits" "serve.cache.lookups") ]
  in
  (h, e2e, tail @ extra, layers, Harness.cores)

(** Workload [analyze-cold]: one cold [parcoachc]-equivalent pipeline per
    operation on one catalog source.  The front end and every analysis
    pass do all the work; the daemon and the simulator do none. *)

open Minilang
module D = Parcoach.Driver

(** Every pass on: races, requests, interprocedural, taint filter. *)
let options =
  {
    D.default_options with
    D.taint_filter = true;
    interprocedural = true;
    races = true;
    requests = true;
  }

type input = { name : string; file : string; source : string }

(** The Figure-1-size and service-scale instance of each catalog entry,
    as source text. *)
let inputs () =
  List.concat_map
    (fun (e : Benchsuite.Catalog.entry) ->
      let mk suffix gen =
        let name = e.Benchsuite.Catalog.name ^ "/" ^ suffix in
        let source =
          Trace.span "minilang.pretty" (fun () ->
              Pretty.program_to_string (gen ()))
        in
        { name; file = name ^ ".hml"; source }
      in
      [ mk "fig1" e.Benchsuite.Catalog.generate;
        mk "large" e.Benchsuite.Catalog.generate_large ])
    Benchsuite.Catalog.all

type output = {
  report : D.report;
  instrumented : string;
  json : string;
  cc_checks : int;
}

(** parse -> validate -> CFG -> analyze -> selective instrumentation ->
    pretty-print -> JSON report, as [parcoachc --json --instrument
    selective] runs it. *)
let pipeline ?jobs ~file source =
  let program =
    Trace.span "minilang.parse" (fun () -> Parser.parse_string ~file source)
  in
  let issues =
    Trace.span "minilang.validate" (fun () -> Validate.check_program program)
  in
  if not (Validate.is_valid issues) then
    failwith ("invalid program: " ^ file);
  let graphs = Trace.span "cfg.build" (fun () -> Cfg.Build.of_program program) in
  let report =
    Trace.span "parcoach.driver" (fun () ->
        D.analyze ~options ~graphs ?jobs program)
  in
  let instrumented =
    Trace.span "parcoach.instrument" (fun () ->
        Parcoach.Instrument.instrument report Parcoach.Instrument.Selective)
  in
  let instrumented =
    Trace.span "minilang.pretty" (fun () -> Pretty.program_to_string instrumented)
  in
  let json =
    Trace.span "parcoach.json_report" (fun () ->
        Parcoach.Json_report.to_string ~issues report)
  in
  let cc_checks, _, _ =
    Parcoach.Instrument.check_counts report Parcoach.Instrument.Selective
  in
  { report; instrumented; json; cc_checks }

(* ------------------------------------------------------------------ *)
(* Traced probes: outside the operation's latency                      *)
(* ------------------------------------------------------------------ *)

(** Re-run [Driver.analyze_func]'s steps through the passes' public
    entry points, one span per phase, and return the warnings in the
    driver's order. *)
let replay_func ~call_collects (f : Ast.func) g =
  let actx = Trace.span "cfg.actx" (fun () -> Cfg.Actx.create g) in
  let pword =
    Trace.span "parcoach.pword" (fun () ->
        Parcoach.Pword.compute ~initial:options.D.initial_word ~actx g)
  in
  let p1 =
    Trace.span "parcoach.phase1" (fun () -> Parcoach.Monothread.analyze pword)
  in
  let p2 =
    Trace.span "parcoach.phase2" (fun () -> Parcoach.Concurrency.analyze pword)
  in
  let taint_filter = options.D.taint_filter and params = f.Ast.params in
  let p3 =
    Trace.span "parcoach.phase3" (fun () ->
        Parcoach.Interproc.analyze ~call_collects ~actx g ~taint_filter ~params)
  in
  let requests =
    Trace.span "parcoach.requests" (fun () ->
        Parcoach.Requests.analyze ~actx g ~taint_filter ~params)
  in
  let races =
    Trace.span "parcoach.races" (fun () ->
        Parcoach.Races.analyze ~requests ~pword g f)
  in
  let fname = f.Ast.fname in
  let inconsistencies =
    List.map
      (fun (inc : Parcoach.Pword.inconsistency) ->
        {
          Parcoach.Warning.kind =
            Parcoach.Warning.Word_inconsistency
              { word_a = inc.Parcoach.Pword.word_a; word_b = inc.Parcoach.Pword.word_b };
          func = fname;
          loc = Cfg.Graph.node_loc g inc.Parcoach.Pword.node;
        })
      pword.Parcoach.Pword.inconsistencies
  in
  List.sort_uniq
    (fun a b ->
      let c = Parcoach.Warning.compare a b in
      if c <> 0 then c else Stdlib.compare a b)
    (Parcoach.Monothread.warnings g ~fname ~provided:options.D.provided_level p1
    @ Parcoach.Concurrency.warnings g ~fname p2
    @ Parcoach.Interproc.warnings g ~fname p3
    @ Parcoach.Races.warnings g ~fname races
    @ Parcoach.Requests.warnings g ~fname requests
    @ inconsistencies)

(** Phase-by-phase replay of the analysis on fresh CFGs; [true] when
    every function's warnings equal the driver's. *)
let replay (report : D.report) =
  let program = report.D.program in
  let call_collects =
    Trace.span "parcoach.callgraph" (fun () ->
        ignore (Parcoach.Callgraph.call_colors program);
        Parcoach.Callgraph.may_collect program)
  in
  List.for_all2
    (fun (f : Ast.func) (fr : D.func_report) ->
      let g = Cfg.Build.of_func f in
      List.map Parcoach.Warning.to_string (replay_func ~call_collects f g)
      = List.map Parcoach.Warning.to_string fr.D.warnings)
    program.Ast.funcs report.D.funcs

let lex_probe ~file source =
  let tokens =
    Trace.span "minilang.lex" (fun () -> Lexer.tokenize ~file source)
  in
  Trace.add "minilang.lex.tokens" (float_of_int (List.length tokens))

(* Figure 1's compilation model: PARCOACH runs inside a compiler whose
   front and middle end parse, validate, build CFGs and run the classic
   middle-end analyses; the back end re-runs some of them on whatever
   code is left (including inserted checks) and emits the program. *)
let front_and_middle source =
  let program = Parser.parse_string ~file:"fig1" source in
  ignore (Validate.check_program program);
  let graphs = Cfg.Build.of_program program in
  List.iter
    (fun g ->
      let dom = Cfg.Dominance.compute g Cfg.Dominance.Forward in
      ignore (Cfg.Dominance.frontiers dom);
      ignore (Cfg.Dataflow.liveness g);
      ignore (Cfg.Dataflow.reaching_definitions g);
      ignore (Cfg.Dataflow.constant_propagation g);
      ignore (Cfg.Dataflow.available_expressions g);
      ignore (Cfg.Dataflow.copy_propagation g);
      ignore (Cfg.Loops.detect g))
    graphs;
  (program, graphs)

let back_end program graphs =
  List.iter
    (fun g ->
      ignore (Cfg.Dataflow.liveness g);
      ignore (Cfg.Dataflow.constant_propagation g);
      ignore (Cfg.Dataflow.copy_propagation g))
    graphs;
  ignore (Pretty.program_to_string program)

let fig1_variants =
  [
    ( "baseline",
      fun source ->
        let program, graphs = front_and_middle source in
        back_end program graphs );
    ( "warnings",
      fun source ->
        let program, graphs = front_and_middle source in
        let report = D.analyze ~graphs ~jobs:1 program in
        ignore (D.all_warnings report);
        back_end program graphs );
    ( "codegen",
      fun source ->
        let program, graphs = front_and_middle source in
        let report = D.analyze ~graphs ~jobs:1 program in
        ignore (D.all_warnings report);
        let instrumented =
          Parcoach.Instrument.instrument report Parcoach.Instrument.Selective
        in
        back_end instrumented (Cfg.Build.of_program instrumented) );
  ]

(** One paired Figure-1 round: each variant over every Figure-1-size
    source, variants in a rotating order; returns (variant, ns). *)
let fig1_round ~key sources =
  let n = List.length fig1_variants in
  List.init n (fun i ->
      let name, run = List.nth fig1_variants ((i + key) mod n) in
      let t0 = Trace.now_ns () in
      List.iter run sources;
      (name, float_of_int (Trace.now_ns () - t0)))

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)
(* ------------------------------------------------------------------ *)

let run ~seed ~seconds ~traced ~known =
  let h = Harness.create () in
  let expected name =
    match Known.analyze known name with
    | Some counts -> counts
    | None ->
        Harness.break h ("no known answer for " ^ name);
        []
  in
  (* Set-up: generate the sources and run each once at [jobs:1], which
     also gives the reference report every operation must reproduce. *)
  let inputs =
    Harness.setup h (fun () ->
        List.map
          (fun i ->
            let reference = pipeline ~jobs:1 ~file:i.file i.source in
            (i, reference))
          (inputs ()))
  in
  let known_counts = List.map (fun (i, _) -> (i.name, expected i.name)) inputs in
  let fig1_sources =
    List.filter_map
      (fun (i, _) ->
        if Filename.check_suffix i.name "/fig1" then Some i.source else None)
      inputs
  in
  let fig1 = ref [] in
  let jobs_pairs = ref [] in
  let replay_ok = ref true in
  (* Per-layer probes re-run parts of an operation; they run after the
     round so that their garbage and cache effects stay out of the
     traced operations' latencies. *)
  let probe (i, out, op) =
    Trace.op := op;
    Trace.add "minilang.parse.bytes" (float_of_int (String.length i.source));
    Trace.add "cfg.build.nodes"
      (float_of_int
         (List.fold_left
            (fun acc fr -> acc + Cfg.Graph.nb_nodes fr.D.graph)
            0 out.report.D.funcs));
    Trace.add "parcoach.instrument.cc_checks" (float_of_int out.cc_checks);
    Trace.add "parcoach.warnings" (float_of_int (D.warning_count out.report));
    lex_probe ~file:i.file i.source;
    if not (replay out.report) then replay_ok := false;
    (* The concurrency baseline: the same analysis at jobs:1. *)
    let time jobs =
      let t0 = Trace.now_ns () in
      ignore (D.analyze ~options ?jobs out.report.D.program);
      float_of_int (Trace.now_ns () - t0)
    in
    (* Alternate which runs first, so warm caches favour neither. *)
    let one, many =
      if op mod 2 = 0 then
        let one = time (Some 1) in
        (one, time None)
      else
        let many = time None in
        (time (Some 1), many)
    in
    jobs_pairs := (one, many) :: !jobs_pairs
  in
  let round ~key ~traced =
    let st = Random.State.make [| seed; key |] in
    let outs =
      List.filter_map
        (fun (i, (reference : output)) ->
          Harness.op h ~tag:i.name
            (fun () -> pipeline ~file:i.file i.source)
            (fun out ->
              if D.warnings_by_class out.report <> List.assoc i.name known_counts then
                Error "warning counts differ from the known answers"
              else if not (String.equal out.json reference.json) then
                Error "report differs from the jobs:1 report"
              else if not (String.equal out.instrumented reference.instrumented)
              then Error "instrumented program differs from the jobs:1 one"
              else Ok ())
          |> Option.map (fun out -> (i, out, !Trace.op)))
        (Harness.shuffle st inputs)
    in
    if traced then begin
      List.iter probe outs;
      fig1 := fig1_round ~key fig1_sources :: !fig1
    end
  in
  Harness.rounds h ~seconds ~traced round;
  if not !replay_ok then
    Harness.break h "phase-by-phase replay disagrees with Driver.analyze";
  let lats = Harness.latencies h in
  let bytes =
    List.fold_left
      (fun acc (tag, _) ->
        acc + String.length (List.find (fun (i, _) -> i.name = tag) inputs |> fst).source)
      0 h.Harness.samples
  in
  let e2e, tail = Harness.end_to_end h ~per_round:(List.length inputs) lats in
  let busy_s = List.fold_left ( +. ) 0. lats /. 1e3 in
  let extra = [ ("analyze_kb_per_s", float_of_int bytes /. 1024. /. busy_s, "KB/s") ] in
  let fig1_stat rounds variant =
    List.map
      (fun r ->
        let base = List.assoc "baseline" r in
        ((List.assoc variant r /. base) -. 1.) *. 100.)
      rounds
  in
  let layers =
    if not traced then []
    else
      let rounds = !fig1 in
      let nsrc = float_of_int (List.length fig1_sources) in
      let abs variant =
        Harness.median (List.map (fun r -> List.assoc variant r /. nsrc) rounds)
      in
      let interval variant =
        let lo, hi =
          Harness.bootstrap ~seed Harness.median (fig1_stat rounds variant)
        in
        [
          ("fig1." ^ variant ^ "_overhead_pct", Harness.median (fig1_stat rounds variant));
          ("fig1." ^ variant ^ "_overhead_pct_lo", lo);
          ("fig1." ^ variant ^ "_overhead_pct_hi", hi);
          ("fig1." ^ variant ^ "_ns", abs variant);
        ]
      in
      [
        ("minilang.lex.tokens_per_s",
          Trace.sum "minilang.lex.tokens" /. (Trace.sum "minilang.lex" /. 1e9));
        ("minilang.parse.mb_per_s",
          Trace.sum "minilang.parse.bytes" /. 1048576.
          /. (Trace.sum "minilang.parse" /. 1e9));
        ("parcoach.driver.jobs_ratio",
          Harness.median (List.map (fun (one, many) -> many /. one) !jobs_pairs));
        ("fig1.baseline_ns", abs "baseline");
      ]
      @ interval "warnings" @ interval "codegen"
  in
  (h, e2e, tail @ extra, layers, Harness.cores)

(** Whole-program driver: runs the three static phases on every function
    and assembles the analysis report the instrumentation pass and the CLI
    consume. *)

open Minilang

type options = {
  initial_word : Pword.word;
      (** Initial parallelism-word prefix at function entrances (the
          paper's compile-time "initial level" option). *)
  provided_level : Mpisim.Thread_level.t;
      (** Thread level the program is assumed to initialise MPI with. *)
  taint_filter : bool;
      (** Restrict phase 3 to rank-dependent conditionals. *)
  interprocedural : bool;
      (** Extension: treat calls to collective-bearing functions as
          pseudo-collective sites in phase 3 (see {!Callgraph}). *)
  races : bool;
      (** Run the MHP-based shared-memory race pass ({!Races}) and emit
          data-race warnings. *)
  requests : bool;
      (** Run the request-lifecycle pass ({!Requests}) and emit
          request-leak / double-wait / use-before-completion /
          completion-mismatch warnings.  Also feeds the races pass's
          happens-before refinement when both are enabled. *)
}

let default_options =
  {
    initial_word = [];
    provided_level = Mpisim.Thread_level.Multiple;
    taint_filter = false;
    interprocedural = false;
    races = false;
    requests = false;
  }

type func_report = {
  fname : string;
  graph : Cfg.Graph.t;
  pword : Pword.t;
  phase1 : Monothread.result;
  phase2 : Concurrency.result;
  phase3 : Interproc.result;
  races : Races.result option;  (** [Some] iff [options.races]. *)
  requests : Requests.result option;  (** [Some] iff [options.requests]. *)
  warnings : Warning.t list;
  cc_sites : int list;  (** Collective nodes that get a [CC] check. *)
}

type report = {
  program : Ast.program;
  options : options;
  funcs : func_report list;
  call_colors : (string * int) list;
      (** CC colours of collective-bearing functions (interprocedural
          mode; empty otherwise). *)
}

let analyze_func ?graph ?call_collects ?timings options (f : Ast.func) =
  let time phase thunk =
    match timings with None -> thunk () | Some t -> Timings.record t phase thunk
  in
  let g =
    match graph with
    | Some g -> g
    | None -> time "cfg" (fun () -> Cfg.Build.of_func f)
  in
  (* One analysis context per function per run: every phase shares the
     packed graph, cached traversal orders, dominator trees and taint. *)
  let actx = Cfg.Actx.create g in
  let pword =
    time "pword" (fun () -> Pword.compute ~initial:options.initial_word ~actx g)
  in
  let phase1 = time "phase1" (fun () -> Monothread.analyze pword) in
  let phase2 = time "phase2" (fun () -> Concurrency.analyze pword) in
  let phase3 =
    time "phase3" (fun () ->
        Interproc.analyze ?call_collects ~actx g
          ~taint_filter:options.taint_filter ~params:f.Ast.params)
  in
  let requests =
    if options.requests then
      Some
        (time "requests" (fun () ->
             Requests.analyze ~actx g ~taint_filter:options.taint_filter
               ~params:f.Ast.params))
    else None
  in
  let races =
    if options.races then
      Some (time "races" (fun () -> Races.analyze ?requests ~pword g f))
    else None
  in
  let race_warnings =
    match races with
    | None -> []
    | Some r -> Races.warnings g ~fname:f.Ast.fname r
  in
  let request_warnings =
    match requests with
    | None -> []
    | Some r -> Requests.warnings g ~fname:f.Ast.fname r
  in
  let inconsistency_warnings =
    List.map
      (fun (inc : Pword.inconsistency) ->
        {
          Warning.kind =
            Warning.Word_inconsistency
              { word_a = inc.Pword.word_a; word_b = inc.Pword.word_b };
          func = f.Ast.fname;
          loc = Cfg.Graph.node_loc g inc.Pword.node;
        })
      pword.Pword.inconsistencies
  in
  let warnings =
    List.sort_uniq
      (fun a b ->
        let c = Warning.compare a b in
        if c <> 0 then c else Stdlib.compare a b)
      (Monothread.warnings g ~fname:f.Ast.fname
         ~provided:options.provided_level phase1
      @ Concurrency.warnings g ~fname:f.Ast.fname phase2
      @ Interproc.warnings g ~fname:f.Ast.fname phase3
      @ race_warnings @ request_warnings @ inconsistency_warnings)
  in
  {
    fname = f.Ast.fname;
    graph = g;
    pword;
    phase1;
    phase2;
    phase3;
    races;
    requests;
    warnings;
    cc_sites = Interproc.cc_sites phase3;
  }

(** Run the full static analysis.  The program should already pass
    {!Minilang.Validate}.  [graphs], when provided, must be the CFGs of the
    program's functions in source order (as built by
    {!Cfg.Build.of_program}): the analysis then runs in the middle of an
    existing compilation pipeline without rebuilding them, as PARCOACH does
    inside the compiler.

    [jobs] caps the number of domains analysing functions concurrently
    ({!Conc.Pool.parallel_for}: at most one per core and per function).
    Without it (or with [jobs:1]) the analysis runs on the calling domain:
    on the catalog programs spawning domains does not pay.  The report is
    identical whatever the job count.

    [reuse], when given, is consulted per function {e before} any
    analysis runs: returning [Some fr] injects the pre-computed report
    (the incremental daemon's summary-cache hits) and only the remaining
    functions are analysed; the merge stays in source order, so mixing
    cached and fresh reports is byte-identical to a cold run as long as
    the cached reports are what the cold run would have produced. *)
let analyze ?(options = default_options) ?graphs ?jobs ?reuse ?timings
    (program : Ast.program) =
  let call_collects =
    if options.interprocedural then Some (Callgraph.may_collect program)
    else None
  in
  let call_colors =
    if options.interprocedural then Callgraph.call_colors program else []
  in
  let items =
    match graphs with
    | None -> List.map (fun f -> (None, f)) program.Ast.funcs
    | Some graphs ->
        if List.length graphs <> List.length program.Ast.funcs then
          invalid_arg "Driver.analyze: graphs do not match the program";
        List.map2 (fun g f -> (Some g, f)) graphs program.Ast.funcs
  in
  (* Pre-fill the source-order result slots with reused reports; only the
     remaining [todo] items pay for analysis. *)
  let slots = Array.make (List.length items) None in
  let todo =
    Array.of_list
      (List.filter_map
         (fun (i, (graph, f)) ->
           match Option.bind reuse (fun find -> find f) with
           | Some fr ->
               slots.(i) <- Some fr;
               None
           | None -> Some (i, graph, f))
         (List.mapi (fun i item -> (i, item)) items))
  in
  let jobs =
    match jobs with
    | Some j when j < 1 -> invalid_arg "Driver.analyze: jobs must be >= 1"
    | Some j -> j
    | None -> 1
  in
  (* The work items are independent: each function is analysed against
     its own graph and context; the only shared inputs are the AST and
     the [call_collects] closure, whose callgraph table is fully built
     before the fan-out and only read afterwards.  Each item writes its
     own source-order slot, so the report is byte-identical whatever
     [jobs] is. *)
  Conc.Pool.parallel_for ~jobs (Array.length todo) (fun ~worker:_ k ->
      let i, graph, f = todo.(k) in
      slots.(i) <- Some (analyze_func ?graph ?call_collects ?timings options f));
  let funcs =
    Array.to_list
      (Array.map
         (function
           | Some fr -> fr
           | None -> invalid_arg "Driver.analyze: missing result slot")
         slots)
  in
  { program; options; funcs; call_colors }

(** [filter_classes report ~only] keeps only the warnings whose class is
    listed in [only] (every other field of the report is unchanged, so
    instrumentation decisions are not affected).  [only = None] is the
    identity.  The class vocabulary is {!Warning.all_classes}; callers
    validate names before getting here ([parcoachc --only] rejects
    unknown classes at option-parse time with the CLI-error exit). *)
let filter_classes report ~only =
  match only with
  | None -> report
  | Some classes ->
      {
        report with
        funcs =
          List.map
            (fun fr ->
              {
                fr with
                warnings =
                  List.filter
                    (fun w ->
                      List.mem (Warning.class_of w.Warning.kind) classes)
                    fr.warnings;
              })
            report.funcs;
      }

let all_warnings report = List.concat_map (fun fr -> fr.warnings) report.funcs

let warning_count report = List.length (all_warnings report)

(** Number of warnings per class name, for the evaluation report. *)
let warnings_by_class report =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun w ->
      let cls = Warning.class_of w.Warning.kind in
      Hashtbl.replace tbl cls
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl cls)))
    (all_warnings report);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let func_report report fname =
  List.find_opt (fun fr -> String.equal fr.fname fname) report.funcs

(** Printable analysis summary: per-function warning list plus totals. *)
let pp_report ppf report =
  List.iter
    (fun fr ->
      if fr.warnings <> [] then begin
        Fmt.pf ppf "function '%s':@\n" fr.fname;
        List.iter (fun w -> Fmt.pf ppf "  %a@\n" Warning.pp w) fr.warnings
      end)
    report.funcs;
  let by_class = warnings_by_class report in
  Fmt.pf ppf "total: %d warning(s)" (warning_count report);
  if by_class <> [] then
    Fmt.pf ppf " (%a)"
      (Fmt.list ~sep:Fmt.comma (fun ppf (cls, n) -> Fmt.pf ppf "%s: %d" cls n))
      by_class;
  Fmt.pf ppf "@\n"

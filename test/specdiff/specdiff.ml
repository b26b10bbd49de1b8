(** [specdiff FILE] runs a validated program on the compiled simulator
    ([Interp.Sim.run]) and on the executable spec ([Simspec.run]), two
    threads per team, under round-robin scheduling and scheduler seeds
    1 to 8, and compares the outcome (error payloads included), print
    trace, step count and request-lifecycle findings.  With [--explore]
    it also compares the per-class counts of the pruned explorer with
    the spec's unpruned enumeration (branch depth 6).  Exits 0 when
    everything agrees, 1 on the first difference (both sides printed),
    2 on an invalid program.

    {v dune exec test/specdiff/specdiff.exe -- FILE --ranks 3 --instrument selective v} *)

open Cmdliner

let observe_compiled (r : Interp.Sim.result) =
  ( r.Interp.Sim.outcome,
    Interp.Sim.trace r,
    r.Interp.Sim.stats.Interp.Sim.steps,
    List.filter
      (function Interp.Sim.Stale_read _ -> false | _ -> true)
      r.Interp.Sim.lifecycle )

let observe_spec (r : Simspec.run) =
  (r.Simspec.outcome, r.Simspec.trace, r.Simspec.steps, r.Simspec.lifecycle)

let pp_side ppf (outcome, trace, steps, lifecycle) =
  Fmt.pf ppf "outcome: %a@.steps: %d@." Interp.Sim.pp_outcome outcome steps;
  List.iter (fun v -> Fmt.pf ppf "lifecycle: %a@." Interp.Sim.pp_lifecycle v) lifecycle;
  List.iter (fun (r, t, v) -> Fmt.pf ppf "[rank %d thread %d] print %d@." r t v) trace

let run file ranks instrument explore =
  let program = Minilang.Parser.parse_file file in
  if not (Minilang.Validate.is_valid (Minilang.Validate.check_program program))
  then (Fmt.epr "%s: invalid program@." file; exit 2);
  let program =
    match instrument with
    | None -> program
    | Some mode ->
        Parcoach.Instrument.instrument (Parcoach.Driver.analyze program) mode
  in
  let config schedule =
    {
      Interp.Sim.nranks = ranks;
      default_nthreads = 2;
      schedule;
      max_steps = 2_000_000;
      entry = "main";
      record_trace = true;
      thread_level = Mpisim.Thread_level.Multiple;
    }
  in
  let schedules = `Round_robin :: List.init 8 (fun k -> `Random (k + 1)) in
  List.iter
    (fun schedule ->
      let config = config schedule in
      let compiled = observe_compiled (Interp.Sim.run ~config program) in
      let spec = observe_spec (Simspec.run ~config program) in
      if compiled <> spec then begin
        Fmt.pr "DIFFERENCE under %s@.-- compiled@.%a-- spec@.%a"
          (match schedule with `Random s -> Printf.sprintf "seed %d" s | _ -> "round-robin")
          pp_side compiled pp_side spec;
        exit 1
      end)
    schedules;
  Fmt.pr "agree on %d schedule(s)@." (List.length schedules);
  if explore then begin
    let config = { (config `Round_robin) with Interp.Sim.record_trace = false } in
    let budget = 100_000 in
    let branch_depth = 6 in
    let bfs = Interp.Explore.outcomes ~branch_depth ~budget ~config program in
    let spec = Simspec.explore ~branch_depth ~budget ~config program in
    let counts (s : Interp.Explore.summary) =
      Interp.Explore.(s.finished, s.aborted, s.faulted, s.deadlocked, s.step_limited)
    in
    Fmt.pr "explore (depth %d)@.-- pruned BFS: %a@.-- spec DFS:   %a@." branch_depth
      Interp.Explore.pp_summary bfs Interp.Explore.pp_summary spec;
    if counts bfs <> counts spec then exit 1
  end

let () =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let ranks = Arg.(value & opt int 2 & info [ "ranks" ] ~doc:"MPI processes.") in
  let instrument =
    Arg.(
      value
      & opt
          (some (enum [ ("selective", Parcoach.Instrument.Selective);
                        ("exhaustive", Parcoach.Instrument.Exhaustive) ]))
          None
      & info [ "instrument" ] ~doc:"Analyse and instrument first.")
  in
  let explore = Arg.(value & flag & info [ "explore" ] ~doc:"Also compare exploration class counts.") in
  exit
    (Cmd.eval
       (Cmd.v (Cmd.info "specdiff")
          Term.(const run $ file $ ranks $ instrument $ explore)))

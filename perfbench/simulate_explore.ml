(** Workload [simulate-explore]: simulations of the selectively
    instrumented small catalog instances (half of them with the
    streaming MUST-style overlay attached) and BFS/DPOR explorations of
    the reproducers.  Lowering and analysis happen in set-up, so the
    compiled core, the MPI engine, the OpenMP simulation, the explorers
    and the overlay do all the work. *)

open Minilang
module Sim = Interp.Sim
module Explore = Interp.Explore

(* [runsim]'s defaults, with the 4 ranks x 3 threads the sims use. *)
let sim_config seed =
  {
    Sim.default_config with
    Sim.nranks = 4;
    default_nthreads = 3;
    schedule = `Random seed;
  }

let explore_config = Sim.default_config
let branch_depth = 8
let budget = 2000
let overlay_fanout = 2

(** Schedules per catalog instance in one round; each runs once bare and
    once with the overlay.  With six, a round's 95th-percentile latency
    falls between two explorations of about the same cost instead of on
    the step between the two slowest DPOR runs and the rest. *)
let schedules_per_round = 6

let setup () =
  let catalog =
    List.map
      (fun (e : Benchsuite.Catalog.entry) ->
        let program = e.Benchsuite.Catalog.generate_small () in
        let issues =
          Trace.span "minilang.validate" (fun () -> Validate.check_program program)
        in
        if not (Validate.is_valid issues) then
          failwith ("invalid catalog instance " ^ e.Benchsuite.Catalog.name);
        let timings = Parcoach.Timings.create () in
        let report =
          Trace.span "parcoach.driver" (fun () ->
              Parcoach.Driver.analyze ~timings program)
        in
        Trace.add_phases (Parcoach.Timings.entries timings);
        let instrumented =
          Trace.span "parcoach.instrument" (fun () ->
              Parcoach.Instrument.instrument report Parcoach.Instrument.Selective)
        in
        ( e.Benchsuite.Catalog.name,
          Trace.span "interp.lower" (fun () -> Sim.make instrumented) ))
      Benchsuite.Catalog.all
  in
  let repros =
    List.map
      (fun (r : Benchsuite.Reproducers.entry) ->
        let source = r.Benchsuite.Reproducers.source in
        let program =
          Trace.span "minilang.parse" (fun () ->
              Parser.parse_string ~file:r.Benchsuite.Reproducers.name source)
        in
        ignore
          (Trace.span "minilang.validate" (fun () -> Validate.check_program program));
        (r.Benchsuite.Reproducers.name, program))
      Benchsuite.Reproducers.all
  in
  (catalog, repros)

let classes (s : Explore.summary) =
  List.filter_map
    (fun (name, n) -> if n > 0 then Some name else None)
    [
      ("aborted", s.Explore.aborted);
      ("deadlock", s.Explore.deadlocked);
      ("fault", s.Explore.faulted);
      ("finished", s.Explore.finished);
      ("step-limit", s.Explore.step_limited);
    ]

let run ~seed ~seconds ~traced ~known =
  let h = Harness.create () in
  (* Set-up is traced in a traced run: it is where this workload's front
     end, analysis and lowering happen. *)
  Trace.enabled := traced;
  let catalog, repros = Harness.setup h setup in
  Trace.enabled := false;
  let expect what = function
    | Some v -> v
    | None ->
        Harness.break h ("no known answer for " ^ what);
        "?"
  in
  let steps = ref 0 and replays = ref 0 in
  let sim_op ~traced ~overlay name compiled sched =
    let tag = (if overlay then "sim+overlay:" else "sim:") ^ name in
    let want = expect ("sim " ^ name) (Known.sim known name) in
    let want_overlay = expect ("overlay " ^ name) (Known.overlay known name) in
    let result =
      Harness.op h ~tag
        (fun () ->
          Trace.span (if overlay then "interp.sim+overlay" else "interp.sim") (fun () ->
              let stream =
                if overlay then
                  Some
                    (Mustlike.Stream.create ~fanout:overlay_fanout
                       ~nranks:(sim_config sched).Sim.nranks ())
                else None
              in
              let r =
                Sim.run_compiled ~config:(sim_config sched)
                  ?on_engine:(Option.map Mustlike.Stream.attach_engine stream)
                  compiled
              in
              (r, Option.map Mustlike.Stream.result stream)))
        (fun ((r : Sim.result), stream) ->
          let got = Explore.class_name r.Sim.outcome in
          if got <> want then Error (Printf.sprintf "%s: outcome %s, expected %s" name got want)
          else
            match stream with
            | Some (report, _) ->
                let v =
                  match report.Mustlike.Overlay.verdict with
                  | `Match _ -> "match"
                  | `Divergence _ -> "divergence"
                in
                if v <> want_overlay then
                  Error (Printf.sprintf "%s: overlay %s, expected %s" name v want_overlay)
                else Ok ()
            | None -> Ok ())
    in
    match result with
    | Some ((r : Sim.result), stream) ->
        if not traced then steps := !steps + r.Sim.stats.Sim.steps
        else begin
          Trace.add "interp.sim.steps" (float_of_int r.Sim.stats.Sim.steps);
          Trace.add "mpisim.engine.collectives"
            (float_of_int (Mpisim.Engine.completed_count r.Sim.engine));
          Trace.add "mpisim.engine.cc_checks"
            (float_of_int (Mpisim.Engine.cc_check_count r.Sim.engine));
          match stream with
          | Some (_, s) ->
              Trace.add "mustlike.stream.events" (float_of_int s.Mustlike.Stream.events);
              Trace.add "mustlike.stream.max_in_flight"
                (float_of_int s.Mustlike.Stream.max_in_flight)
          | None -> ()
        end
    | None -> ()
  in
  let explore_op ~traced mode name program =
    let want =
      match Known.explore known name mode with
      | Some classes -> classes
      | None ->
          Harness.break h (Printf.sprintf "no known answer for %s %s" name mode);
          []
    in
    let explore () =
      match mode with
      | "bfs" -> Explore.outcomes ~jobs:1 ~branch_depth ~budget ~config:explore_config program
      | _ -> Explore.outcomes_dpor ~jobs:1 ~branch_depth ~budget ~config:explore_config program
    in
    let layer = "interp.explore_" ^ mode in
    match
      Harness.op h ~tag:("explore-" ^ mode)
        (fun () ->
          Trace.span layer explore)
        (fun s ->
          if classes s = want then Ok ()
          else
            Error
              (Printf.sprintf "%s %s reached {%s}, expected {%s}" mode name
                 (String.concat "," (classes s)) (String.concat "," want)))
    with
    | Some s ->
        if not traced then replays := !replays + s.Explore.replays
        else begin
          Trace.add (layer ^ ".replays") (float_of_int s.Explore.replays);
          Trace.add (layer ^ ".pruned") (float_of_int s.Explore.pruned);
          Trace.add (layer ^ ".runs") (float_of_int s.Explore.runs)
        end
    | None -> ()
  in
  let round ~key ~traced =
    let st = Random.State.make [| seed; key |] in
    let sims =
      List.concat_map
        (fun (name, compiled) ->
          List.concat_map
            (fun _ ->
              let sched = Random.State.bits st in
              [ `Sim (false, name, compiled, sched); `Sim (true, name, compiled, sched) ])
            (List.init schedules_per_round Fun.id))
        catalog
    in
    let explorations =
      List.concat_map
        (fun (name, program) -> [ `Explore ("bfs", name, program); `Explore ("dpor", name, program) ])
        repros
    in
    List.iter
      (function
        | `Sim (overlay, name, compiled, sched) -> sim_op ~traced ~overlay name compiled sched
        | `Explore (mode, name, program) -> explore_op ~traced mode name program)
      (Harness.shuffle st (sims @ explorations))
  in
  Harness.rounds h ~seconds ~traced round;
  let lats = Harness.latencies h in
  let busy_s tag = List.fold_left ( +. ) 0. (Harness.latencies ~tag h) /. 1e3 in
  let per_round =
    (2 * schedules_per_round * List.length catalog) + (2 * List.length repros)
  in
  let e2e, tail = Harness.end_to_end h ~per_round lats in
  let extra =
    [
      ("sim_steps_per_s", float_of_int !steps /. busy_s (String.starts_with ~prefix:"sim"), "1/s");
      ( "explore_replays_per_s",
        float_of_int !replays /. busy_s (String.starts_with ~prefix:"explore"),
        "1/s" );
    ]
  in
  let traced_mean prefix =
    let l =
      List.filter_map
        (fun (t, ms) -> if String.starts_with ~prefix t then Some ms else None)
        h.Harness.traced
    in
    List.fold_left ( +. ) 0. l /. float_of_int (max 1 (List.length l))
  in
  let layers =
    if not traced then []
    else
      [
        ( "interp.sim.ns_per_step",
          (Trace.sum "interp.sim" +. Trace.sum "interp.sim+overlay")
          /. Trace.sum "interp.sim.steps" );
        (* Every traced schedule runs once bare and once with the overlay,
           so the difference of the means is the mean paired difference. *)
        ("mustlike.stream.ns", (traced_mean "sim+overlay:" -. traced_mean "sim:") *. 1e6);
        ( "interp.explore_bfs.prune_ratio",
          Trace.ratio "interp.explore_bfs.pruned" "interp.explore_bfs.runs" );
        ( "interp.explore_dpor.prune_ratio",
          Trace.ratio "interp.explore_dpor.pruned" "interp.explore_dpor.runs" );
      ]
  in
  (* The overlay's coordinator runs on a second domain beside the sim. *)
  (h, e2e, tail @ extra, layers, min Harness.cores 2)

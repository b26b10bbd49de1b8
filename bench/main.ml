(** Benchmark harness reproducing the paper's evaluation (§4).

    Sections (run all with [dune exec bench/main.exe], or select with
    [dune exec bench/main.exe -- figure1 warnings ...]):

    - [figure1]   — the paper's only figure: compile-time overhead (%) of
      "warnings" and "warnings + verification code generation" over the
      plain compilation pipeline, for BT-MZ, SP-MZ, LU-MZ, the EPCC suite
      and HERA.  One Bechamel test per pipeline stage per benchmark.
    - [warnings]  — the §4 textual report: warning counts and classes per
      benchmark, plus inserted-check counts.
    - [runtime]   — runtime-check cost (§3 "low overhead ... selective
      instrumentation"): simulator steps and wall time for none /
      selective / exhaustive instrumentation.
    - [taint]     — ablation: phase-3 warnings and CC sites with and
      without the rank-taint conditional filter.
    - [returns]   — ablation: detection of early-return divergence with
      and without the before-return CC checks.

    The absolute numbers depend on this OCaml implementation; the claims
    being reproduced are the {e shapes}: overheads in the single-digit
    percent range, code generation roughly doubling the warnings-only
    overhead, the EPCC suite and HERA costing the most, and selective
    instrumentation far below exhaustive. *)

open Bechamel
open Bechamel.Toolkit

(* ------------------------------------------------------------------ *)
(* Measurement helpers                                                 *)
(* ------------------------------------------------------------------ *)

(* Runs every test, returns (name, estimated ns/run) rows. *)
let measure ?(quota = 1.5) tests =
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second quota) ~kde:None
      ~stabilize:true ()
  in
  let raw =
    Benchmark.all cfg [ Instance.monotonic_clock ]
      (Test.make_grouped ~name:"bench" ~fmt:"%s %s" tests)
  in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let res = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name o acc ->
      match Analyze.OLS.estimates o with
      | Some (est :: _) -> (name, est) :: acc
      | Some [] | None -> acc)
    res []

let find_estimate rows name =
  let full = "bench " ^ name in
  match List.assoc_opt full rows with
  | Some v -> v
  | None -> (
      match List.assoc_opt name rows with
      | Some v -> v
      | None -> Fmt.failwith "no estimate for %s" name)

(* Interleaved measurement: all thunks are timed round-robin across
   [rounds] rounds, and each thunk reports its median.  Interleaving makes
   slow drift (GC heap growth, frequency scaling) hit every pipeline
   equally, which matters because Figure 1 compares ratios of
   pipelines that differ by a few percent. *)
let interleaved_samples ?(rounds = 81) thunks =
  List.iter (fun (_, f) -> f (); f ()) thunks;
  let n = List.length thunks in
  let thunk_arr = Array.of_list thunks in
  let samples =
    List.map (fun (name, _) -> (name, Array.make rounds 0.)) thunks
  in
  let sample_arr = Array.of_list samples in
  let rng = Random.State.make [| 0x5eed |] in
  let order = Array.init n (fun i -> i) in
  for round = 0 to rounds - 1 do
    (* Fisher-Yates shuffle: kills positional bias (GC pressure left by
       the previous thunk would otherwise always hit the same victim). *)
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let tmp = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- tmp
    done;
    Array.iter
      (fun idx ->
        let _, f = thunk_arr.(idx) in
        let _, arr = sample_arr.(idx) in
        Gc.minor ();
        let t0 = Unix.gettimeofday () in
        f ();
        let t1 = Unix.gettimeofday () in
        arr.(round) <- t1 -. t0)
      order
  done;
  samples

let median xs =
  let xs = Array.copy xs in
  Array.sort compare xs;
  xs.(Array.length xs / 2)

(* Median of the per-round paired overhead ratios (in %): rounds share
   whatever drift the machine has, so pairing within a round is far more
   stable than comparing two independent medians. *)
let paired_overhead base variant =
  let ratios =
    Array.init (Array.length base) (fun r ->
        (variant.(r) -. base.(r)) /. base.(r) *. 100.)
  in
  median ratios


let bar width pct max_pct =
  let n =
    if max_pct <= 0. then 0
    else int_of_float (Float.round (pct /. max_pct *. float_of_int width))
  in
  String.make (max 0 n) '#'

(* ------------------------------------------------------------------ *)
(* The compilation pipelines                                           *)
(* ------------------------------------------------------------------ *)

(* The compilation model mirrors where PARCOACH sits inside GCC:

   front+middle end: parse, validate, build CFGs, run the classic
   middle-end analyses (dominance + frontiers, liveness, reaching
   definitions, constant propagation, available expressions, copy
   propagation, loops);

   [the PARCOACH phases and instrumentation run here, reusing the CFGs]

   back end: the remaining passes process whatever code is left — for the
   codegen pipeline that includes the inserted verification code, whose
   CFGs must be rebuilt — and the final program is emitted. *)
let front_and_middle source =
  let program = Minilang.Parser.parse_string ~file:"bench" source in
  ignore (Minilang.Validate.check_program program);
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
  Minilang.Pretty.program_to_string program

(* Plain compilation. *)
let compile_baseline source =
  let program, graphs = front_and_middle source in
  back_end program graphs

(* Compilation + the PARCOACH static analysis (warnings only), reusing
   the compiler's CFGs.  [jobs:1]: Figure 1 measures the overhead the
   analysis adds to a sequential compiler pipeline, so the scaling knob
   stays out of the picture (the [scaling] section varies it). *)
let compile_warnings ?options source =
  let program, graphs = front_and_middle source in
  let report = Parcoach.Driver.analyze ?options ~graphs ~jobs:1 program in
  ignore (Parcoach.Driver.all_warnings report);
  back_end program graphs

(* Compilation + analysis + verification code generation: the inserted
   checks flow through the back end (whose CFGs must be rebuilt) and the
   emitted program is the instrumented one. *)
let compile_codegen ?options source =
  let program, graphs = front_and_middle source in
  let report = Parcoach.Driver.analyze ?options ~graphs ~jobs:1 program in
  ignore (Parcoach.Driver.all_warnings report);
  let instrumented =
    Parcoach.Instrument.instrument report Parcoach.Instrument.Selective
  in
  let graphs' = Cfg.Build.of_program instrumented in
  back_end instrumented graphs'

(* ------------------------------------------------------------------ *)
(* Figure 1                                                            *)
(* ------------------------------------------------------------------ *)

let figure1 () =
  Fmt.pr "@.== Figure 1: compile-time overhead (%%) ==@.";
  Fmt.pr
    "(baseline: parse + validate + CFG + dominance + dataflow + emission)@.@.";
  let sources =
    List.map
      (fun (e : Benchsuite.Catalog.entry) ->
        ( e.Benchsuite.Catalog.name,
          Minilang.Pretty.program_to_string (e.Benchsuite.Catalog.generate ()) ))
      Benchsuite.Catalog.all
  in
  let thunks =
    List.concat_map
      (fun (name, source) ->
        [
          (name ^ "/baseline", fun () -> ignore (compile_baseline source));
          (name ^ "/warnings", fun () -> ignore (compile_warnings source));
          (name ^ "/codegen", fun () -> ignore (compile_codegen source));
        ])
      sources
  in
  let rows = interleaved_samples thunks in
  let samples name = List.assoc name rows in
  let results =
    List.map
      (fun (name, _) ->
        let base = samples (name ^ "/baseline") in
        let warn = samples (name ^ "/warnings") in
        let gen = samples (name ^ "/codegen") in
        ( name,
          median base *. 1e9,
          paired_overhead base warn,
          paired_overhead base gen ))
      sources
  in
  Fmt.pr "%-12s | %12s | %10s | %18s@." "benchmark" "baseline(ms)" "warnings"
    "warnings+codegen";
  Fmt.pr "%s@." (String.make 62 '-');
  List.iter
    (fun (name, base, w, g) ->
      Fmt.pr "%-12s | %12.2f | %9.2f%% | %17.2f%%@." name (base /. 1e6) w g)
    results;
  let max_pct =
    List.fold_left (fun acc (_, _, w, g) -> Float.max acc (Float.max w g)) 1. results
  in
  Fmt.pr "@.%s@." "Overhead of average compilation time (ASCII rendering of Figure 1):";
  List.iter
    (fun (name, _, w, g) ->
      Fmt.pr "%-12s warnings          %6.2f%% |%s@." name w (bar 40 w max_pct);
      Fmt.pr "%-12s warnings+codegen  %6.2f%% |%s@." "" g (bar 40 g max_pct))
    results;
  Fmt.pr
    "@.Paper's reported shape: all overheads below 6%%; code generation adds@.";
  Fmt.pr "on top of warnings-only; the largest codes cost the most.@."

(* ------------------------------------------------------------------ *)
(* Bechamel cross-check of the Figure 1 pipelines                      *)
(* ------------------------------------------------------------------ *)

(* Same three pipelines measured with Bechamel's OLS estimator, as an
   independent cross-check of the interleaved-median methodology. *)
let bechamel_section () =
  Fmt.pr "@.== Bechamel OLS cross-check (ns/run estimates) ==@.@.";
  List.iter
    (fun (e : Benchsuite.Catalog.entry) ->
      let name = e.Benchsuite.Catalog.name in
      let source =
        Minilang.Pretty.program_to_string (e.Benchsuite.Catalog.generate ())
      in
      let tests =
        [
          Test.make ~name:"baseline"
            (Staged.stage (fun () -> ignore (compile_baseline source)));
          Test.make ~name:"warnings"
            (Staged.stage (fun () -> ignore (compile_warnings source)));
          Test.make ~name:"codegen"
            (Staged.stage (fun () -> ignore (compile_codegen source)));
        ]
      in
      let rows = measure ~quota:1.0 tests in
      let base = find_estimate rows "baseline" in
      let warn = find_estimate rows "warnings" in
      let gen = find_estimate rows "codegen" in
      Fmt.pr "%-12s baseline %10.0f | warnings %10.0f (%+.2f%%) | codegen %10.0f (%+.2f%%)@."
        name base warn
        ((warn -. base) /. base *. 100.)
        gen
        ((gen -. base) /. base *. 100.))
    Benchsuite.Catalog.all;
  Fmt.pr
    "@.Bechamel measures each pipeline sequentially, so GC/heap drift between@.";
  Fmt.pr
    "tests shows up as a few-percent bias either way on these ~3 ms runs —@.";
  Fmt.pr
    "which is exactly why the figure1 section uses interleaved rounds with@.";
  Fmt.pr "paired per-round ratios instead.@."

(* ------------------------------------------------------------------ *)
(* §4 warnings report                                                  *)
(* ------------------------------------------------------------------ *)

let warnings_section () =
  Fmt.pr "@.== Static warnings per benchmark (the §4 report) ==@.@.";
  Fmt.pr "%-12s | %6s | %9s | %-34s | %s@." "benchmark" "stmts" "colls"
    "warnings by class" "checks (CC/counters/returns)";
  Fmt.pr "%s@." (String.make 110 '-');
  List.iter
    (fun (e : Benchsuite.Catalog.entry) ->
      let program = e.Benchsuite.Catalog.generate () in
      let report = Parcoach.Driver.analyze program in
      let by_class = Parcoach.Driver.warnings_by_class report in
      let cc, counters, returns =
        Parcoach.Instrument.check_counts report Parcoach.Instrument.Selective
      in
      Fmt.pr "%-12s | %6d | %9d | %-34s | %d/%d/%d@." e.Benchsuite.Catalog.name
        (Minilang.Ast.program_size program)
        (Benchsuite.Injector.collective_count program)
        (if by_class = [] then "(none)"
         else
           String.concat ", "
             (List.map (fun (c, n) -> Printf.sprintf "%s: %d" c n) by_class))
        cc counters returns)
    Benchsuite.Catalog.all

(* ------------------------------------------------------------------ *)
(* Runtime-check overhead                                              *)
(* ------------------------------------------------------------------ *)

let runtime_section () =
  Fmt.pr
    "@.== Runtime verification overhead (simulator, selective vs exhaustive) ==@.@.";
  let config =
    {
      Interp.Sim.nranks = 4;
      default_nthreads = 3;
      schedule = `Random 42;
      max_steps = 50_000_000;
      entry = "main";
      record_trace = false;
      thread_level = Mpisim.Thread_level.Multiple;
    }
  in
  Fmt.pr "%-12s | %-10s | %9s | %8s | %9s | %9s@." "benchmark" "mode" "steps"
    "ccRdv" "counters" "time(ms)";
  Fmt.pr "%s@." (String.make 74 '-');
  List.iter
    (fun (e : Benchsuite.Catalog.entry) ->
      let program = e.Benchsuite.Catalog.generate_small () in
      let report = Parcoach.Driver.analyze program in
      let variants =
        [
          ("none", program);
          ( "selective",
            Parcoach.Instrument.instrument report Parcoach.Instrument.Selective );
          ( "exhaustive",
            Parcoach.Instrument.instrument report Parcoach.Instrument.Exhaustive );
        ]
      in
      List.iter
        (fun (mode, prog) ->
          let t0 = Unix.gettimeofday () in
          let result = Interp.Sim.run ~config prog in
          let t1 = Unix.gettimeofday () in
          (match result.Interp.Sim.outcome with
          | Interp.Sim.Finished -> ()
          | o ->
              Fmt.pr "!! %s/%s did not finish: %s@." e.Benchsuite.Catalog.name
                mode (Interp.Sim.outcome_to_string o));
          Fmt.pr "%-12s | %-10s | %9d | %8d | %9d | %9.2f@."
            e.Benchsuite.Catalog.name mode result.Interp.Sim.stats.Interp.Sim.steps
            (Mpisim.Engine.cc_check_count result.Interp.Sim.engine)
            result.Interp.Sim.stats.Interp.Sim.counter_checks
            ((t1 -. t0) *. 1000.))
        variants)
    Benchsuite.Catalog.all;
  Fmt.pr
    "@.Shape: selective adds few checks (only flagged functions); exhaustive@.";
  Fmt.pr "pays a CC rendezvous per collective per rank plus counters everywhere.@."

(* ------------------------------------------------------------------ *)
(* Rank-taint ablation                                                 *)
(* ------------------------------------------------------------------ *)

let taint_section () =
  Fmt.pr "@.== Ablation: rank-taint filtering of phase-3 conditionals ==@.@.";
  Fmt.pr "%-12s | %18s | %18s@." "benchmark" "flagged (no filter)"
    "flagged (taint)";
  Fmt.pr "%s@." (String.make 56 '-');
  List.iter
    (fun (e : Benchsuite.Catalog.entry) ->
      let program = e.Benchsuite.Catalog.generate () in
      let flagged options =
        let report = Parcoach.Driver.analyze ~options program in
        List.fold_left
          (fun acc fr ->
            acc + List.length fr.Parcoach.Driver.phase3.Parcoach.Interproc.flagged)
          0 report.Parcoach.Driver.funcs
      in
      let plain = flagged Parcoach.Driver.default_options in
      let tainted =
        flagged
          { Parcoach.Driver.default_options with Parcoach.Driver.taint_filter = true }
      in
      Fmt.pr "%-12s | %18d | %18d@." e.Benchsuite.Catalog.name plain tainted)
    Benchsuite.Catalog.all;
  Fmt.pr
    "@.Shape: uniform loops/conditionals (time-step loops, periodic dumps)@.";
  Fmt.pr
    "are discarded by the filter; genuinely rank-dependent branches remain.@."

(* ------------------------------------------------------------------ *)
(* Return-check ablation                                               *)
(* ------------------------------------------------------------------ *)

(* Strips the before-return CC checks from an instrumented program. *)
let strip_return_checks (program : Minilang.Ast.program) =
  let open Minilang in
  let is_return_check (s : Ast.stmt) =
    match s.Ast.sdesc with
    | Ast.Check Ast.Cc_return -> true
    | Ast.Omp_single { body = [ { Ast.sdesc = Ast.Check Ast.Cc_return; _ } ]; _ }
      ->
        true
    | _ -> false
  in
  {
    Ast.funcs =
      List.map
        (fun f ->
          Ast.map_blocks
            (fun block -> List.filter (fun s -> not (is_return_check s)) block)
            f)
        program.Ast.funcs;
  }

let returns_section () =
  Fmt.pr "@.== Ablation: CC checks before return statements ==@.@.";
  let source =
    {|
func main() {
  var x = 0;
  if (rank() == 0) { return; }
  x = MPI_Allreduce(1, sum);
  MPI_Barrier();
}
|}
  in
  let program = Minilang.Parser.parse_string ~file:"ablation" source in
  let report = Parcoach.Driver.analyze program in
  let instrumented =
    Parcoach.Instrument.instrument report Parcoach.Instrument.Selective
  in
  let stripped = strip_return_checks instrumented in
  let config seed =
    {
      Interp.Sim.nranks = 3;
      default_nthreads = 2;
      schedule = `Random seed;
      max_steps = 200_000;
      entry = "main";
      record_trace = false;
      thread_level = Mpisim.Thread_level.Multiple;
    }
  in
  let classify prog =
    let outcomes =
      List.map
        (fun seed ->
          match (Interp.Sim.run ~config:(config seed) prog).Interp.Sim.outcome with
          | Interp.Sim.Finished -> "finished"
          | Interp.Sim.Aborted _ -> "clean abort"
          | Interp.Sim.Fault _ -> "fault"
          | Interp.Sim.Deadlock _ -> "deadlock"
          | Interp.Sim.Step_limit -> "step limit")
        (List.init 10 (fun i -> i + 1))
    in
    let tally = Hashtbl.create 4 in
    List.iter
      (fun o ->
        Hashtbl.replace tally o (1 + Option.value ~default:0 (Hashtbl.find_opt tally o)))
      outcomes;
    String.concat ", "
      (List.sort compare
         (Hashtbl.fold (fun k v acc -> Printf.sprintf "%s: %d/10" k v :: acc) tally []))
  in
  Fmt.pr "program: rank 0 returns early, the others reach the collectives@.@.";
  Fmt.pr "uninstrumented:        %s@." (classify program);
  Fmt.pr "with return checks:    %s@." (classify instrumented);
  Fmt.pr "without return checks: %s@." (classify stripped);
  Fmt.pr
    "@.Shape: the before-return CC converts the deadlock into a located clean@.";
  Fmt.pr "abort; removing it leaves the other ranks blocked in their CC.@."

(* ------------------------------------------------------------------ *)
(* Interprocedural-extension ablation                                  *)
(* ------------------------------------------------------------------ *)

(* The paper's phases are intra-procedural.  The extension summarises the
   call graph ("may this function execute collectives?") and lets phase 3
   flag rank-dependent *calls* to such functions.  This section shows the
   false-negative it removes and that the benchmarks stay clean. *)
let interproc_section () =
  Fmt.pr "@.== Ablation: interprocedural call-site extension ==@.@.";
  let leaf_case =
    {|func leaf() { MPI_Barrier(); }
      func main() { if (rank() == 0) { leaf(); } MPI_Allgather(1); }|}
  in
  let program = Minilang.Parser.parse_string ~file:"leaf-case" leaf_case in
  let intra = Parcoach.Driver.analyze program in
  let inter =
    Parcoach.Driver.analyze
      ~options:
        { Parcoach.Driver.default_options with Parcoach.Driver.interprocedural = true }
      program
  in
  Fmt.pr "rank-divergent call to a collective-bearing function:@.";
  Fmt.pr "  intra-procedural warnings:    %d (missed)@."
    (Parcoach.Driver.warning_count intra);
  Fmt.pr "  interprocedural warnings:     %d@."
    (Parcoach.Driver.warning_count inter);
  let run report =
    let inst = Parcoach.Instrument.instrument report Parcoach.Instrument.Selective in
    let config =
      {
        Interp.Sim.nranks = 3;
        default_nthreads = 2;
        schedule = `Random 42;
        max_steps = 1_000_000;
        entry = "main";
        record_trace = false;
        thread_level = Mpisim.Thread_level.Multiple;
      }
    in
    Interp.Sim.outcome_to_string (Interp.Sim.run ~config inst).Interp.Sim.outcome
  in
  Fmt.pr "  instrumented (intra):         %s@." (run intra);
  Fmt.pr "  instrumented (interproc):     %s@.@." (run inter);
  Fmt.pr "%-12s | %16s | %16s | %12s@." "benchmark" "intra warnings"
    "inter warnings" "extra CC";
  Fmt.pr "%s@." (String.make 66 '-');
  List.iter
    (fun (e : Benchsuite.Catalog.entry) ->
      let p = e.Benchsuite.Catalog.generate () in
      let intra = Parcoach.Driver.analyze p in
      let inter =
        Parcoach.Driver.analyze
          ~options:
            {
              Parcoach.Driver.default_options with
              Parcoach.Driver.interprocedural = true;
            }
          p
      in
      let cc_of r =
        let cc, _, _ = Parcoach.Instrument.check_counts r Parcoach.Instrument.Selective in
        cc
      in
      Fmt.pr "%-12s | %16d | %16d | %+12d@." e.Benchsuite.Catalog.name
        (Parcoach.Driver.warning_count intra)
        (Parcoach.Driver.warning_count inter)
        (cc_of inter - cc_of intra))
    Benchsuite.Catalog.all;
  Fmt.pr
    "@.Shape: the extension closes the cross-function false negative at the@.";
  Fmt.pr
    "price of CC checks at collective-bearing call sites of flagged functions.@."

(* ------------------------------------------------------------------ *)
(* Overlay-network comparison (MUST / Marmot substrate)                *)
(* ------------------------------------------------------------------ *)

(* The paper situates PARCOACH against dynamic-only tools: Marmot
   (centralized) and MUST (tree-based overlay).  This section reproduces
   the architectural comparison those tools rest on (per-round cost of a
   central server vs a fan-out tree), then benchmarks the streaming
   checker (Mustlike.Stream) against the post-hoc oracle
   (Mustlike.Overlay.check) at the million-event scale: identical
   reports, >= 10x sustained events/sec, bounded in-flight memory. *)
let overlay_section () =
  Fmt.pr "@.== Dynamic-tool substrate: centralized vs tree overlay ==@.@.";
  Fmt.pr "%-8s | %-12s | %6s | %10s | %14s@." "ranks" "topology" "depth"
    "max fan-in" "msgs/round";
  Fmt.pr "%s@." (String.make 62 '-');
  List.iter
    (fun nranks ->
      List.iter
        (fun (label, fanout) ->
          let trace = [ { Mpisim.Engine.signature = (Mpisim.Coll.Barrier, None, None); payload = 0; event_site = "s" } ] in
          let r = Mustlike.Overlay.check ~fanout (Array.make nranks trace) in
          Fmt.pr "%-8d | %-12s | %6d | %10d | %14d@." nranks label
            r.Mustlike.Overlay.tree_depth r.Mustlike.Overlay.tree_max_fan_in
            r.Mustlike.Overlay.messages)
        [
          ("central", max 2 nranks);
          ("tree k=4", 4);
          ("tree k=2", 2);
        ])
    [ 8; 32; 128; 512 ];
  Fmt.pr
    "@.Shape (Hilbrich et al. 2013): the tree bounds the busiest tool@.";
  Fmt.pr "process's fan-in at k, at the price of log_k(P) extra latency.@.@.";
  let smoke = Sys.getenv_opt "BENCH_OVERLAY_SMOKE" <> None in
  let nranks = 8 in
  let fanout = 2 in
  let target_events = if smoke then 200_000 else 1_000_000 in
  let samples = if smoke then 1 else 3 in
  (* Benchsuite-derived per-rank traces: a real HERA run's recorded
     collectives. *)
  let hera_traces =
    let program =
      (List.find
         (fun (e : Benchsuite.Catalog.entry) ->
           e.Benchsuite.Catalog.name = "HERA")
         Benchsuite.Catalog.all)
        .Benchsuite.Catalog.generate_small ()
    in
    let config =
      {
        Interp.Sim.nranks;
        default_nthreads = 2;
        schedule = `Random 42;
        max_steps = 50_000_000;
        entry = "main";
        record_trace = false;
        thread_level = Mpisim.Thread_level.Multiple;
      }
    in
    Mpisim.Engine.all_traces (Interp.Sim.run ~config program).Interp.Sim.engine
  in
  (* Correctness gate before any timing: the streaming checker must
     produce byte-identical reports to the post-hoc oracle, at every
     shard count. *)
  let barrier_ev : Mustlike.Overlay.event =
    { signature = (Mpisim.Coll.Barrier, None, None); payload = 0; event_site = "s" }
  in
  let allred_ev : Mustlike.Overlay.event =
    {
      signature = (Mpisim.Coll.Allreduce, Some Mpisim.Op.Sum, None);
      payload = 0;
      event_site = "s";
    }
  in
  let gate_cases =
    [
      ("matching", Array.make nranks [ barrier_ev; allred_ev; barrier_ev ]);
      ( "mismatching",
        Array.init nranks (fun r ->
            if r = 5 then [ barrier_ev; barrier_ev ]
            else [ barrier_ev; allred_ev ]) );
      ( "early-ended",
        Array.init nranks (fun r ->
            if r < 4 then [ barrier_ev; allred_ev ] else [ barrier_ev ]) );
      ("hera", hera_traces);
    ]
  in
  let gates = ref 0 in
  List.iter
    (fun (name, traces) ->
      let post =
        Mustlike.Overlay.report_to_string (Mustlike.Overlay.check ~fanout traces)
      in
      List.iter
        (fun shards ->
          let r, _ = Mustlike.Stream.check_traces ~fanout ~shards traces in
          if Mustlike.Overlay.report_to_string r <> post then
            Fmt.failwith
              "overlay bench: streaming report differs from post-hoc on %S \
               (shards %d)"
              name shards;
          incr gates)
        [ 1; 4 ])
    gate_cases;
  Fmt.pr "identity: streaming = post-hoc on %d case/shard combination(s)@.@."
    !gates;
  (* Workloads: synthetic signature cycle, and the HERA run tiled to the
     target event count.  Both match, so the checkers scan every event. *)
  let synth_rounds = target_events / nranks in
  let sig_cycle =
    [|
      barrier_ev;
      allred_ev;
      { barrier_ev with signature = (Mpisim.Coll.Bcast, None, Some 0) };
      { barrier_ev with signature = (Mpisim.Coll.Allgather, None, None) };
    |]
  in
  let synth =
    Array.init nranks (fun _ ->
        Array.init synth_rounds (fun i ->
            sig_cycle.(i mod Array.length sig_cycle)))
  in
  let hera_tiled =
    let per_rank = target_events / nranks in
    Array.map
      (fun tr ->
        let tr = Array.of_list tr in
        let len = Array.length tr in
        Array.init per_rank (fun i -> tr.(i mod len)))
      hera_traces
  in
  let timed f =
    let result = ref None in
    let ts =
      Array.init samples (fun _ ->
          Gc.minor ();
          let t0 = Unix.gettimeofday () in
          result := Some (f ());
          Unix.gettimeofday () -. t0)
    in
    (median ts, Option.get !result)
  in
  (* Streaming run.  The default producer is a single domain feeding all
     ranks in lockstep chunks — the shape of the (single-threaded)
     simulator's engine hook; [multi] uses one producer domain per rank
     instead, which only helps with spare cores. *)
  let stream_run ?(shards = 1) ?(adapt = false) ?(multi = false)
      (traces : _ array array) () =
    let t =
      Mustlike.Stream.create ~fanout ~shards ~adapt ~nranks:(Array.length traces)
        ()
    in
    if multi then begin
      let producers =
        Array.mapi
          (fun rank tr ->
            Domain.spawn (fun () ->
                Mustlike.Stream.push_all t ~rank tr;
                Mustlike.Stream.close_rank t ~rank))
          traces
      in
      Array.iter Domain.join producers
    end
    else begin
      let producer =
        Domain.spawn (fun () ->
            let chunk = 256 in
            let longest =
              Array.fold_left (fun acc tr -> max acc (Array.length tr)) 0 traces
            in
            let pos = ref 0 in
            while !pos < longest do
              Array.iteri
                (fun rank tr ->
                  let len = Array.length tr in
                  if !pos < len then
                    Mustlike.Stream.push_slice t ~rank tr !pos
                      (min chunk (len - !pos)))
                traces;
              pos := !pos + chunk
            done;
            Array.iteri
              (fun rank _ -> Mustlike.Stream.close_rank t ~rank)
              traces)
      in
      Domain.join producer
    end;
    Mustlike.Stream.result t
  in
  let bench_workload name (traces : Mustlike.Overlay.event array array) =
    let events =
      Array.fold_left (fun acc tr -> acc + Array.length tr) 0 traces
    in
    let as_lists = Array.map Array.to_list traces in
    let post_t, post_report =
      timed (fun () -> Mustlike.Overlay.check ~fanout as_lists)
    in
    let post_eps = float_of_int events /. post_t in
    Fmt.pr "workload %s: %d events over %d ranks@." name events nranks;
    Fmt.pr "%-16s | %10s | %14s | %8s | %12s@." "checker" "time(ms)"
      "events/sec" "speedup" "max in-flight";
    Fmt.pr "%s@." (String.make 72 '-');
    Fmt.pr "%-16s | %10.1f | %14.0f | %8s | %12d@." "post-hoc"
      (post_t *. 1000.) post_eps "1.00x" events;
    let rows =
      List.map
        (fun (label, shards, adapt, multi) ->
          let t, (report, stats) =
            timed (stream_run ~shards ~adapt ~multi traces)
          in
          let rs = Mustlike.Overlay.report_to_string report in
          if (not adapt) && rs <> Mustlike.Overlay.report_to_string post_report
          then
            Fmt.failwith "overlay bench: %s report differs from post-hoc on %s"
              label name;
          if adapt && not (Mustlike.Overlay.is_match report) then
            Fmt.failwith "overlay bench: adaptive run lost the match verdict";
          let eps = float_of_int events /. t in
          Fmt.pr "%-16s | %10.1f | %14.0f | %7.2fx | %12d@." label
            (t *. 1000.) eps (eps /. post_eps)
            stats.Mustlike.Stream.max_in_flight;
          (label, shards, adapt, t, eps, stats))
        [
          ("stream", 1, false, false);
          ("stream shards:2", 2, false, false);
          ("stream shards:4", 4, false, false);
          ("stream adapt", 1, true, false);
          ("stream 8-domain", 1, false, true);
        ]
    in
    Fmt.pr "@.";
    (name, events, post_t, post_eps, rows)
  in
  let w_synth = bench_workload "synthetic" synth in
  let w_hera = bench_workload "hera-tiled" hera_tiled in
  (* Throughput gate: the streaming checker must sustain >= 10x the
     post-hoc oracle's events/sec on the synthetic workload (best fixed
     configuration; the adaptive row reconfigures the tree, so its cost
     metrics are not comparable).  Skipped in smoke mode, where fixed
     costs (domain spawns) dominate the tiny event count. *)
  let _, _, _, synth_post_eps, synth_rows = w_synth in
  let stream_eps =
    List.fold_left
      (fun acc (_, _, adapt, _, eps, _) -> if adapt then acc else max acc eps)
      0. synth_rows
  in
  let achieved = stream_eps /. synth_post_eps in
  if (not smoke) && achieved < 10. then
    Fmt.failwith
      "overlay bench: streaming sustained only %.2fx the post-hoc \
       events/sec (gate: 10x)"
      achieved;
  Fmt.pr "throughput gate: %.2fx post-hoc events/sec (required: 10x)%s@."
    achieved
    (if smoke then " [smoke: informational only]" else "");
  let window, batch, bound =
    let _, _, _, _, _, st =
      List.find (fun (label, _, _, _, _, _) -> label = "stream") synth_rows
    in
    ( st.Mustlike.Stream.window,
      st.Mustlike.Stream.batch,
      (st.Mustlike.Stream.window + st.Mustlike.Stream.batch) * nranks )
  in
  Fmt.pr
    "memory: post-hoc retains every event; streaming is bounded at \
     (window %d + batch %d) x %d ranks = %d event(s) in flight@."
    window batch nranks bound;
  let row_json (label, shards, adapt, t, eps, (st : Mustlike.Stream.stats)) =
    Printf.sprintf
      "      { \"label\": %S, \"shards\": %d, \"adapt\": %b, \"seconds\": \
       %.6f, \"events_per_sec\": %.0f, \"max_in_flight\": %d, \"batches\": \
       %d, \"max_batch_fill\": %d, \"retunes\": %d, \"final_fanout\": %d }"
      label shards adapt t eps st.Mustlike.Stream.max_in_flight
      st.Mustlike.Stream.batches st.Mustlike.Stream.max_batch_fill
      st.Mustlike.Stream.retunes st.Mustlike.Stream.final_fanout
  in
  let workload_json (name, events, post_t, post_eps, rows) =
    Printf.sprintf
      "    { \"name\": %S, \"events\": %d,\n\
      \      \"posthoc\": { \"seconds\": %.6f, \"events_per_sec\": %.0f },\n\
      \      \"stream\": [\n\
       %s\n\
      \      ] }"
      name events post_t post_eps
      (String.concat ",\n" (List.map row_json rows))
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"section\": \"overlay\",\n\
      \  \"smoke\": %b,\n\
      \  \"nranks\": %d,\n\
      \  \"fanout\": %d,\n\
      \  \"identity_gates\": %d,\n\
      \  \"in_flight_bound\": %d,\n\
      \  \"gate\": { \"required_speedup\": 10.0, \"achieved\": %.2f, \
       \"enforced\": %b },\n\
      \  \"workloads\": [\n\
       %s\n\
      \  ]\n\
       }\n"
      smoke nranks fanout !gates bound achieved (not smoke)
      (String.concat ",\n" (List.map workload_json [ w_synth; w_hera ]))
  in
  let oc = open_out "BENCH_overlay.json" in
  output_string oc json;
  close_out oc;
  Fmt.pr "@.wrote BENCH_overlay.json@."

(* ------------------------------------------------------------------ *)
(* Schedule-coverage ablation: seed sampling vs bounded exploration    *)
(* ------------------------------------------------------------------ *)

(* Dynamic checks only fire on schedules where the race manifests; this
   section compares how reliably random seeds and the bounded explorer
   exhibit the phase-2 races of instrumented programs. *)
let explore_section () =
  Fmt.pr "@.== Schedule coverage: random seeds vs bounded exploration ==@.@.";
  let cases =
    [
      ( "two nowait singles",
        {|func main() { pragma omp parallel num_threads(2) {
           pragma omp single nowait { MPI_Barrier(); }
           pragma omp single { MPI_Allgather(1); } } }|} );
      ( "master vs single",
        {|func main() { pragma omp parallel num_threads(2) {
           pragma omp master { MPI_Barrier(); }
           pragma omp single { MPI_Allgather(1); } } }|} );
      ( "three sections, one collective each",
        {|func main() { pragma omp parallel num_threads(3) {
           pragma omp sections {
             section { MPI_Barrier(); }
             section { MPI_Allgather(1); }
             section { compute(3); }
           } } }|} );
    ]
  in
  let config =
    {
      Interp.Sim.nranks = 2;
      default_nthreads = 2;
      schedule = `Round_robin;
      max_steps = 200_000;
      entry = "main";
      record_trace = false;
      thread_level = Mpisim.Thread_level.Multiple;
    }
  in
  Fmt.pr "%-36s | %-22s | %-30s@." "case" "30 random seeds" "explorer (≤3000 schedules)";
  Fmt.pr "%s@." (String.make 96 '-');
  List.iter
    (fun (name, src) ->
      let program = Minilang.Parser.parse_string ~file:"case" src in
      let report = Parcoach.Driver.analyze program in
      let inst =
        Parcoach.Instrument.instrument report Parcoach.Instrument.Selective
      in
      let aborts =
        List.length
          (List.filter
             (fun seed ->
               Interp.Sim.is_clean_abort
                 (Interp.Sim.run
                    ~config:{ config with Interp.Sim.schedule = `Random seed }
                    inst))
             (List.init 30 (fun i -> i + 1)))
      in
      let summary =
        Interp.Explore.outcomes ~branch_depth:10 ~budget:3000 ~config inst
      in
      Fmt.pr "%-36s | %2d/30 seeds abort      | %d/%d schedules abort%s@." name
        aborts summary.Interp.Explore.aborted summary.Interp.Explore.runs
        (if Interp.Explore.reaches summary "aborted" then " (witness kept)"
         else "");
      ())
    cases;
  Fmt.pr
    "@.Shape: random sampling exhibits the race in a fraction of runs; the@.";
  Fmt.pr
    "explorer enumerates the interleavings and keeps a replayable witness.@."

(* ------------------------------------------------------------------ *)
(* Exploration throughput: pruned parallel engine vs seed baseline     *)
(* ------------------------------------------------------------------ *)

(* Throughput of the fingerprint-pruned wave engine against the
   executable spec's unpruned, depth-first, sequential enumeration on the
   deadlock reproducer, in represented schedules per second.  The
   correctness gate runs first: per-class counts must match the spec
   exactly, otherwise the throughput is meaningless. *)
let explore_perf_section () =
  Fmt.pr "@.== Exploration throughput: pruned engine vs spec ==@.@.";
  let smoke = Sys.getenv_opt "BENCH_EXPLORE_SMOKE" <> None in
  let rounds = if smoke then 3 else 9 in
  let workload = "deadlock-barrier" in
  let program = Benchsuite.Reproducers.load workload in
  let nranks = 3 in
  let branch_depth = 10 in
  let budget = 100_000 in
  let config =
    {
      Interp.Sim.nranks;
      default_nthreads = 2;
      schedule = `Round_robin;
      max_steps = 200_000;
      entry = "main";
      record_trace = false;
      thread_level = Mpisim.Thread_level.Multiple;
    }
  in
  let cores = Domain.recommended_domain_count () in
  let spec () = Simspec.explore ~branch_depth ~budget ~config program in
  let pruned jobs () =
    Interp.Explore.outcomes ~branch_depth ~budget ~jobs ~config program
  in
  let ref_summary = spec () in
  let counts (s : Interp.Explore.summary) =
    ( s.Interp.Explore.finished,
      s.Interp.Explore.aborted,
      s.Interp.Explore.faulted,
      s.Interp.Explore.deadlocked,
      s.Interp.Explore.step_limited )
  in
  let job_counts = [ 1; 2; 4 ] in
  (* Correctness gate: identical per-class counts at every job count. *)
  List.iter
    (fun jobs ->
      let s = pruned jobs () in
      if counts s <> counts ref_summary then
        Fmt.failwith
          "explore: jobs:%d class counts differ from the spec" jobs)
    job_counts;
  let p1 = pruned 1 () in
  Fmt.pr
    "workload: %s (%d ranks, depth %d) | %d schedule(s), %d replay(s) after \
     pruning (spec: %d)@."
    workload nranks branch_depth p1.Interp.Explore.runs
    p1.Interp.Explore.replays ref_summary.Interp.Explore.replays;
  Fmt.pr "class counts at jobs 1/2/4: identical to the spec@.@.";
  let timed f =
    let samples =
      Array.init rounds (fun _ ->
          Gc.minor ();
          let t0 = Unix.gettimeofday () in
          ignore (f ());
          Unix.gettimeofday () -. t0)
    in
    median samples
  in
  let t_ref = timed spec in
  let runs = float_of_int p1.Interp.Explore.runs in
  let ref_rps = runs /. t_ref in
  Fmt.pr "%-12s | %10s | %12s | %9s | %s@." "engine" "time(ms)" "runs/sec"
    "speedup" "notes";
  Fmt.pr "%s@." (String.make 66 '-');
  Fmt.pr "%-12s | %10.2f | %12.0f | %9s |@." "spec" (t_ref *. 1000.)
    ref_rps "1.00x";
  let results =
    List.map
      (fun jobs ->
        let t = timed (pruned jobs) in
        let rps = runs /. t in
        let oversubscribed = jobs > cores in
        Fmt.pr "%-12s | %10.2f | %12.0f | %8.2fx | %s@."
          (Printf.sprintf "jobs:%d" jobs)
          (t *. 1000.) rps (rps /. ref_rps)
          (if oversubscribed then "oversubscribed" else "");
        (jobs, t, rps, oversubscribed))
      job_counts
  in
  List.iter
    (fun (jobs, _, _, oversubscribed) ->
      if oversubscribed then
        Fmt.pr
          "warning: jobs:%d exceeds the %d available core(s); the fan-out \
           runs it on %d domain(s), so it is not a scaling measurement@."
          jobs cores cores)
    results;
  let json =
    Printf.sprintf
      "{\n\
      \  \"section\": \"explore\",\n\
      \  \"workload\": %S,\n\
      \  \"nranks\": %d,\n\
      \  \"branch_depth\": %d,\n\
      \  \"budget\": %d,\n\
      \  \"cores\": %d,\n\
      \  \"identical_counts\": true,\n\
      \  \"runs_represented\": %d,\n\
      \  \"spec\": { \"replays\": %d, \"seconds\": %.6f, \
       \"runs_per_sec\": %.0f },\n\
      \  \"runs\": [\n\
       %s\n\
      \  ]\n\
       }\n"
      workload nranks branch_depth budget cores p1.Interp.Explore.runs
      ref_summary.Interp.Explore.replays t_ref ref_rps
      (String.concat ",\n"
         (List.map
            (fun (jobs, t, rps, oversubscribed) ->
              Printf.sprintf
                "    { \"jobs\": %d, \"replays\": %d, \"pruned\": %d, \
                 \"seconds\": %.6f, \"runs_per_sec\": %.0f, \
                 \"speedup_vs_spec\": %.3f, \"oversubscribed\": %b }"
                jobs p1.Interp.Explore.replays p1.Interp.Explore.pruned t rps
                (rps /. ref_rps) oversubscribed)
            results))
  in
  let oc = open_out "BENCH_explore.json" in
  output_string oc json;
  close_out oc;
  Fmt.pr "@.wrote BENCH_explore.json@."

(* ------------------------------------------------------------------ *)
(* Interpreter throughput: compiled core vs executable spec            *)
(* ------------------------------------------------------------------ *)

(* Steps/second of the compiled interpreter ([Sim.make] once +
   [Sim.run_compiled]) against the executable spec's AST walker
   ([Simspec.run]) on every reproducer, plus the end-to-end effect on
   exploration throughput at jobs:1.  The equality gate runs first: both
   must produce identical outcomes, print traces and step counts on
   every (program, schedule) pair, otherwise the timings are
   meaningless. *)
let interp_perf_section () =
  Fmt.pr "@.== Interpreter throughput: compiled core vs spec ==@.@.";
  let smoke = Sys.getenv_opt "BENCH_INTERP_SMOKE" <> None in
  let rounds = if smoke then 3 else 9 in
  let iters = if smoke then 30 else 300 in
  let nranks = 3 in
  let config schedule record_trace =
    {
      Interp.Sim.nranks;
      default_nthreads = 2;
      schedule;
      max_steps = 200_000;
      entry = "main";
      record_trace;
      thread_level = Mpisim.Thread_level.Multiple;
    }
  in
  let gate_schedules = [ `Round_robin; `Random 42; `Random 7; `Random 1337 ] in
  let observe (r : Interp.Sim.result) =
    ( r.Interp.Sim.outcome,
      Interp.Sim.trace r,
      r.Interp.Sim.stats.Interp.Sim.steps )
  in
  (* Equality gate over the whole catalogue. *)
  List.iter
    (fun (e : Benchsuite.Reproducers.entry) ->
      let program = Benchsuite.Reproducers.program e in
      List.iter
        (fun schedule ->
          let cfg = config schedule true in
          let spec = Simspec.run ~config:cfg program in
          let compiled = Interp.Sim.run ~config:cfg program in
          if
            (spec.Simspec.outcome, spec.Simspec.trace, spec.Simspec.steps)
            <> observe compiled
          then
            Fmt.failwith
              "interp: %s: compiled core diverges from the spec \
               (outcome, trace or steps)"
              e.Benchsuite.Reproducers.name)
        gate_schedules)
    Benchsuite.Reproducers.all;
  Fmt.pr
    "equality gate: outcomes, traces and step counts identical on every \
     reproducer × schedule@.@.";
  let timed f =
    let samples =
      Array.init rounds (fun _ ->
          Gc.minor ();
          let t0 = Unix.gettimeofday () in
          f ();
          Unix.gettimeofday () -. t0)
    in
    median samples
  in
  let cfg = config `Round_robin false in
  Fmt.pr "%-22s | %8s | %14s | %14s | %8s@." "workload" "steps"
    "spec steps/s" "compiled st/s" "speedup";
  Fmt.pr "%s@." (String.make 78 '-');
  let per_entry =
    List.map
      (fun (e : Benchsuite.Reproducers.entry) ->
        let program = Benchsuite.Reproducers.program e in
        let compiled_form = Interp.Sim.make program in
        let steps =
          (Interp.Sim.run_compiled ~config:cfg compiled_form)
            .Interp.Sim.stats.Interp.Sim.steps
        in
        let t_ref =
          timed (fun () ->
              for _ = 1 to iters do
                ignore (Simspec.run ~config:cfg program)
              done)
        in
        let t_cmp =
          timed (fun () ->
              for _ = 1 to iters do
                ignore (Interp.Sim.run_compiled ~config:cfg compiled_form)
              done)
        in
        let total = float_of_int (steps * iters) in
        let ref_sps = total /. t_ref in
        let cmp_sps = total /. t_cmp in
        Fmt.pr "%-22s | %8d | %14.0f | %14.0f | %7.2fx@."
          e.Benchsuite.Reproducers.name steps ref_sps cmp_sps
          (cmp_sps /. ref_sps);
        (e.Benchsuite.Reproducers.name, steps, t_ref, t_cmp, ref_sps, cmp_sps))
      Benchsuite.Reproducers.all
  in
  let total_steps =
    List.fold_left (fun acc (_, s, _, _, _, _) -> acc + (s * iters)) 0 per_entry
  in
  let sum_t f = List.fold_left (fun acc e -> acc +. f e) 0. per_entry in
  let agg_ref = float_of_int total_steps /. sum_t (fun (_, _, t, _, _, _) -> t) in
  let agg_cmp = float_of_int total_steps /. sum_t (fun (_, _, _, t, _, _) -> t) in
  let agg_speedup = agg_cmp /. agg_ref in
  Fmt.pr "%s@." (String.make 78 '-');
  Fmt.pr "%-22s | %8d | %14.0f | %14.0f | %7.2fx@.@." "aggregate"
    (total_steps / iters) agg_ref agg_cmp agg_speedup;
  (* End-to-end: the pruned explorer at jobs:1 against the spec's
     unpruned enumeration.  Identical per-class counts are part of the
     gate. *)
  let workload = "deadlock-barrier" in
  let program = Benchsuite.Reproducers.load workload in
  let branch_depth = 10 in
  let budget = 100_000 in
  let explore_spec () = Simspec.explore ~branch_depth ~budget ~config:cfg program in
  let explore_compiled () =
    Interp.Explore.outcomes ~branch_depth ~budget ~jobs:1 ~config:cfg program
  in
  let counts (s : Interp.Explore.summary) =
    ( s.Interp.Explore.finished,
      s.Interp.Explore.aborted,
      s.Interp.Explore.faulted,
      s.Interp.Explore.deadlocked,
      s.Interp.Explore.step_limited )
  in
  let s_ref = explore_spec () in
  let s_cmp = explore_compiled () in
  if counts s_ref <> counts s_cmp then
    Fmt.failwith "interp: exploration class counts differ from the spec";
  let t_exp_ref = timed (fun () -> ignore (explore_spec ())) in
  let t_exp_cmp = timed (fun () -> ignore (explore_compiled ())) in
  let runs = float_of_int s_cmp.Interp.Explore.runs in
  let exp_ref_rps = runs /. t_exp_ref in
  let exp_cmp_rps = runs /. t_exp_cmp in
  Fmt.pr
    "explore %s (depth %d, jobs:1): %.0f runs/s on the spec, %.0f on the \
     compiled core (%.2fx), identical class counts@."
    workload branch_depth exp_ref_rps exp_cmp_rps (exp_cmp_rps /. exp_ref_rps);
  let json =
    Printf.sprintf
      "{\n\
      \  \"section\": \"interp\",\n\
      \  \"smoke\": %b,\n\
      \  \"nranks\": %d,\n\
      \  \"iters\": %d,\n\
      \  \"equality_gate\": true,\n\
      \  \"workloads\": [\n\
       %s\n\
      \  ],\n\
      \  \"aggregate\": { \"spec_steps_per_sec\": %.0f, \
       \"compiled_steps_per_sec\": %.0f, \"speedup\": %.3f },\n\
      \  \"explore\": { \"workload\": %S, \"branch_depth\": %d, \"budget\": \
       %d, \"jobs\": 1, \"identical_counts\": true, \
       \"spec_runs_per_sec\": %.0f, \"compiled_runs_per_sec\": %.0f, \
       \"speedup\": %.3f }\n\
       }\n"
      smoke nranks iters
      (String.concat ",\n"
         (List.map
            (fun (name, steps, t_ref, t_cmp, ref_sps, cmp_sps) ->
              Printf.sprintf
                "    { \"workload\": %S, \"steps_per_run\": %d, \
                 \"spec_seconds\": %.6f, \"compiled_seconds\": %.6f, \
                 \"spec_steps_per_sec\": %.0f, \"compiled_steps_per_sec\": \
                 %.0f, \"speedup\": %.3f }"
                name steps t_ref t_cmp ref_sps cmp_sps (cmp_sps /. ref_sps))
            per_entry))
      agg_ref agg_cmp agg_speedup workload branch_depth budget exp_ref_rps
      exp_cmp_rps
      (exp_cmp_rps /. exp_ref_rps)
  in
  let oc = open_out "BENCH_interp.json" in
  output_string oc json;
  close_out oc;
  Fmt.pr "@.wrote BENCH_interp.json@."

(* ------------------------------------------------------------------ *)
(* Domain-parallel driver scaling                                      *)
(* ------------------------------------------------------------------ *)

(* A program with many independent functions: the catalog's generated
   benchmarks concatenated and replicated under fresh names until at
   least [min_funcs] functions.  The default analysis is
   intra-procedural, so the renamed copies analyse exactly like the
   originals. *)
let scaling_program ~min_funcs =
  let base =
    List.concat_map
      (fun (e : Benchsuite.Catalog.entry) ->
        (e.Benchsuite.Catalog.generate ()).Minilang.Ast.funcs)
      Benchsuite.Catalog.all
  in
  let nbase = List.length base in
  let copies = (min_funcs + nbase - 1) / nbase in
  let funcs =
    List.concat
      (List.init copies (fun k ->
           List.map
             (fun (f : Minilang.Ast.func) ->
               { f with Minilang.Ast.fname = f.Minilang.Ast.fname ^ "__c"
                                             ^ string_of_int k })
             base))
  in
  { Minilang.Ast.funcs }

let scaling_section () =
  Fmt.pr "@.== Driver.analyze scaling over OCaml 5 domains ==@.@.";
  let program = scaling_program ~min_funcs:16 in
  let nfuncs = List.length program.Minilang.Ast.funcs in
  let cores = Domain.recommended_domain_count () in
  Fmt.pr "program: %d functions, %d statements | machine: %d core(s)@.@."
    nfuncs
    (Minilang.Ast.program_size program)
    cores;
  let reference =
    Parcoach.Json_report.to_string (Parcoach.Driver.analyze ~jobs:1 program)
  in
  let job_counts = [ 1; 2; 4 ] in
  (* Determinism gate first: every job count must reproduce the jobs:1
     report byte for byte, otherwise the timings are meaningless. *)
  List.iter
    (fun jobs ->
      let json =
        Parcoach.Json_report.to_string (Parcoach.Driver.analyze ~jobs program)
      in
      if not (String.equal json reference) then
        Fmt.failwith "scaling: jobs:%d report differs from jobs:1" jobs)
    job_counts;
  Fmt.pr "reports at jobs 1/2/4: byte-identical (%d bytes of JSON)@.@."
    (String.length reference);
  let tests =
    List.map
      (fun jobs ->
        Test.make
          ~name:(Printf.sprintf "jobs%d" jobs)
          (Staged.stage (fun () ->
               ignore (Parcoach.Driver.analyze ~jobs program))))
      job_counts
  in
  let rows = measure ~quota:1.5 tests in
  let times =
    List.map
      (fun jobs ->
        (jobs, find_estimate rows (Printf.sprintf "jobs%d" jobs)))
      job_counts
  in
  let t1 = List.assoc 1 times in
  Fmt.pr "%-8s | %14s | %8s | %s@." "jobs" "ns/run" "speedup" "notes";
  Fmt.pr "%s@." (String.make 48 '-');
  List.iter
    (fun (jobs, t) ->
      Fmt.pr "%-8d | %14.0f | %7.2fx | %s@." jobs t (t1 /. t)
        (if jobs > cores then "oversubscribed" else ""))
    times;
  (* An honest speedup needs jobs <= cores: beyond that the fan-out
     clamps the width to the cores, so the row repeats a smaller one. *)
  List.iter
    (fun (jobs, _) ->
      if jobs > cores then
        Fmt.pr
          "warning: jobs:%d exceeds the %d available core(s); the fan-out \
           runs it on %d domain(s), so its speedup figure is not a scaling \
           measurement@."
          jobs cores cores)
    times;
  let json =
    Printf.sprintf
      "{\n  \"section\": \"scaling\",\n  \"nfuncs\": %d,\n  \"cores\": %d,\n\
      \  \"report_bytes\": %d,\n  \"identical_reports\": true,\n\
      \  \"runs\": [\n%s\n  ]\n}\n"
      nfuncs cores
      (String.length reference)
      (String.concat ",\n"
         (List.map
            (fun (jobs, t) ->
              Printf.sprintf
                "    { \"jobs\": %d, \"ns_per_run\": %.0f, \"speedup\": \
                 %.3f, \"oversubscribed\": %b }"
                jobs t (t1 /. t) (jobs > cores))
            times))
  in
  let oc = open_out "BENCH_scaling.json" in
  output_string oc json;
  close_out oc;
  Fmt.pr "@.wrote BENCH_scaling.json@.";
  if cores < 2 then
    Fmt.pr
      "note: this machine reports a single core; the domains serialize and@.\
       no speedup can show here — run on a multicore host to see scaling.@."

(* ------------------------------------------------------------------ *)
(* MHP-based data-race pass                                            *)
(* ------------------------------------------------------------------ *)

(* The two racy example programs double as bench subjects; resolve them
   whether the bench runs from the repository root or from bench/. *)
let example_path name =
  let candidates =
    [
      "examples/programs/" ^ name;
      "../examples/programs/" ^ name;
      "../../examples/programs/" ^ name;
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Fmt.failwith "races: cannot locate examples/programs/%s" name

let races_section () =
  Fmt.pr "@.== MHP-based data-race pass: warnings, refinement, overhead ==@.@.";
  let smoke = Sys.getenv_opt "BENCH_RACES_SMOKE" <> None in
  let options =
    { Parcoach.Driver.default_options with Parcoach.Driver.races = true }
  in
  let race_warning_count report =
    List.length
      (List.filter
         (fun (w : Parcoach.Warning.t) ->
           match w.Parcoach.Warning.kind with
           | Parcoach.Warning.Data_race _ -> true
           | _ -> false)
         (Parcoach.Driver.all_warnings report))
  in
  (* Per-function race-pass counters summed over the whole program. *)
  let race_stats report =
    List.fold_left
      (fun (acc, sh, cand, filt, pairs, feeds) (fr : Parcoach.Driver.func_report) ->
        match fr.Parcoach.Driver.races with
        | None -> (acc, sh, cand, filt, pairs, feeds)
        | Some r ->
            ( acc + r.Parcoach.Races.accesses,
              sh + r.Parcoach.Races.shared_accesses,
              cand + r.Parcoach.Races.mhp_candidates,
              filt + r.Parcoach.Races.critical_filtered,
              pairs + List.length r.Parcoach.Races.pairs,
              feeds
              + List.length
                  (List.filter
                     (fun (p : Parcoach.Races.pair) ->
                       p.Parcoach.Races.feeds_collective)
                     r.Parcoach.Races.pairs) ))
      (0, 0, 0, 0, 0, 0) report.Parcoach.Driver.funcs
  in
  (* Clean benchmarks: the refinement chain must discharge everything. *)
  Fmt.pr "%-10s | %8s | %6s | %10s | %8s | %5s | %8s@." "benchmark" "accesses"
    "shared" "candidates" "filtered" "pairs" "warnings";
  Fmt.pr "%s@." (String.make 72 '-');
  let bench_rows =
    List.map
      (fun (e : Benchsuite.Catalog.entry) ->
        let program = e.Benchsuite.Catalog.generate_small () in
        let report = Parcoach.Driver.analyze ~options program in
        let acc, sh, cand, filt, pairs, _ = race_stats report in
        let warns = race_warning_count report in
        Fmt.pr "%-10s | %8d | %6d | %10d | %8d | %5d | %8d@."
          e.Benchsuite.Catalog.name acc sh cand filt pairs warns;
        (e.Benchsuite.Catalog.name, (acc, sh, cand, filt, pairs, warns)))
      Benchsuite.Catalog.all
  in
  List.iter
    (fun (name, (_, _, _, _, _, warns)) ->
      if warns <> 0 then
        Fmt.failwith "races: clean benchmark %s has %d race warning(s)" name
          warns)
    bench_rows;
  Fmt.pr "@.all clean benchmarks: 0 race warnings (refinement holds)@.@.";
  (* Racy examples: static warnings plus the dynamic oracle's verdicts. *)
  let seeds = if smoke then 2 else 5 in
  let example_rows =
    List.map
      (fun name ->
        let program = Minilang.Parser.parse_file (example_path name) in
        let report = Parcoach.Driver.analyze ~options program in
        let static_keys =
          List.filter_map
            (fun (w : Parcoach.Warning.t) ->
              match w.Parcoach.Warning.kind with
              | Parcoach.Warning.Data_race { var; loc1; loc2; _ } ->
                  let s1 = Minilang.Loc.to_string loc1 in
                  let s2 = Minilang.Loc.to_string loc2 in
                  Some (if s1 <= s2 then (var, s1, s2) else (var, s2, s1))
              | _ -> None)
            (Parcoach.Driver.all_warnings report)
        in
        let dynamic =
          List.concat_map
            (fun seed ->
              let oracle = Interp.Raceck.create () in
              let config =
                {
                  Interp.Sim.default_config with
                  nranks = 2;
                  schedule = `Random seed;
                }
              in
              let (_ : Interp.Sim.result) =
                Interp.Sim.run ~config ~race:oracle program
              in
              List.map
                (fun (r : Interp.Raceck.race) ->
                  ( r.Interp.Raceck.rc_var,
                    r.Interp.Raceck.rc_site1,
                    r.Interp.Raceck.rc_site2 ))
                (Interp.Raceck.races oracle))
            (List.init seeds (fun i -> i))
        in
        let dynamic = List.sort_uniq compare dynamic in
        let covered =
          List.for_all (fun k -> List.mem k static_keys) dynamic
        in
        Fmt.pr
          "%-20s: %d static warning(s), %d dynamic race(s) over %d seeds, \
           dynamic covered statically: %b@."
          name
          (List.length static_keys)
          (List.length dynamic) seeds covered;
        if not covered then
          Fmt.failwith "races: dynamic race in %s not statically reported" name;
        (name, List.length static_keys, List.length dynamic, covered))
      [ "racy_counter.hml"; "racy_flag.hml" ]
  in
  (* Overhead of the race pass over the default analysis, across the
     whole catalog. *)
  let programs =
    List.map
      (fun (e : Benchsuite.Catalog.entry) ->
        e.Benchsuite.Catalog.generate_small ())
      Benchsuite.Catalog.all
  in
  let analyze_all options () =
    List.iter (fun p -> ignore (Parcoach.Driver.analyze ~options p)) programs
  in
  let quota = if smoke then 0.3 else 1.5 in
  let rows =
    measure ~quota
      [
        Test.make ~name:"races-off"
          (Staged.stage (analyze_all Parcoach.Driver.default_options));
        Test.make ~name:"races-on" (Staged.stage (analyze_all options));
      ]
  in
  let off = find_estimate rows "races-off" in
  let on = find_estimate rows "races-on" in
  let overhead_pct = (on -. off) /. off *. 100. in
  Fmt.pr "@.analysis time: %.0f ns without races, %.0f ns with (%.1f%% \
          overhead)@."
    off on overhead_pct;
  let total_cand, total_filt, total_pairs =
    List.fold_left
      (fun (c, f, p) (_, (_, _, cand, filt, pairs, _)) ->
        (c + cand, f + filt, p + pairs))
      (0, 0, 0) bench_rows
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"section\": \"races\",\n\
      \  \"smoke\": %b,\n\
      \  \"benchsuite\": [\n%s\n  ],\n\
      \  \"refinement\": { \"mhp_candidates\": %d, \"critical_filtered\": %d, \
       \"reported_pairs\": %d },\n\
      \  \"examples\": [\n%s\n  ],\n\
      \  \"overhead\": { \"races_off_ns\": %.0f, \"races_on_ns\": %.0f, \
       \"percent\": %.2f }\n\
       }\n"
      smoke
      (String.concat ",\n"
         (List.map
            (fun (name, (acc, sh, cand, filt, pairs, warns)) ->
              Printf.sprintf
                "    { \"name\": \"%s\", \"accesses\": %d, \
                 \"shared_accesses\": %d, \"mhp_candidates\": %d, \
                 \"critical_filtered\": %d, \"pairs\": %d, \"warnings\": %d }"
                name acc sh cand filt pairs warns)
            bench_rows))
      total_cand total_filt total_pairs
      (String.concat ",\n"
         (List.map
            (fun (name, static, dynamic, covered) ->
              Printf.sprintf
                "    { \"name\": \"%s\", \"static_warnings\": %d, \
                 \"dynamic_races\": %d, \"dynamic_covered\": %b }"
                name static dynamic covered)
            example_rows))
      off on overhead_pct
  in
  let oc = open_out "BENCH_races.json" in
  output_string oc json;
  close_out oc;
  Fmt.pr "@.wrote BENCH_races.json@."

(* ------------------------------------------------------------------ *)
(* Request-lifecycle pass: clean suite, oracle agreement, overhead     *)
(* ------------------------------------------------------------------ *)

let requests_section () =
  Fmt.pr
    "@.== Nonblocking request-lifecycle pass: warnings, oracle agreement, \
     overhead ==@.@.";
  let smoke = Sys.getenv_opt "BENCH_REQUESTS_SMOKE" <> None in
  let options =
    {
      Parcoach.Driver.default_options with
      Parcoach.Driver.requests = true;
      taint_filter = true;
    }
  in
  let request_classes =
    [ "request leak"; "double wait"; "use before completion";
      "completion mismatch" ]
  in
  let request_warning_count report =
    List.length
      (List.filter
         (fun (w : Parcoach.Warning.t) ->
           List.mem
             (Parcoach.Warning.class_of w.Parcoach.Warning.kind)
             request_classes)
         (Parcoach.Driver.all_warnings report))
  in
  (* Per-function request-pass counters summed over the whole program. *)
  let request_stats report =
    List.fold_left
      (fun (reqs, starts, finds) (fr : Parcoach.Driver.func_report) ->
        match fr.Parcoach.Driver.requests with
        | None -> (reqs, starts, finds)
        | Some r ->
            ( reqs + r.Parcoach.Requests.nrequests,
              starts + r.Parcoach.Requests.nstarts,
              finds + List.length r.Parcoach.Requests.findings ))
      (0, 0, 0) report.Parcoach.Driver.funcs
  in
  (* Clean benchmarks (now with split-phase EPCC skeletons): zero
     request warnings. *)
  Fmt.pr "%-10s | %8s | %6s | %8s | %8s@." "benchmark" "requests" "starts"
    "findings" "warnings";
  Fmt.pr "%s@." (String.make 52 '-');
  let bench_rows =
    List.map
      (fun (e : Benchsuite.Catalog.entry) ->
        let program = e.Benchsuite.Catalog.generate_small () in
        let report = Parcoach.Driver.analyze ~options program in
        let reqs, starts, finds = request_stats report in
        let warns = request_warning_count report in
        Fmt.pr "%-10s | %8d | %6d | %8d | %8d@." e.Benchsuite.Catalog.name
          reqs starts finds warns;
        (e.Benchsuite.Catalog.name, (reqs, starts, finds, warns)))
      Benchsuite.Catalog.all
  in
  List.iter
    (fun (name, (_, _, _, warns)) ->
      if warns <> 0 then
        Fmt.failwith "requests: clean benchmark %s has %d request warning(s)"
          name warns)
    bench_rows;
  Fmt.pr "@.all clean benchmarks: 0 request warnings@.@.";
  (* Buggy examples: static warnings plus the dynamic lifecycle
     checker's verdicts, with the dynamic ⊆ static agreement gate. *)
  let seeds = if smoke then 2 else 5 in
  let example_rows =
    List.map
      (fun name ->
        let program = Minilang.Parser.parse_file (example_path name) in
        let report = Parcoach.Driver.analyze ~options program in
        let warnings = Parcoach.Driver.all_warnings report in
        let statically_covered (cls, site) =
          List.exists
            (fun (w : Parcoach.Warning.t) ->
              String.equal (Parcoach.Warning.class_of w.Parcoach.Warning.kind)
                cls
              &&
              match w.Parcoach.Warning.kind with
              | Parcoach.Warning.Request_leak { started; _ } ->
                  List.exists
                    (fun l -> String.equal (Minilang.Loc.to_string l) site)
                    started
              | _ ->
                  String.equal
                    (Minilang.Loc.to_string w.Parcoach.Warning.loc)
                    site)
            warnings
        in
        let dynamic =
          List.sort_uniq compare
            (List.concat_map
               (fun seed ->
                 let config =
                   {
                     Interp.Sim.default_config with
                     nranks = 3;
                     schedule = `Random seed;
                   }
                 in
                 let result = Interp.Sim.run ~config program in
                 List.map
                   (function
                     | Interp.Sim.Leaked_request { site; _ } ->
                         ("request leak", site)
                     | Interp.Sim.Double_wait { site; _ } ->
                         ("double wait", site)
                     | Interp.Sim.Stale_read { site; _ } ->
                         ("use before completion", site))
                   result.Interp.Sim.lifecycle)
               (List.init seeds (fun i -> i)))
        in
        let covered = List.for_all statically_covered dynamic in
        let static = request_warning_count report in
        Fmt.pr
          "%-25s: %d static warning(s), %d dynamic violation(s) over %d \
           seeds, dynamic covered statically: %b@."
          name static (List.length dynamic) seeds covered;
        if not covered then
          Fmt.failwith
            "requests: dynamic lifecycle violation in %s not statically \
             reported"
            name;
        if static = 0 then
          Fmt.failwith "requests: buggy example %s reports no warnings" name;
        (name, static, List.length dynamic, covered))
      [ "leaky_request.hml"; "ibarrier_divergence.hml" ]
  in
  (* Overhead of the request pass over the default analysis, across the
     whole catalog. *)
  let programs =
    List.map
      (fun (e : Benchsuite.Catalog.entry) ->
        e.Benchsuite.Catalog.generate_small ())
      Benchsuite.Catalog.all
  in
  let analyze_all options () =
    List.iter (fun p -> ignore (Parcoach.Driver.analyze ~options p)) programs
  in
  let quota = if smoke then 0.3 else 1.5 in
  let baseline =
    { Parcoach.Driver.default_options with Parcoach.Driver.taint_filter = true }
  in
  let rows =
    measure ~quota
      [
        Test.make ~name:"requests-off" (Staged.stage (analyze_all baseline));
        Test.make ~name:"requests-on" (Staged.stage (analyze_all options));
      ]
  in
  let off = find_estimate rows "requests-off" in
  let on = find_estimate rows "requests-on" in
  let overhead_pct = (on -. off) /. off *. 100. in
  Fmt.pr
    "@.analysis time: %.0f ns without requests, %.0f ns with (%.1f%% \
     overhead)@."
    off on overhead_pct;
  let json =
    Printf.sprintf
      "{\n\
      \  \"section\": \"requests\",\n\
      \  \"smoke\": %b,\n\
      \  \"benchsuite\": [\n%s\n  ],\n\
      \  \"examples\": [\n%s\n  ],\n\
      \  \"overhead\": { \"requests_off_ns\": %.0f, \"requests_on_ns\": \
       %.0f, \"percent\": %.2f }\n\
       }\n"
      smoke
      (String.concat ",\n"
         (List.map
            (fun (name, (reqs, starts, finds, warns)) ->
              Printf.sprintf
                "    { \"name\": \"%s\", \"requests\": %d, \"starts\": %d, \
                 \"findings\": %d, \"warnings\": %d }"
                name reqs starts finds warns)
            bench_rows))
      (String.concat ",\n"
         (List.map
            (fun (name, static, dynamic, covered) ->
              Printf.sprintf
                "    { \"name\": \"%s\", \"static_warnings\": %d, \
                 \"dynamic_violations\": %d, \"dynamic_covered\": %b }"
                name static dynamic covered)
            example_rows))
      off on overhead_pct
  in
  let oc = open_out "BENCH_requests.json" in
  output_string oc json;
  close_out oc;
  Fmt.pr "@.wrote BENCH_requests.json@."

(* ------------------------------------------------------------------ *)
(* Dynamic partial-order reduction: replays vs BFS vs spec             *)
(* ------------------------------------------------------------------ *)

(* Schedule-space reduction of the DPOR explorer.  The correctness gate
   runs first: on every reproducer the DPOR class set must cover the
   executable spec's brute-force enumeration's (one representative per
   Mazurkiewicz trace
   changes per-class counts, never reachability within its window), and
   on the deep racy-ring showcase DPOR must replay at least 10x fewer
   schedules than the fingerprint-pruned BFS at the same budget while
   still covering the classes BFS reaches. *)
let dpor_section () =
  Fmt.pr "@.== Dynamic partial-order reduction: replays vs BFS ==@.@.";
  let smoke = Sys.getenv_opt "BENCH_DPOR_SMOKE" <> None in
  let rounds = if smoke then 3 else 9 in
  let config nranks =
    {
      Interp.Sim.nranks;
      default_nthreads = 2;
      schedule = `Round_robin;
      max_steps = 200_000;
      entry = "main";
      record_trace = false;
      thread_level = Mpisim.Thread_level.Multiple;
    }
  in
  let classes (s : Interp.Explore.summary) =
    List.sort compare (List.map fst s.Interp.Explore.witnesses)
  in
  let covers a b = List.for_all (fun c -> List.mem c b) a in
  let check_invariant name (s : Interp.Explore.summary) =
    if s.Interp.Explore.runs <> s.Interp.Explore.replays + s.Interp.Explore.pruned
    then Fmt.failwith "dpor: %s: runs <> replays + pruned" name
  in
  (* Gate 1: class coverage vs the spec on every reproducer. *)
  let coverage_rows =
    List.map
      (fun (e : Benchsuite.Reproducers.entry) ->
        let program = Benchsuite.Reproducers.program e in
        let name = e.Benchsuite.Reproducers.name in
        let spec =
          Simspec.explore ~branch_depth:8 ~budget:200_000 ~config:(config 2)
            program
        in
        let dpor =
          Interp.Explore.outcomes_dpor ~branch_depth:8 ~budget:200_000
            ~config:(config 2) program
        in
        check_invariant name dpor;
        if not (covers (classes spec) (classes dpor)) then
          Fmt.failwith "dpor: %s: misses a spec outcome class" name;
        ( name,
          spec.Interp.Explore.replays,
          dpor.Interp.Explore.replays,
          classes dpor ))
      Benchsuite.Reproducers.all
  in
  Fmt.pr
    "coverage gate: DPOR covers the spec classes on every reproducer \
     (depth 8)@.@.";
  (* Gate 2 + timing: the racy-ring showcase at equal budgets. *)
  let ring = Benchsuite.Reproducers.load "racy-ring" in
  let budget = 2000 in
  let depths = if smoke then [ 16 ] else [ 16; 20 ] in
  let timed f =
    let samples =
      Array.init rounds (fun _ ->
          Gc.minor ();
          let t0 = Unix.gettimeofday () in
          ignore (f ());
          Unix.gettimeofday () -. t0)
    in
    median samples
  in
  Fmt.pr "%-20s | %8s | %8s | %9s | %10s | %10s@." "racy-ring" "dpor"
    "bfs" "reduction" "dpor ms" "bfs ms";
  Fmt.pr "%s@." (String.make 78 '-');
  let ring_rows =
    List.map
      (fun depth ->
        let dpor () =
          Interp.Explore.outcomes_dpor ~branch_depth:depth ~budget
            ~config:(config 2) ring
        in
        let bfs () =
          Interp.Explore.outcomes ~branch_depth:depth ~budget
            ~config:(config 2) ring
        in
        let d = dpor () and b = bfs () in
        check_invariant (Printf.sprintf "racy-ring depth %d" depth) d;
        if not (covers (classes b) (classes d)) then
          Fmt.failwith "dpor: racy-ring depth %d: misses a BFS class" depth;
        if d.Interp.Explore.replays * 10 > b.Interp.Explore.replays then
          Fmt.failwith
            "dpor: racy-ring depth %d: only %dx replay reduction (dpor %d, \
             bfs %d)"
            depth
            (b.Interp.Explore.replays / max 1 d.Interp.Explore.replays)
            d.Interp.Explore.replays b.Interp.Explore.replays;
        let t_d = timed dpor and t_b = timed bfs in
        let reduction =
          float_of_int b.Interp.Explore.replays
          /. float_of_int (max 1 d.Interp.Explore.replays)
        in
        Fmt.pr "%-20s | %8d | %8d | %8.1fx | %10.2f | %10.2f@."
          (Printf.sprintf "depth %d" depth)
          d.Interp.Explore.replays b.Interp.Explore.replays reduction
          (t_d *. 1000.) (t_b *. 1000.);
        (depth, d, b, t_d, t_b, reduction))
      depths
  in
  Fmt.pr
    "@.replay-reduction gate: >= 10x fewer DPOR replays than BFS at every \
     depth, classes covered@.";
  let json =
    Printf.sprintf
      "{\n\
      \  \"section\": \"dpor\",\n\
      \  \"smoke\": %b,\n\
      \  \"budget\": %d,\n\
      \  \"coverage_gate\": true,\n\
      \  \"reduction_gate_10x\": true,\n\
      \  \"reproducers\": [\n\
       %s\n\
      \  ],\n\
      \  \"racy_ring\": [\n\
       %s\n\
      \  ]\n\
       }\n"
      smoke budget
      (String.concat ",\n"
         (List.map
            (fun (name, ref_replays, dpor_replays, cls) ->
              Printf.sprintf
                "    { \"name\": %S, \"spec_replays\": %d, \
                 \"dpor_replays\": %d, \"classes\": [%s] }"
                name ref_replays dpor_replays
                (String.concat ", "
                   (List.map (Printf.sprintf "%S") cls)))
            coverage_rows))
      (String.concat ",\n"
         (List.map
            (fun (depth, d, b, t_d, t_b, reduction) ->
              Printf.sprintf
                "    { \"branch_depth\": %d, \"dpor_replays\": %d, \
                 \"bfs_replays\": %d, \"bfs_runs\": %d, \
                 \"reduction\": %.1f, \"dpor_seconds\": %.6f, \
                 \"bfs_seconds\": %.6f, \"dpor_classes\": [%s] }"
                depth d.Interp.Explore.replays b.Interp.Explore.replays
                b.Interp.Explore.runs reduction t_d t_b
                (String.concat ", "
                   (List.map (Printf.sprintf "%S") (classes d))))
            ring_rows))
  in
  let oc = open_out "BENCH_dpor.json" in
  output_string oc json;
  close_out oc;
  Fmt.pr "@.wrote BENCH_dpor.json@."

(* ------------------------------------------------------------------ *)
(* Persistent analysis daemon: cold vs warm incremental re-analysis    *)
(* ------------------------------------------------------------------ *)

(* Append a fresh [compute(marker)] to the body of [main] (the one
   catalog function nothing else calls, so exactly one summary key
   changes).  Each warm round uses a distinct marker: the daemon then
   re-analyses exactly one function per request instead of replaying a
   cached variant. *)
let edit_main marker (program : Minilang.Ast.program) =
  let stmt = Minilang.Ast.mk (Minilang.Ast.Compute (Minilang.Ast.Int marker)) in
  let funcs =
    List.map
      (fun (f : Minilang.Ast.func) ->
        if String.equal f.Minilang.Ast.fname "main" then
          { f with Minilang.Ast.body = f.Minilang.Ast.body @ [ stmt ] }
        else f)
      program.Minilang.Ast.funcs
  in
  { Minilang.Ast.funcs }

let serve_options =
  {
    Parcoach.Driver.default_options with
    Parcoach.Driver.taint_filter = true;
    interprocedural = true;
    races = true;
  }

let serve_request source =
  Serve.Json.to_string
    (Serve.Json.Obj
       [
         ("id", Serve.Json.Int 1);
         ("method", Serve.Json.Str "analyze");
         ( "params",
           Serve.Json.Obj
             [
               ("source", Serve.Json.Str source);
               ("file", Serve.Json.Str "bench.hml");
               ("taint_filter", Serve.Json.Bool true);
               ("interprocedural", Serve.Json.Bool true);
               ("races", Serve.Json.Bool true);
               ("jobs", Serve.Json.Int 1);
             ] );
       ])

let serve_response_ok line =
  match Serve.Json.parse line with
  | Error msg -> Fmt.failwith "serve: bad response: %s" msg
  | Ok response ->
      if
        Option.bind (Serve.Json.member "ok" response) Serve.Json.to_bool
        <> Some true
        || Option.bind (Serve.Json.member "valid" response) Serve.Json.to_bool
           <> Some true
      then Fmt.failwith "serve: request failed: %s" line

let serve_section () =
  Fmt.pr "@.== parcoachd: content-hashed incremental re-analysis ==@.@.";
  let smoke = Sys.getenv_opt "BENCH_SERVE_SMOKE" <> None in
  let rounds = if smoke then 7 else 21 in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  Fmt.pr "%-12s | %8s | %12s | %12s | %8s | %10s@." "program" "funcs"
    "cold ms" "warm ms" "speedup" "warm req/s";
  Fmt.pr "%s@." (String.make 76 '-');
  let rows =
    List.map
      (fun (entry : Benchsuite.Catalog.entry) ->
        (* Service-scale instances: the daemon exists for codes large
           enough that a full re-analysis is the expensive part (the
           paper's targets are 100kloc-plus), which is what
           [generate_large] models. *)
        let program = entry.Benchsuite.Catalog.generate_large () in
        let nfuncs = List.length program.Minilang.Ast.funcs in
        let source = Minilang.Pretty.program_to_string program in
        (* Every daemon request must succeed before any timing counts. *)
        let check = Serve.Daemon.create () in
        serve_response_ok (Serve.Daemon.handle_line check (serve_request source));
        (* Requests are built outside the timed regions: the measurement
           is the daemon's request latency, not the client's JSON
           escaping. *)
        let base_request = serve_request source in
        (* Cold: a fresh daemon per request — full parse + hash + whole-
           program analysis, exactly what a one-shot parcoachc run pays. *)
        let cold_samples =
          Array.init rounds (fun _ ->
              let d = Serve.Daemon.create () in
              time (fun () -> ignore (Serve.Daemon.handle_line d base_request)))
        in
        (* Warm: one daemon, one request per round, each with a fresh
           single-function edit of [main] — every request re-parses and
           re-hashes the whole source but re-analyses one function. *)
        let warm_daemon = Serve.Daemon.create () in
        ignore (Serve.Daemon.handle_line warm_daemon base_request);
        let warm_requests =
          Array.init rounds (fun r ->
              serve_request
                (Minilang.Pretty.program_to_string
                   (edit_main (9_000_000 + r) program)))
        in
        let warm_samples =
          Array.map
            (fun req ->
              let response = ref "" in
              let dt =
                time (fun () ->
                    response := Serve.Daemon.handle_line warm_daemon req)
              in
              serve_response_ok !response;
              dt)
            warm_requests
        in
        (* Determinism + incrementality gates: a warm single-function
           edit re-analyses exactly one function, and its merged report
           is byte-identical to a cold Driver.analyze of the same
           source. *)
        let edited_src =
          Minilang.Pretty.program_to_string (edit_main 9_999_999 program)
        in
        let warm_analysis =
          match
            Serve.Daemon.analyze_source warm_daemon ~options:serve_options
              ~jobs:1 ~file:"bench.hml" edited_src
          with
          | Ok a -> a
          | Error _ -> Fmt.failwith "serve: edited %s did not validate" entry.Benchsuite.Catalog.name
        in
        if warm_analysis.Serve.Daemon.analysed <> 1 then
          Fmt.failwith
            "serve: %s: expected 1 re-analysed function after a \
             single-function edit, got %d"
            entry.Benchsuite.Catalog.name warm_analysis.Serve.Daemon.analysed;
        let warm_json =
          Parcoach.Json_report.to_string warm_analysis.Serve.Daemon.report
        in
        let cold_json =
          Parcoach.Json_report.to_string
            (Parcoach.Driver.analyze ~options:serve_options ~jobs:1
               (Minilang.Parser.parse_string ~file:"bench.hml" edited_src))
        in
        if not (String.equal warm_json cold_json) then
          Fmt.failwith
            "serve: %s: warm merged report differs from cold analyze"
            entry.Benchsuite.Catalog.name;
        let cold = median cold_samples in
        let warm = median warm_samples in
        let warm_total = Array.fold_left ( +. ) 0. warm_samples in
        let rps = float_of_int rounds /. warm_total in
        let speedup = cold /. warm in
        Fmt.pr "%-12s | %8d | %12.3f | %12.3f | %7.2fx | %10.1f@."
          entry.Benchsuite.Catalog.name nfuncs (cold *. 1e3) (warm *. 1e3)
          speedup rps;
        (entry.Benchsuite.Catalog.name, nfuncs, cold, warm, speedup, rps))
      Benchsuite.Catalog.all
  in
  let best =
    List.fold_left (fun acc (_, _, _, _, s, _) -> Float.max acc s) 0. rows
  in
  Fmt.pr
    "@.warm gate: single-function edits are >= 5x faster than cold \
     re-analysis (best %.1fx), merged reports byte-identical@."
    best;
  if best < 5. then
    Fmt.failwith
      "serve: warm re-analysis speedup %.2fx is below the 5x gate" best;
  let json =
    Printf.sprintf
      "{\n\
      \  \"section\": \"serve\",\n\
      \  \"smoke\": %b,\n\
      \  \"rounds\": %d,\n\
      \  \"identical_reports\": true,\n\
      \  \"single_function_reanalysis\": true,\n\
      \  \"best_speedup\": %.2f,\n\
      \  \"speedup_gate_5x\": true,\n\
      \  \"programs\": [\n%s\n  ]\n\
       }\n"
      smoke rounds best
      (String.concat ",\n"
         (List.map
            (fun (name, nfuncs, cold, warm, speedup, rps) ->
              Printf.sprintf
                "    { \"name\": %S, \"funcs\": %d, \"cold_ms\": %.3f, \
                 \"warm_ms\": %.3f, \"speedup\": %.2f, \
                 \"warm_requests_per_sec\": %.1f }"
                name nfuncs (cold *. 1e3) (warm *. 1e3) speedup rps)
            rows))
  in
  let oc = open_out "BENCH_serve.json" in
  output_string oc json;
  close_out oc;
  Fmt.pr "@.wrote BENCH_serve.json@."

(* ------------------------------------------------------------------ *)
(* farm: corpus-scale differential fuzzing                             *)
(* ------------------------------------------------------------------ *)

let farm_section () =
  Fmt.pr "@.== farm: corpus-scale differential fuzzing ==@.@.";
  let smoke = Sys.getenv_opt "BENCH_FARM_SMOKE" <> None in
  (* BENCH_FARM_CORPUS overrides the corpus size (programs, rounded up
     to whole families); the default non-smoke corpus is 2400 programs,
     above the 2000-program gate floor. *)
  let families =
    match Sys.getenv_opt "BENCH_FARM_CORPUS" with
    | Some s -> (
        try max 1 ((int_of_string s + 5) / 6) with Failure _ -> 400)
    | None -> if smoke then 25 else 400
  in
  let reps = if smoke then 1 else 3 in
  let spec = { Farm.Pipeline.default_spec with families; variants = 6 } in
  let entries = Farm.Pipeline.fingerprinted (Farm.Pipeline.corpus spec) in
  let n = Array.length entries in
  let jobs = min 8 (Domain.recommended_domain_count ()) in
  let shards = 8 and batch = 16 in
  Fmt.pr
    "corpus: %d programs (%d families x %d variants), %d scheduler seed(s) \
     per program, %d domain(s)@."
    n spec.Farm.Pipeline.families spec.Farm.Pipeline.variants
    (List.length spec.Farm.Pipeline.sim.Farm.Oracle.seeds)
    jobs;
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let best_of k f =
    let result = ref None in
    let best = ref infinity in
    for _ = 1 to k do
      let r, dt = time f in
      if dt < !best then best := dt;
      result := Some r
    done;
    (Option.get !result, !best)
  in
  (* The serial baseline: the CLI-equivalent pipeline (re-parse,
     re-validate, re-analyze and render per invocation). *)
  let serial, serial_s =
    best_of reps (fun () -> Farm.Pipeline.run_serial_entries spec entries)
  in
  (* The farm at one domain isolates the algorithmic wins (dedup, shared
     ASTs, summary-cache reuse, demand-driven CC, one lowering per
     form); the [jobs]-domain run is the configuration the gate holds. *)
  let farm1, farm1_s =
    best_of reps (fun () ->
        Farm.Pipeline.run_entries ~jobs:1 ~shards ~batch spec entries)
  in
  let farmj, farmj_s =
    if jobs = 1 then (farm1, farm1_s)
    else
      best_of reps (fun () ->
          Farm.Pipeline.run_entries ~jobs ~shards ~batch spec entries)
  in
  (* One instrumented run for the per-stage breakdown. *)
  let tm = Parcoach.Timings.create () in
  let (_ : Farm.Pipeline.result) =
    Farm.Pipeline.run_entries ~timings:tm ~jobs:1 ~shards ~batch spec entries
  in
  Fmt.pr "@.farm per-stage wall-clock (1 domain):@.%a" Parcoach.Timings.pp tm;
  (* Identity gates: equal verdicts for every runner and domain count. *)
  Array.iteri
    (fun i (v : Farm.Pipeline.verdict) ->
      let s = serial.Farm.Pipeline.verdicts.(i) in
      if not (Farm.Oracle.obs_agree v.Farm.Pipeline.obs s.Farm.Pipeline.obs)
      then
        Fmt.failwith "farm: entry %d: farm and serial observations disagree"
          i;
      if v.Farm.Pipeline.obs <> farmj.Farm.Pipeline.verdicts.(i).Farm.Pipeline.obs
      then
        Fmt.failwith "farm: entry %d: verdict depends on the domain count" i)
    farm1.Farm.Pipeline.verdicts;
  Fmt.pr
    "@.identity gate: %d verdicts agree across serial, 1-domain and \
     %d-domain runs@."
    n jobs;
  (* Soundness gate: a clean checker produces zero differential
     violations over the whole corpus. *)
  let nviol = List.length farm1.Farm.Pipeline.violations in
  if nviol <> 0 then
    Fmt.failwith "farm: %d differential violation(s) on a clean checker"
      nviol;
  Fmt.pr "violation gate: 0 differential violations over %d programs@." n;
  let st = farm1.Farm.Pipeline.stats in
  Fmt.pr
    "dedup: %d unique (%d duplicates); cache: %d hit(s), %d miss(es)@."
    st.Farm.Pipeline.unique st.Farm.Pipeline.duplicates
    st.Farm.Pipeline.cache_hits st.Farm.Pipeline.cache_misses;
  let pps dt = float_of_int n /. dt in
  let speedup = serial_s /. farmj_s in
  Fmt.pr
    "@.%-22s | %10s | %12s@." "pipeline" "wall s" "programs/s";
  Fmt.pr "%s@." (String.make 50 '-');
  Fmt.pr "%-22s | %10.3f | %12.1f@." "serial (CLI-equiv)" serial_s
    (pps serial_s);
  Fmt.pr "%-22s | %10.3f | %12.1f@." "farm (1 domain)" farm1_s (pps farm1_s);
  Fmt.pr "%-22s | %10.3f | %12.1f@."
    (Printf.sprintf "farm (%d domain(s))" jobs)
    farmj_s (pps farmj_s);
  Fmt.pr "@.throughput gate: farm %.2fx serial (>= 6x required)@." speedup;
  if (not smoke) && speedup < 6. then
    Fmt.failwith "farm: throughput %.2fx is below the 6x gate" speedup;
  (* Detection drill: a deliberately weakened checker (blind to
     collective-mismatch warnings) must produce violations, and each
     must delta-debug to a reproducer of at most 30 lines. *)
  let drill_spec =
    {
      spec with
      Farm.Pipeline.families = (if smoke then 10 else 40);
      handicap = Some Farm.Oracle.Blind_mismatch;
    }
  in
  let drill_entries =
    Farm.Pipeline.fingerprinted (Farm.Pipeline.corpus drill_spec)
  in
  let drill =
    Farm.Pipeline.run_entries ~jobs:1 ~shards ~batch drill_spec drill_entries
  in
  if drill.Farm.Pipeline.violations = [] then
    Fmt.failwith "farm: the blind-mismatch drill produced no violations";
  let repros =
    Farm.Pipeline.minimized_reproducers drill_spec drill drill_entries
  in
  let repro_lines =
    List.map
      (fun ((_ : Farm.Pipeline.entry), (v : Farm.Oracle.violation), _, p) ->
        let lines =
          List.filter
            (fun l -> String.trim l <> "")
            (String.split_on_char '\n' (Minilang.Pretty.program_to_string p))
        in
        (v.Farm.Oracle.vkind, List.length lines))
      repros
  in
  List.iter
    (fun (vkind, lines) ->
      Fmt.pr "drill: %s minimized to %d line(s)@." vkind lines;
      if lines > 30 then
        Fmt.failwith "farm: %s reproducer is %d lines (> 30)" vkind lines)
    repro_lines;
  Fmt.pr
    "drill gate: weakened checker caught with %d violation(s), reproducers \
     <= 30 lines@."
    (List.length drill.Farm.Pipeline.violations);
  let json =
    Printf.sprintf
      "{\n\
      \  \"section\": \"farm\",\n\
      \  \"smoke\": %b,\n\
      \  \"programs\": %d,\n\
      \  \"families\": %d,\n\
      \  \"variants\": %d,\n\
      \  \"sim_seeds\": %d,\n\
      \  \"unique\": %d,\n\
      \  \"duplicates\": %d,\n\
      \  \"cache_hits\": %d,\n\
      \  \"cache_misses\": %d,\n\
      \  \"jobs\": %d,\n\
      \  \"shards\": %d,\n\
      \  \"batch\": %d,\n\
      \  \"serial_s\": %.4f,\n\
      \  \"farm_1domain_s\": %.4f,\n\
      \  \"farm_s\": %.4f,\n\
      \  \"serial_programs_per_sec\": %.1f,\n\
      \  \"farm_programs_per_sec\": %.1f,\n\
      \  \"speedup\": %.2f,\n\
      \  \"speedup_gate_6x\": %b,\n\
      \  \"identity_vs_serial\": true,\n\
      \  \"identity_across_domains\": true,\n\
      \  \"violations\": %d,\n\
      \  \"drill_violations\": %d,\n\
      \  \"drill_reproducers\": [%s]\n\
       }\n"
      smoke n spec.Farm.Pipeline.families spec.Farm.Pipeline.variants
      (List.length spec.Farm.Pipeline.sim.Farm.Oracle.seeds)
      st.Farm.Pipeline.unique st.Farm.Pipeline.duplicates
      st.Farm.Pipeline.cache_hits st.Farm.Pipeline.cache_misses jobs shards
      batch serial_s farm1_s farmj_s (pps serial_s) (pps farmj_s) speedup
      (speedup >= 6.) nviol
      (List.length drill.Farm.Pipeline.violations)
      (String.concat ", "
         (List.map
            (fun (vkind, lines) ->
              Printf.sprintf "{ \"vkind\": %S, \"lines\": %d }" vkind lines)
            repro_lines))
  in
  let write path =
    let oc = open_out path in
    output_string oc json;
    close_out oc;
    Fmt.pr "wrote %s@." path
  in
  let tm = Unix.localtime (Unix.gettimeofday ()) in
  write "BENCH_farm.json";
  (* Historical snapshots accumulate per run: they live under _bench/
     (gitignored), keeping only the canonical BENCH_farm.json at the
     repo root. *)
  (try Unix.mkdir "_bench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  write "_bench/BENCH_farm-latest.json";
  write
    (Printf.sprintf "_bench/BENCH_farm-%04d%02d%02d-%02d%02d%02d.json"
       (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
       tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec)

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let sections =
  [
    ("figure1", figure1);
    ("bechamel", bechamel_section);
    ("warnings", warnings_section);
    ("runtime", runtime_section);
    ("taint", taint_section);
    ("returns", returns_section);
    ("overlay", overlay_section);
    ("interproc", interproc_section);
    ("explore", explore_section);
    ("explore-perf", explore_perf_section);
    ("dpor", dpor_section);
    ("interp-perf", interp_perf_section);
    ("scaling", scaling_section);
    ("races", races_section);
    ("requests", requests_section);
    ("serve", serve_section);
    ("farm", farm_section);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst sections
  in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
          Fmt.epr "unknown section '%s' (known: %s)@." name
            (String.concat ", " (List.map fst sections));
          exit 2)
    requested

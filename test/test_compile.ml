(** The compiled simulator ([Sim.run] = [Sim.make] + [Sim.run_compiled])
    against the executable specification ({!Simspec}), an AST walker
    written apart from it with its own rendezvous, mailbox, barriers,
    locks, counters and request tables: the same outcomes (error
    payloads included), print traces and step counts under every
    schedule, and the same per-class counts when exploring.  Also pins
    the compile-time scoping rules (shadowing, privatized loop variables,
    function parameters) and the scheduler's scripted-choice indexing. *)

open Minilang

let mk = Ast.mk ~loc:Loc.none

let config ?(nranks = 2) ?(nthreads = 2) schedule =
  {
    Interp.Sim.nranks;
    default_nthreads = nthreads;
    schedule;
    max_steps = 200_000;
    entry = "main";
    record_trace = true;
    thread_level = Mpisim.Thread_level.Multiple;
  }

(* Observables of one run: outcome, print trace, step count. *)
let observe (r : Interp.Sim.result) =
  (r.Interp.Sim.outcome, Interp.Sim.trace r, r.Interp.Sim.stats.Interp.Sim.steps)

let observe_spec (r : Simspec.run) =
  (r.Simspec.outcome, r.Simspec.trace, r.Simspec.steps)

(* The spec does not screen buffer accesses, so use-before-completion
   findings are the compiled core's alone. *)
let spec_lifecycle (r : Interp.Sim.result) =
  List.filter
    (function Interp.Sim.Stale_read _ -> false | _ -> true)
    r.Interp.Sim.lifecycle

let agree ~config program =
  let spec = Simspec.run ~config program in
  let compiled = Interp.Sim.run ~config program in
  observe_spec spec = observe compiled
  && spec.Simspec.lifecycle = spec_lifecycle compiled

let schedules =
  [
    `Round_robin;
    `Random 42;
    `Random 7;
    `Random 1337;
    `Scripted [ 3; 1; 4; 1; 5; 9; 2; 6; 5; 3; 5; 8 ];
  ]

(* Run the compiled core and the spec under every schedule and insist on
   identical observables; returns the compiled observables for further
   checks. *)
let spec_agrees ?nranks ?nthreads program =
  List.map
    (fun schedule ->
      let config = config ?nranks ?nthreads schedule in
      let spec = Simspec.run ~config program in
      let compiled = Interp.Sim.run ~config program in
      Alcotest.(check bool)
        "compiled = spec (outcome, trace, steps)" true
        (observe_spec spec = observe compiled);
      observe compiled)
    schedules

let main_only body =
  Builder.number_lines
    { Ast.funcs = [ { Ast.fname = "main"; params = []; body; floc = Loc.none } ] }

(* ------------------------------------------------------------------ *)
(* Unit programs pinning the scoping rules                              *)
(* ------------------------------------------------------------------ *)

let test_shadowing () =
  (* An inner declaration shadows; leaving the block unshadows. *)
  let program =
    main_only
      [
        mk (Ast.Decl ("x", Ast.Int 1));
        mk
          (Ast.If
             ( Ast.Int 1,
               [ mk (Ast.Decl ("x", Ast.Int 2)); mk (Ast.Print (Ast.Var "x")) ],
               [] ));
        mk (Ast.Print (Ast.Var "x"));
      ]
  in
  let obs = spec_agrees ~nranks:1 program in
  let _, trace, _ = List.hd obs in
  Alcotest.(check (list (triple int int int)))
    "inner 2, outer 1" [ (0, 0, 2); (0, 0, 1) ] trace

let test_loop_privatization () =
  (* The worksharing loop variable is private to each iteration and does
     not leak into (or read from) an outer binding of the same name;
     reduction accumulators combine into the shared cell at chunk end. *)
  let program =
    main_only
      [
        mk (Ast.Decl ("i", Ast.Int 100));
        mk (Ast.Decl ("s", Ast.Int 0));
        mk
          (Ast.Omp_parallel
             {
               num_threads = Some (Ast.Int 2);
               body =
                 [
                   mk
                     (Ast.Omp_for
                        {
                          var = "i";
                          lo = Ast.Int 0;
                          hi = Ast.Int 5;
                          nowait = false;
                          reduction = Some (Ast.Rsum, "s");
                          body =
                            [
                              mk
                                (Ast.Assign
                                   ( "s",
                                     Ast.Binop (Ast.Add, Ast.Var "s", Ast.Var "i")
                                   ));
                            ];
                        });
                 ];
             });
        mk (Ast.Print (Ast.Var "i"));
        mk (Ast.Print (Ast.Var "s"));
      ]
  in
  let obs = spec_agrees ~nranks:1 program in
  let _, trace, _ = List.hd obs in
  Alcotest.(check (list (triple int int int)))
    "outer i untouched, reduction = 0+1+2+3+4"
    [ (0, 0, 100); (0, 0, 10) ]
    trace

let test_function_params () =
  (* Parameters land in callee-frame slots; recursion re-enters the
     (mutable) compiled body; [return] unwinds to the call marker. *)
  let countdown =
    {
      Ast.fname = "countdown";
      params = [ "n" ];
      body =
        [
          mk
            (Ast.If
               ( Ast.Binop (Ast.Le, Ast.Var "n", Ast.Int 0),
                 [ mk Ast.Return ],
                 [] ));
          mk (Ast.Print (Ast.Var "n"));
          mk (Ast.Call ("countdown", [ Ast.Binop (Ast.Sub, Ast.Var "n", Ast.Int 1) ]));
        ];
      floc = Loc.none;
    }
  in
  let add =
    {
      Ast.fname = "add";
      params = [ "a"; "b" ];
      body = [ mk (Ast.Print (Ast.Binop (Ast.Add, Ast.Var "a", Ast.Var "b"))) ];
      floc = Loc.none;
    }
  in
  let main =
    {
      Ast.fname = "main";
      params = [];
      body =
        [
          mk (Ast.Call ("countdown", [ Ast.Int 3 ]));
          mk (Ast.Call ("add", [ Ast.Int 2; Ast.Int 40 ]));
        ];
      floc = Loc.none;
    }
  in
  let program = Builder.number_lines { Ast.funcs = [ main; countdown; add ] } in
  let obs = spec_agrees ~nranks:1 program in
  let _, trace, _ = List.hd obs in
  Alcotest.(check (list (triple int int int)))
    "3 2 1 then 42"
    [ (0, 0, 3); (0, 0, 2); (0, 0, 1); (0, 0, 42) ]
    trace

let test_scripted_indexing () =
  (* Scripted choices index runnable tasks as ((choice mod n) + n) mod n:
     negative and out-of-range scripts must replay identically on the
     compiled core and the spec. *)
  let program =
    main_only
      [
        mk
          (Ast.Omp_parallel
             {
               num_threads = Some (Ast.Int 3);
               body = [ mk (Ast.Print Ast.Tid) ];
             });
      ]
  in
  List.iter
    (fun script ->
      let config = config ~nranks:1 (`Scripted script) in
      Alcotest.(check bool)
        "identical observables under hostile scripts" true
        (agree ~config program))
    [
      [ -7; 13; -2; 5; 0 ];
      [ 1_000_000; -1_000_000; 3; -1 ];
      [ min_int + 1; max_int ];
    ]

(* ------------------------------------------------------------------ *)
(* Runtime corner cases, under every schedule                           *)
(* ------------------------------------------------------------------ *)

let parse src = Parser.parse_string ~file:"corner" src

let corner_agrees ?(instrument = false) src () =
  let program = parse src in
  let program =
    if instrument then
      Parcoach.Instrument.instrument (Parcoach.Driver.analyze program)
        Parcoach.Instrument.Selective
    else program
  in
  List.iter
    (fun schedule ->
      Alcotest.(check bool) "compiled = spec" true
        (agree ~config:(config ~nranks:3 schedule) program))
    schedules

let corner_cases =
  [
    ( "wildcard receives take the oldest message",
      corner_agrees
        {|func main() {
            var b = 0;
            if (rank() > 0) {
              MPI_Send(rank() * 10, 0, 0);
              MPI_Send(rank() * 10 + 1, 0, 0);
            }
            MPI_Barrier();
            if (rank() == 0) {
              b = MPI_Recv(-1, 0); print(b);
              b = MPI_Recv(-1, 0); print(b);
              b = MPI_Recv(-1, 0); print(b);
              b = MPI_Recv(-1, 0); print(b);
            }
          }|} );
    ( "a nonblocking receive fills its buffer at completion",
      corner_agrees
        {|func main() {
            var b = 0;
            MPI_Send(rank() + 100, (rank() + 1) % size(), 3);
            MPI_Barrier();
            r = MPI_Irecv(b, -1, 3);
            print(b);
            MPI_Wait(r);
            print(b);
          }|} );
    ( "a team barrier holds every member",
      corner_agrees
        {|func main() {
            pragma omp parallel num_threads(3) {
              print(omp_tid());
              pragma omp barrier;
              print(10 + omp_tid());
            }
          }|} );
    ( "diverging CC colours abort cleanly",
      corner_agrees ~instrument:true
        {|func main() {
            var x = 1;
            if (rank() == 0) { MPI_Barrier(); } else { x = MPI_Allreduce(x, sum); }
          }|} );
    ( "colliding collectives of one rank are a fault",
      corner_agrees
        {|func main() {
            pragma omp parallel num_threads(2) {
              pragma omp single nowait { MPI_Barrier(); }
              pragma omp single nowait { MPI_Barrier(); }
            }
          }|} );
  ]

(* ------------------------------------------------------------------ *)
(* Fingerprint pruning on the reproducer catalogue                      *)
(* ------------------------------------------------------------------ *)

let classes (s : Interp.Explore.summary) =
  List.sort compare (List.map fst s.Interp.Explore.witnesses)

let counts (s : Interp.Explore.summary) =
  ( s.Interp.Explore.finished,
    s.Interp.Explore.aborted,
    s.Interp.Explore.faulted,
    s.Interp.Explore.deadlocked,
    s.Interp.Explore.step_limited )

(* Each witness script of an explorer replays, on the spec, to the class
   it stands for. *)
let witnesses_replay_on_spec ~config program (s : Interp.Explore.summary) =
  List.for_all
    (fun (name, script) ->
      let r =
        Simspec.run ~config:{ config with Interp.Sim.schedule = `Scripted script }
          program
      in
      String.equal name (Simspec.class_name r.Simspec.outcome))
    s.Interp.Explore.witnesses

let test_reproducer_pruning () =
  (* Fingerprints decide which prefixes the explorers skip: the pruned
     breadth-first counts must equal the spec's unpruned depth-first
     enumeration, DPOR must reach every class the spec reaches, and every
     witness must replay on the spec. *)
  List.iter
    (fun entry ->
      let name = entry.Benchsuite.Reproducers.name in
      let program = Benchsuite.Reproducers.program entry in
      let config =
        { (config ~nranks:3 ~nthreads:2 `Round_robin) with record_trace = false }
      in
      let branch_depth = 6 and budget = 100_000 in
      let spec = Simspec.explore ~branch_depth ~budget ~config program in
      let bfs = Interp.Explore.outcomes ~branch_depth ~budget ~config program in
      let dpor =
        Interp.Explore.outcomes_dpor ~branch_depth ~budget ~config program
      in
      Alcotest.(check bool) (name ^ ": BFS counts = spec") true
        (counts bfs = counts spec);
      Alcotest.(check (list string)) (name ^ ": BFS classes = spec")
        (classes spec) (classes bfs);
      Alcotest.(check bool) (name ^ ": DPOR covers the spec classes") true
        (List.for_all (fun c -> List.mem c (classes dpor)) (classes spec));
      Alcotest.(check bool) (name ^ ": witnesses replay on the spec") true
        (witnesses_replay_on_spec ~config program bfs
        && witnesses_replay_on_spec ~config program dpor))
    Benchsuite.Reproducers.all

(* ------------------------------------------------------------------ *)
(* Generators for the runtime's delicate parts                          *)
(* ------------------------------------------------------------------ *)

module Gen = QCheck.Gen

let ( %: ) a b = Ast.Binop (Ast.Mod, a, b)

let ( +: ) a b = Ast.Binop (Ast.Add, a, b)

(* Rank [rank() + d] and rank [rank() - d] around the ring; [d = 0] as a
   source is the wildcard. *)
let ahead d = (Ast.Rank +: Ast.Int d) %: Ast.Size

let behind d =
  if d = 0 then Ast.Int (-1)
  else (Ast.Rank +: Ast.Binop (Ast.Sub, Ast.Size, Ast.Int d)) %: Ast.Size

(* Point-to-point and split-phase traffic on three ranks: eager sends,
   blocking and nonblocking receives (wildcards included) whose buffers
   are printed before and after completion, tests, nonblocking
   collectives, double waits and leaks.  Programs may deadlock; what
   matters is that both simulators agree on how. *)
let gen_p2p_item : (int -> Ast.stmt list) Gen.t =
  let open Gen in
  let value c = Ast.Binop (Ast.Mul, Ast.Rank, Ast.Int 10) +: Ast.Int c in
  let req k = "r" ^ string_of_int k in
  let send =
    map3
      (fun d tag c _ ->
        [ mk (Ast.Send { value = value c; dest = ahead d; tag = Ast.Int tag }) ])
      (int_range 1 2) (int_range 0 1) (int_range 0 9)
  in
  oneof
    [
      send;
      send;
      map2
        (fun d tag _ ->
          [
            mk (Ast.Recv { target = "b"; src = behind d; tag = Ast.Int tag });
            mk (Ast.Print (Ast.Var "b"));
          ])
        (int_range 0 2) (int_range 0 1);
      map3
        (fun d tag poll k ->
          [
            mk
              (Ast.Istart
                 { req = req k; rop = Ast.Irecv { target = "b"; src = behind d; tag = Ast.Int tag } });
            mk (Ast.Print (Ast.Var "b"));
          ]
          @ (if poll then
               [ mk (Ast.Test { target = "f"; req = req k }); mk (Ast.Print (Ast.Var "f")) ]
             else [])
          @ [ mk (Ast.Wait { req = req k }); mk (Ast.Print (Ast.Var "b")) ])
        (int_range 0 2) (int_range 0 1) bool;
      map3
        (fun d tag wait k ->
          mk
            (Ast.Istart
               { req = req k; rop = Ast.Isend { value = value k; dest = ahead d; tag = Ast.Int tag } })
          :: (if wait then [ mk (Ast.Wait { req = req k }) ] else []))
        (int_range 1 2) (int_range 0 1) bool;
      map2
        (fun c twice k ->
          [
            mk
              (Ast.Istart
                 { req = req k; rop = Ast.Iallreduce { op = Ast.Rsum; target = "a"; value = value c } });
            mk (Ast.Print (Ast.Var "a"));
            mk (Ast.Wait { req = req k });
          ]
          @ (if twice then [ mk (Ast.Wait { req = req k }) ] else [])
          @ [ mk (Ast.Print (Ast.Var "a")) ])
        (int_range 0 9) bool;
      return (fun k ->
          [ mk (Ast.Istart { req = req k; rop = Ast.Ibarrier }); mk (Ast.Wait { req = req k }) ]);
      return (fun _ -> [ mk (Ast.Coll (None, Ast.Barrier)) ]);
    ]

let gen_p2p_program : Ast.program Gen.t =
  Gen.map
    (fun items ->
      let decls =
        List.map (fun x -> mk (Ast.Decl (x, Ast.Int 0))) [ "a"; "b"; "f" ]
      in
      main_only (decls @ List.concat (List.mapi (fun k item -> item k) items)))
    (Gen.list_size (Gen.int_range 1 8) gen_p2p_item)

(* OpenMP synchronisation that shows in the print trace: threads print
   around barriers, inside criticals, singles, master regions, sections
   and worksharing loops, and shared counters are printed after each
   region. *)
let gen_omp_item : Ast.stmt Gen.t =
  let open Gen in
  let tid_value c = Ast.Binop (Ast.Mul, Ast.Tid, Ast.Int 10) +: Ast.Int c in
  oneof
    [
      map (fun c -> mk (Ast.Print (tid_value c))) (int_range 0 9);
      return (mk Ast.Omp_barrier);
      map
        (fun c ->
          mk
            (Ast.Omp_critical
               ( None,
                 [
                   mk (Ast.Assign ("x", Ast.Var "x" +: Ast.Int c));
                   mk (Ast.Print (Ast.Var "x"));
                 ] )))
        (int_range 1 5);
      map2
        (fun nowait c ->
          mk (Ast.Omp_single { nowait; body = [ mk (Ast.Print (Ast.Int (100 + c))) ] }))
        bool (int_range 0 9);
      map (fun c -> mk (Ast.Omp_master [ mk (Ast.Print (Ast.Int (200 + c))) ])) (int_range 0 9);
      map
        (fun nowait ->
          mk
            (Ast.Omp_sections
               {
                 nowait;
                 sections =
                   [ [ mk (Ast.Print (Ast.Int 300)) ]; [ mk (Ast.Print (Ast.Int 301)) ] ];
               }))
        bool;
      map3
        (fun n nowait reduce ->
          mk
            (Ast.Omp_for
               {
                 var = "i";
                 lo = Ast.Int 0;
                 hi = Ast.Int n;
                 nowait;
                 reduction = (if reduce then Some (Ast.Rsum, "y") else None);
                 body =
                   [
                     mk (Ast.Print (tid_value 50 +: Ast.Var "i"));
                     mk (Ast.Assign ("y", Ast.Var "y" +: Ast.Var "i"));
                   ];
               }))
        (int_range 1 5) bool bool;
    ]

let gen_omp_program : Ast.program Gen.t =
  let open Gen in
  let region =
    map2
      (fun n items ->
        [
          mk (Ast.Omp_parallel { num_threads = Some (Ast.Int n); body = items });
          mk (Ast.Print (Ast.Var "x"));
          mk (Ast.Print (Ast.Var "y"));
        ])
      (int_range 2 3)
      (list_size (int_range 1 6) gen_omp_item)
  in
  map
    (fun regions ->
      main_only
        ([ mk (Ast.Decl ("x", Ast.Int 0)); mk (Ast.Decl ("y", Ast.Int 0)) ]
        @ List.concat regions))
    (list_size (int_range 1 2) region)

(* Injected rank divergence under CC instrumentation: diverging CC
   colours, CC checks meeting real collectives and concurrency counters
   firing. *)
let gen_instrumented =
  Gen.map3
    (fun p salt exhaustive ->
      let n = Benchsuite.Injector.collective_count p in
      let p =
        if n = 0 then p
        else
          Benchsuite.Injector.inject Benchsuite.Injector.Rank_divergence
            ~index:(salt mod n) p
      in
      Parcoach.Instrument.instrument (Parcoach.Driver.analyze p)
        (if exhaustive then Parcoach.Instrument.Exhaustive
         else Parcoach.Instrument.Selective))
    (QCheck.gen Test_qcheck.arb_program)
    (Gen.int_bound 1000) Gen.bool

(* Farm corpus programs (helpers, nonblocking collectives, injected
   faults), bare and CC-instrumented. *)
let gen_farm_program =
  Gen.map3
    (fun seed bug instrumented ->
      let trace = Farm.Gen.random_trace (Random.State.make [| seed |]) in
      let inject = Option.map (fun b -> (b, seed)) bug in
      let p = Farm.Gen.program { Farm.Gen.trace; inject } in
      if instrumented then
        Parcoach.Instrument.instrument (Parcoach.Driver.analyze p)
          Parcoach.Instrument.Exhaustive
      else p)
    Gen.nat
    (Gen.opt (Gen.oneofl Benchsuite.Injector.all))
    Gen.bool

let arb gen = QCheck.make ~print:Pretty.program_to_string gen

(* ------------------------------------------------------------------ *)
(* Properties                                                           *)
(* ------------------------------------------------------------------ *)

(* Realize the final shared-variable values as observables: printing
   x0..x3 at the end of main folds the final environment into the trace,
   so trace equality also checks final stores. *)
let with_final_prints (p : Ast.program) =
  let prints =
    List.map (fun v -> mk (Ast.Print (Ast.Var v))) Test_qcheck.shared_vars
  in
  Builder.number_lines
    {
      Ast.funcs =
        List.map
          (fun (f : Ast.func) ->
            if f.Ast.fname = "main" then
              { f with Ast.body = f.Ast.body @ prints }
            else f)
          p.Ast.funcs;
    }

let all_schedules ?nranks program =
  List.for_all
    (fun schedule -> agree ~config:(config ?nranks schedule) program)
    schedules

let properties =
  let open QCheck in
  [
    Test.make ~name:"compiled = spec on deterministic programs (incl. final env)"
      ~count:40 Test_qcheck.arb_program (fun p ->
        all_schedules (with_final_prints p));
    Test.make ~name:"compiled = spec on racy programs (outcome, trace, steps)"
      ~count:25 Test_qcheck.arb_racy_program all_schedules;
    Test.make
      ~name:"compiled exploration = spec exploration (racy programs)"
      ~count:10 Test_qcheck.arb_racy_program (fun p ->
        let config =
          {
            (config `Round_robin) with
            Interp.Sim.record_trace = false;
            max_steps = 50_000;
          }
        in
        let branch_depth = 4 and budget = 20_000 in
        let bfs = Interp.Explore.outcomes ~branch_depth ~budget ~config p in
        let spec = Simspec.explore ~branch_depth ~budget ~config p in
        counts bfs = counts spec
        && classes bfs = classes spec
        && witnesses_replay_on_spec ~config p bfs);
    Test.make ~name:"compiled = spec on point-to-point and request programs"
      ~count:60 (arb gen_p2p_program) (all_schedules ~nranks:3);
    Test.make ~name:"compiled = spec on OpenMP synchronisation traces"
      ~count:40 (arb gen_omp_program) all_schedules;
    Test.make ~name:"compiled = spec on CC-instrumented injected divergence"
      ~count:40 (arb gen_instrumented) all_schedules;
    Test.make ~name:"compiled = spec on farm corpus programs" ~count:30
      (arb gen_farm_program) all_schedules;
  ]

let suite =
  [
    ( "compile.scoping",
      [
        Alcotest.test_case "shadowing in nested blocks" `Quick test_shadowing;
        Alcotest.test_case "privatized loop variable and reduction" `Quick
          test_loop_privatization;
        Alcotest.test_case "function parameters, recursion, return" `Quick
          test_function_params;
        Alcotest.test_case "scripted-choice indexing is unchanged" `Quick
          test_scripted_indexing;
      ] );
    ( "compile.runtime",
      List.map
        (fun (name, f) -> Alcotest.test_case name `Quick f)
        corner_cases );
    ( "compile.fingerprints",
      [
        Alcotest.test_case
          "reproducer catalogue parity: pruned counts = spec DFS" `Quick
          test_reproducer_pruning;
      ] );
    ("compile.equivalence", List.map QCheck_alcotest.to_alcotest properties);
  ]

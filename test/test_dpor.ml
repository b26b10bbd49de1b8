(** Tests for the dynamic partial-order reduction explorer: the {!Dpor}
    dependence/happens-before primitives on hand-built steps, and
    {!Explore.outcomes_dpor} against the executable spec's brute-force
    enumeration ({!Simspec.explore}) on the shared reproducers and the
    deep [racy_ring] example. *)

open Interp

let parse src = Minilang.Parser.parse_string ~file:"test" src

let config ?(nranks = 2) ?(threads = 2) () =
  {
    Sim.nranks;
    default_nthreads = threads;
    schedule = `Round_robin;
    max_steps = 200_000;
    entry = "main";
    record_trace = false;
    thread_level = Mpisim.Thread_level.Multiple;
  }

let classes (s : Explore.summary) =
  List.sort compare (List.map fst s.Explore.witnesses)

let subset a b = List.for_all (fun c -> List.mem c b) a

(* A step_view as the recorder would produce it: [clock] is the task's
   vector clock at the beginning of the step, [epoch] its own component
   after the tick. *)
let step ?(runnable = [| 0; 1 |]) ~task ~clock ~epoch events =
  {
    Dpor.v_task = task;
    v_runnable = runnable;
    v_events = Array.of_list events;
    v_clock = Array.of_list clock;
    v_epoch = epoch;
  }

let conflict_tests =
  [
    Alcotest.test_case "footprint conflicts" `Quick (fun () ->
        let chk name expect a b =
          Alcotest.(check bool) name expect (Dpor.conflicts a b)
        in
        let w fid slot = Dpor.ESlot { fid; slot; write = true } in
        let r fid slot = Dpor.ESlot { fid; slot; write = false } in
        chk "write/write same loc" true (w 1 0) (w 1 0);
        chk "read/write same loc" true (r 1 0) (w 1 0);
        chk "read/read same loc" false (r 1 0) (r 1 0);
        chk "write/write distinct slot" false (w 1 0) (w 1 1);
        chk "write/write distinct frame" false (w 1 0) (w 2 0);
        chk "same lock" true
          (Dpor.ELock { rank = 0; name = "l" })
          (Dpor.ELock { rank = 0; name = "l" });
        chk "same-name lock on another rank" false
          (Dpor.ELock { rank = 0; name = "l" })
          (Dpor.ELock { rank = 1; name = "l" });
        chk "same single arbitration" true
          (Dpor.ESingle { forker = 2; uid = 7; instance = 0 })
          (Dpor.ESingle { forker = 2; uid = 7; instance = 0 });
        chk "other instance of the single" false
          (Dpor.ESingle { forker = 2; uid = 7; instance = 0 })
          (Dpor.ESingle { forker = 2; uid = 7; instance = 1 });
        chk "same-rank collective arrivals" true
          (Dpor.EColl { rank = 1 })
          (Dpor.EColl { rank = 1 });
        chk "cross-rank collective arrivals" false
          (Dpor.EColl { rank = 0 })
          (Dpor.EColl { rank = 1 });
        chk "same inbox" true
          (Dpor.EMail { dst = 1 })
          (Dpor.EMail { dst = 1 });
        chk "same counter region" true
          (Dpor.ECounter { rank = 0; region = 3 })
          (Dpor.ECounter { rank = 0; region = 3 });
        chk "spawns always conflict" true Dpor.ESpawn Dpor.ESpawn;
        chk "slot vs lock" false (w 1 0) (Dpor.ELock { rank = 0; name = "l" }));
    Alcotest.test_case "step footprints conflict through any pair" `Quick
      (fun () ->
        let w = Dpor.ESlot { fid = 1; slot = 0; write = true } in
        let r = Dpor.ESlot { fid = 9; slot = 4; write = false } in
        Alcotest.(check bool) "disjoint" false
          (Dpor.steps_conflict [| r |] [| r |]);
        Alcotest.(check bool) "one conflicting pair suffices" true
          (Dpor.steps_conflict [| r; w |] [| w; r |]);
        Alcotest.(check bool) "empty footprint commutes" false
          (Dpor.steps_conflict [||] [| w |]));
  ]

let ordered_tests =
  [
    Alcotest.test_case "racing pair: no clock path between the steps" `Quick
      (fun () ->
        (* Task 0 writes at epoch 3; task 1's begin-of-step clock never
           saw it: the pair is dependent yet unordered — a backtrack
           point. *)
        let w = Dpor.ESlot { fid = 1; slot = 0; write = true } in
        let steps =
          [|
            step ~task:0 ~clock:[ 3; 0 ] ~epoch:3 [ w ];
            step ~task:1 ~clock:[ 2; 5 ] ~epoch:5 [ w ];
          |]
        in
        Alcotest.(check bool) "dependent" true
          (Dpor.steps_conflict steps.(0).Dpor.v_events
             steps.(1).Dpor.v_events);
        Alcotest.(check bool) "unordered" false (Dpor.ordered steps 0 1));
    Alcotest.test_case "ordered pair: the clock carries the epoch" `Quick
      (fun () ->
        (* Task 1 begins its step having already observed task 0's write
           (clock component 3 >= epoch 3): ordered, no backtrack. *)
        let w = Dpor.ESlot { fid = 1; slot = 0; write = true } in
        let steps =
          [|
            step ~task:0 ~clock:[ 3; 0 ] ~epoch:3 [ w ];
            step ~task:1 ~clock:[ 3; 5 ] ~epoch:5 [ w ];
          |]
        in
        Alcotest.(check bool) "ordered" true (Dpor.ordered steps 0 1));
    Alcotest.test_case "program order: same task is always ordered" `Quick
      (fun () ->
        let steps =
          [|
            step ~task:2 ~clock:[ 0; 0; 1 ] ~epoch:1 [];
            step ~task:2 ~clock:[ 0; 0; 2 ] ~epoch:2 [];
          |]
        in
        Alcotest.(check bool) "ordered" true (Dpor.ordered steps 0 1));
  ]

let run_dpor ?(branch_depth = 8) ?(budget = 200_000) ?(jobs = 1) program =
  Explore.outcomes_dpor ~branch_depth ~budget ~jobs ~config:(config ())
    program

let check_invariant name (s : Explore.summary) =
  Alcotest.(check int)
    (name ^ ": runs = replays + pruned")
    s.Explore.runs
    (s.Explore.replays + s.Explore.pruned);
  match s.Explore.dpor with
  | None -> Alcotest.fail (name ^ ": DPOR summary lacks dpor stats")
  | Some d ->
      Alcotest.(check int)
        (name ^ ": representatives = replays - fp hits")
        d.Explore.representatives
        (s.Explore.replays - d.Explore.fp_hits);
      Alcotest.(check int)
        (name ^ ": pruned counts the sleep-set skips")
        s.Explore.pruned d.Explore.sleep_skips

let engine_tests =
  [
    Alcotest.test_case "covers the reference classes (spec DFS) on every reproducer"
      `Slow (fun () ->
        List.iter
          (fun (e : Benchsuite.Reproducers.entry) ->
            let program = Benchsuite.Reproducers.program e in
            let name = e.Benchsuite.Reproducers.name in
            let spec =
              Simspec.explore ~branch_depth:8 ~budget:200_000
                ~config:(config ()) program
            in
            let dpor = run_dpor program in
            Alcotest.(check bool)
              (name ^ ": spec classes covered")
              true
              (subset (classes spec) (classes dpor));
            check_invariant name dpor)
          Benchsuite.Reproducers.all);
    Alcotest.test_case "witness scripts replay to their class" `Quick
      (fun () ->
        let dpor = run_dpor (Benchsuite.Reproducers.load "racy-singles") in
        Alcotest.(check bool) "found several classes" true
          (List.length dpor.Explore.witnesses >= 2);
        List.iter
          (fun (name, script) ->
            let r =
              Explore.replay ~config:(config ())
                (Benchsuite.Reproducers.load "racy-singles")
                script
            in
            Alcotest.(check string) ("witness for " ^ name) name
              (Explore.class_name r.Sim.outcome))
          dpor.Explore.witnesses);
    Alcotest.test_case "summary is deterministic in the number of domains"
      `Quick (fun () ->
        let program = Benchsuite.Reproducers.load "racy-singles" in
        Alcotest.(check string)
          "jobs:4 = jobs:1"
          (Explore.summary_to_string (run_dpor ~jobs:1 program))
          (Explore.summary_to_string (run_dpor ~jobs:4 program)));
    Alcotest.test_case "backtrack accounting on a racing pair" `Quick
      (fun () ->
        (* Two threads write the same shared slot with no ordering: DPOR
           must schedule at least one backtrack and replay both orders. *)
        let s =
          run_dpor
            (parse
               {|func main() { var x = 0;
                  pragma omp parallel num_threads(2) { x = x + 1; }
                  MPI_Barrier(); }|})
        in
        (match s.Explore.dpor with
        | Some d ->
            Alcotest.(check bool) "has backtrack points" true
              (d.Explore.backtrack_points > 0)
        | None -> Alcotest.fail "missing dpor stats");
        Alcotest.(check bool) "more than one representative" true
          (s.Explore.replays > 1));
    Alcotest.test_case "independent steps need a single representative"
      `Quick (fun () ->
        (* Per-thread private work only: every interleaving is one
           Mazurkiewicz trace (modulo the spawn ordering), so DPOR stays
           near one replay where BFS enumerates the whole lattice. *)
        let program =
          parse
            {|func main() {
               pragma omp parallel num_threads(2) {
                 var local = 0;
                 pragma omp for i = 0 to 6 nowait { local = local + i; }
               }
             }|}
        in
        let dpor = run_dpor ~branch_depth:12 program in
        let bfs =
          Explore.outcomes ~branch_depth:12 ~budget:200_000
            ~config:(config ()) program
        in
        Alcotest.(check (list string)) "same classes" (classes bfs)
          (classes dpor);
        Alcotest.(check bool)
          (Printf.sprintf "far fewer replays (dpor %d vs bfs %d)"
             dpor.Explore.replays bfs.Explore.replays)
          true
          (dpor.Explore.replays * 4 <= bfs.Explore.replays));
  ]

let ring_tests =
  [
    Alcotest.test_case "racy_ring: completes and beats BFS 10x" `Slow
      (fun () ->
        let program =
          Minilang.Parser.parse_file "../examples/programs/racy_ring.hml"
        in
        (* The benchsuite carries a copy of the source: keep the two in
           sync (same classes, same replay counts). *)
        let entry = Benchsuite.Reproducers.load "racy-ring" in
        Alcotest.(check string) "reproducer copy in sync"
          (Explore.summary_to_string
             (Explore.outcomes_dpor ~branch_depth:8 ~budget:500
                ~config:(config ()) program))
          (Explore.summary_to_string
             (Explore.outcomes_dpor ~branch_depth:8 ~budget:500
                ~config:(config ()) entry));
        let budget = 2000 in
        let dpor =
          Explore.outcomes_dpor ~branch_depth:16 ~budget ~config:(config ())
            program
        in
        let bfs =
          Explore.outcomes ~branch_depth:16 ~budget ~config:(config ())
            program
        in
        Alcotest.(check bool) "dpor finds the abort" true
          (Explore.reaches dpor "aborted");
        Alcotest.(check bool) "dpor finds the clean completion" true
          (Explore.reaches dpor "finished");
        Alcotest.(check bool) "bfs classes covered" true
          (subset (classes bfs) (classes dpor));
        check_invariant "racy_ring" dpor;
        Alcotest.(check bool)
          (Printf.sprintf "10x fewer replays (dpor %d vs bfs %d)"
             dpor.Explore.replays bfs.Explore.replays)
          true
          (dpor.Explore.replays * 10 <= bfs.Explore.replays));
  ]

let suite =
  [
    ("dpor.conflicts", conflict_tests);
    ("dpor.ordered", ordered_tests);
    ("dpor.engine", engine_tests);
    ("dpor.racy-ring", ring_tests);
  ]

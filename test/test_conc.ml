(** Tests for the domain substrate ([lib/conc]): the pool's primitives
    (promise, stream, ring, sharded work queue, the pool itself) and the
    {!Conc.Pool.parallel_for} fan-out every parallel path runs on. *)

(* ------------------------------------------------------------------ *)
(* Primitives                                                          *)
(* ------------------------------------------------------------------ *)

let test_promise () =
  let p = Conc.Pool.Promise.create () in
  Alcotest.(check bool) "fresh promise unresolved" false
    (Conc.Pool.Promise.is_resolved p);
  Conc.Pool.Promise.resolve p 42;
  Conc.Pool.Promise.resolve p 43;
  Alcotest.(check int) "first resolution wins" 42 (Conc.Pool.Promise.await p);
  let q = Conc.Pool.Promise.create () in
  Conc.Pool.Promise.reject q Exit;
  (match Conc.Pool.Promise.await q with
  | _ -> Alcotest.fail "await should re-raise"
  | exception Exit -> ())

let test_stream () =
  let s = Conc.Pool.Stream.create 4 in
  List.iter (Conc.Pool.Stream.push s) [ 1; 2; 3 ];
  Alcotest.(check int) "length" 3 (Conc.Pool.Stream.length s);
  Conc.Pool.Stream.close s;
  (match Conc.Pool.Stream.push s 4 with
  | () -> Alcotest.fail "push after close should fail"
  | exception Invalid_argument _ -> ());
  Alcotest.(check (list (option int)))
    "drained in order then closed"
    [ Some 1; Some 2; Some 3; None ]
    (List.init 4 (fun _ -> Conc.Pool.Stream.pop s))

let test_pool_runs_everything () =
  let pool = Conc.Pool.create ~jobs:4 () in
  let counter = Atomic.make 0 in
  let promises =
    List.init 32 (fun i ->
        Conc.Pool.submit pool (fun () ->
            Atomic.incr counter;
            i * i))
  in
  let results = List.map Conc.Pool.Promise.await promises in
  Conc.Pool.shutdown pool;
  Conc.Pool.shutdown pool;
  Alcotest.(check int) "every job ran" 32 (Atomic.get counter);
  Alcotest.(check (list int))
    "results in submission order"
    (List.init 32 (fun i -> i * i))
    results

let primitive_tests =
  [
    Alcotest.test_case "promise" `Quick test_promise;
    Alcotest.test_case "stream" `Quick test_stream;
    Alcotest.test_case "pool runs every job" `Quick test_pool_runs_everything;
    Alcotest.test_case "full mailbox blocks the producer without dropping"
      `Quick (fun () ->
        let mb = Conc.Pool.Ring.create 2 in
        Conc.Pool.Ring.push mb 1;
        Conc.Pool.Ring.push mb 2;
        let third_pushed = Atomic.make false in
        let producer =
          Domain.spawn (fun () ->
              Conc.Pool.Ring.push mb 3;
              Atomic.set third_pushed true)
        in
        (* The producer must be blocked on the full mailbox.  A timing
           check, but generous: it only fails if backpressure is absent
           entirely. *)
        Unix.sleepf 0.05;
        Alcotest.(check bool) "push blocked while full" false
          (Atomic.get third_pushed);
        Alcotest.(check (option int)) "fifo" (Some 1) (Conc.Pool.Ring.pop mb);
        Domain.join producer;
        Alcotest.(check bool) "push completed after pop" true
          (Atomic.get third_pushed);
        Alcotest.(check (option int)) "nothing dropped" (Some 2)
          (Conc.Pool.Ring.pop mb);
        Alcotest.(check (option int)) "third delivered" (Some 3)
          (Conc.Pool.Ring.pop mb));
    Alcotest.test_case "work queue: take own shards, then steal" `Quick
      (fun () ->
        let q =
          Conc.Pool.Workq.create
            [| [| [| 0; 1 |]; [| 2 |] |]; [| [| 3 |] |]; [||] |]
        in
        Alcotest.(check int) "shards" 3 (Conc.Pool.Workq.shards q);
        (match Conc.Pool.Workq.take q ~shard:0 with
        | Some b -> Alcotest.(check (array int)) "first batch" [| 0; 1 |] b
        | None -> Alcotest.fail "expected a batch");
        (match Conc.Pool.Workq.steal q ~preferred:2 with
        | Some (shard, b) ->
            (* Shard 2 is empty; the scan wraps to the next non-empty. *)
            Alcotest.(check int) "stolen from" 0 shard;
            Alcotest.(check (array int)) "stolen batch" [| 2 |] b
        | None -> Alcotest.fail "expected a steal");
        (match Conc.Pool.Workq.steal q ~preferred:0 with
        | Some (shard, _) -> Alcotest.(check int) "last batch" 1 shard
        | None -> Alcotest.fail "expected a steal");
        Alcotest.(check bool) "drained" true
          (Conc.Pool.Workq.steal q ~preferred:0 = None
          && Conc.Pool.Workq.take q ~shard:0 = None));
  ]

(* ------------------------------------------------------------------ *)
(* parallel_for                                                        *)
(* ------------------------------------------------------------------ *)

let cores = Domain.recommended_domain_count ()

let test_width () =
  Alcotest.(check int) "jobs 1" 1 (Conc.Pool.width ~jobs:1 100);
  Alcotest.(check int) "no items" 1 (Conc.Pool.width ~jobs:4 0);
  Alcotest.(check int) "items bound" (min 3 cores)
    (Conc.Pool.width ~jobs:200 3);
  Alcotest.(check int) "cores bound" (min 200 cores)
    (Conc.Pool.width ~jobs:200 1000)

(* Every index runs exactly once, whatever the width, with more jobs
   than items, with no items, and on a shared pool. *)
let test_each_index_once () =
  let check ?pool ~jobs n =
    let hits = Array.init n (fun _ -> Atomic.make 0) in
    Conc.Pool.parallel_for ?pool ~jobs n (fun ~worker:_ i ->
        Atomic.incr hits.(i));
    Array.iteri
      (fun i h ->
        Alcotest.(check int)
          (Printf.sprintf "jobs %d, n %d: index %d ran once" jobs n i)
          1 (Atomic.get h))
      hits
  in
  List.iter
    (fun jobs -> List.iter (check ~jobs) [ 0; 1; 2; 7; 100 ])
    [ 1; 2; 4 ];
  check ~jobs:8 3;
  Conc.Pool.with_pool ~jobs:4 (fun pool ->
      List.iter (check ?pool ~jobs:4) [ 0; 5; 100; 100 ])

(* A per-worker in-use flag: taking it while another domain holds it
   means two domains share a worker index. *)
let test_worker_exclusive () =
  let run ?pool ~jobs n =
    let width = Conc.Pool.width ~jobs n in
    let in_use = Array.init width (fun _ -> Atomic.make false) in
    let clashes = Atomic.make 0 and out_of_range = Atomic.make 0 in
    Conc.Pool.parallel_for ?pool ~jobs n (fun ~worker _ ->
        if worker < 0 || worker >= width then Atomic.incr out_of_range
        else begin
          if not (Atomic.compare_and_set in_use.(worker) false true) then
            Atomic.incr clashes;
          (* Hold the worker long enough for the domains to overlap. *)
          let until = Unix.gettimeofday () +. 20e-6 in
          while Unix.gettimeofday () < until do
            Domain.cpu_relax ()
          done;
          Atomic.set in_use.(worker) false
        end);
    Alcotest.(check int) "worker index in [0, width)" 0
      (Atomic.get out_of_range);
    Alcotest.(check int) "no worker index held twice" 0 (Atomic.get clashes)
  in
  run ~jobs:4 500;
  Conc.Pool.with_pool ~jobs:4 (fun pool ->
      run ?pool ~jobs:4 500;
      run ?pool ~jobs:4 500)

(* Index 50 fails first; index 3, claimed before it, fails later (it
   waits for 50's failure, or gives up waiting at width 1).  The raised
   exception is index 3's, as in a sequential loop. *)
let test_lowest_failure_raised () =
  let attempt ?pool ~jobs () =
    let high_failed = Atomic.make false in
    let f ~worker:_ i =
      if i = 50 then begin
        Atomic.set high_failed true;
        failwith "50"
      end
      else if i = 3 then begin
        let deadline = Unix.gettimeofday () +. 0.5 in
        while
          (not (Atomic.get high_failed)) && Unix.gettimeofday () < deadline
        do
          Domain.cpu_relax ()
        done;
        failwith "3"
      end
    in
    match Conc.Pool.parallel_for ?pool ~jobs 100 f with
    | () -> Alcotest.fail "parallel_for should re-raise"
    | exception Failure msg ->
        Alcotest.(check string)
          (Printf.sprintf "jobs %d: lowest failing index raised" jobs)
          "3" msg
  in
  attempt ~jobs:1 ();
  attempt ~jobs:2 ();
  attempt ~jobs:4 ();
  Conc.Pool.with_pool ~jobs:2 (fun pool -> attempt ?pool ~jobs:2 ())

(* A failed call shuts its domains down: many failing calls in a row
   stay under OCaml's live-domain limit, and the next call runs. *)
let test_failure_leaks_nothing () =
  for _ = 1 to 200 do
    match
      Conc.Pool.parallel_for ~jobs:2 16 (fun ~worker:_ i ->
          if i = 0 then raise Exit)
    with
    | () -> Alcotest.fail "parallel_for should re-raise"
    | exception Exit -> ()
  done;
  let count = Atomic.make 0 in
  Conc.Pool.parallel_for ~jobs:2 16 (fun ~worker:_ _ -> Atomic.incr count);
  Alcotest.(check int) "next call runs every index" 16 (Atomic.get count);
  Conc.Pool.with_pool ~jobs:2 (fun pool ->
      (match
         Conc.Pool.parallel_for ?pool ~jobs:2 16 (fun ~worker:_ _ -> raise Exit)
       with
      | () -> Alcotest.fail "parallel_for should re-raise"
      | exception Exit -> ());
      let count = Atomic.make 0 in
      Conc.Pool.parallel_for ?pool ~jobs:2 16 (fun ~worker:_ _ ->
          Atomic.incr count);
      Alcotest.(check int) "the pool still runs after a failure" 16
        (Atomic.get count))

let parallel_for_tests =
  [
    Alcotest.test_case "width clamps to jobs, items and cores" `Quick
      test_width;
    Alcotest.test_case "every index runs exactly once" `Quick
      test_each_index_once;
    Alcotest.test_case "a worker index is held by one domain" `Quick
      test_worker_exclusive;
    Alcotest.test_case "the lowest failing index is raised" `Quick
      test_lowest_failure_raised;
    Alcotest.test_case "a failed call leaks no domain" `Quick
      test_failure_leaks_nothing;
  ]

let suite =
  [
    ("conc.primitives", primitive_tests);
    ("conc.parallel_for", parallel_for_tests);
  ]

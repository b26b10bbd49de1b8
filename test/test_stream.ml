(** Tests for the streaming MUST-style overlay checker: byte-identity
    with the post-hoc {!Mustlike.Overlay.check}, shard-count
    determinism, backpressure, and the engine hook. *)

open Mustlike

let ev ?(op = None) ?(root = None) ?(payload = 0) kind site :
    Mpisim.Engine.trace_event =
  { signature = (kind, op, root); payload; event_site = site }

let barrier site = ev Mpisim.Coll.Barrier site

let allreduce site = ev ~op:(Some Mpisim.Op.Sum) Mpisim.Coll.Allreduce site

(* Full-report byte identity: verdict, divergence localization and cost
   metrics all agree. *)
let check_identity ?window ?batch ?shards ~fanout traces =
  let post = Overlay.check ~fanout traces in
  let stream, _ = Stream.check_traces ~fanout ?window ?batch ?shards traces in
  Alcotest.(check string)
    "streaming report = post-hoc report"
    (Overlay.report_to_string post)
    (Overlay.report_to_string stream)

let identity_tests =
  [
    Alcotest.test_case "matching traces: identical reports" `Quick (fun () ->
        let trace = [ barrier "a"; allreduce "b"; barrier "c" ] in
        check_identity ~fanout:2 (Array.make 4 trace));
    Alcotest.test_case "divergence: identical localization" `Quick (fun () ->
        let t1 = [ barrier "a"; allreduce "b" ] in
        let t2 = [ barrier "a"; barrier "bad" ] in
        check_identity ~fanout:2 [| t1; t1; t2; t1 |]);
    Alcotest.test_case "early-ended stream: identical <no event> groups"
      `Quick (fun () ->
        let long = [ barrier "a"; allreduce "b" ] in
        let short = [ barrier "a" ] in
        check_identity ~fanout:2
          (Array.init 8 (fun r -> if r < 4 then long else short)));
    Alcotest.test_case "single rank and empty traces" `Quick (fun () ->
        check_identity ~fanout:2 [| [ barrier "a"; allreduce "b" ] |];
        check_identity ~fanout:2 [| [] |];
        check_identity ~fanout:2 [| []; [] |]);
    Alcotest.test_case "fanout >= nranks (centralized overlay)" `Quick
      (fun () ->
        let trace = [ barrier "a"; barrier "b" ] in
        check_identity ~fanout:8 (Array.make 3 trace));
    Alcotest.test_case "single-event traces" `Quick (fun () ->
        check_identity ~fanout:2 (Array.make 5 [ barrier "a" ]);
        check_identity ~fanout:2
          [| [ barrier "a" ]; [ allreduce "a" ]; [ barrier "a" ] |]);
    Alcotest.test_case "tiny window and batch stress the carry logic" `Quick
      (fun () ->
        let trace = List.init 50 (fun i -> barrier (string_of_int i)) in
        check_identity ~fanout:2 ~window:2 ~batch:1 (Array.make 3 trace);
        let t2 = List.mapi (fun i e -> if i = 37 then allreduce "x" else e) trace in
        check_identity ~fanout:2 ~window:2 ~batch:1 [| trace; t2; trace |]);
    Alcotest.test_case "invalid parameters rejected" `Quick (fun () ->
        let bad f =
          match f () with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.fail "expected Invalid_argument"
        in
        bad (fun () -> Stream.create ~fanout:1 ~nranks:4 ());
        bad (fun () -> Stream.create ~window:1 ~nranks:4 ());
        bad (fun () -> Stream.create ~batch:0 ~nranks:4 ());
        bad (fun () -> Stream.create ~nranks:0 ()));
  ]

let determinism_tests =
  [
    Alcotest.test_case "verdict independent of shard count" `Quick (fun () ->
        let t1 = List.init 40 (fun i -> if i mod 3 = 0 then allreduce "s" else barrier "s") in
        let t2 = List.mapi (fun i e -> if i = 29 then barrier "y" else e) t1 in
        let traces = Array.init 9 (fun r -> if r = 7 then t2 else t1) in
        let r1, _ = Stream.check_traces ~fanout:3 ~shards:1 traces in
        let r4, _ = Stream.check_traces ~fanout:3 ~shards:4 traces in
        let r9, _ = Stream.check_traces ~fanout:3 ~shards:9 traces in
        Alcotest.(check string)
          "shards:4 = shards:1"
          (Overlay.report_to_string r1)
          (Overlay.report_to_string r4);
        Alcotest.(check string)
          "shards:9 = shards:1"
          (Overlay.report_to_string r1)
          (Overlay.report_to_string r9));
    Alcotest.test_case "adaptive retuning never changes the verdict" `Quick
      (fun () ->
        let trace = List.init 300 (fun i -> barrier (string_of_int i)) in
        let traces = Array.make 6 trace in
        let fixed, _ = Stream.check_traces ~fanout:2 ~batch:4 traces in
        let adapted, st =
          Stream.check_traces ~fanout:2 ~batch:4 ~adapt:true traces
        in
        Alcotest.(check bool) "both match" true
          (Overlay.is_match fixed && Overlay.is_match adapted);
        Alcotest.(check bool) "same verdict" true
          (fixed.Overlay.verdict = adapted.Overlay.verdict);
        (* The single lockstep producer keeps batches full, so the tree
           must have widened at least once. *)
        Alcotest.(check bool) "retuned" true (st.Stream.retunes >= 1));
  ]

let backpressure_tests =
  [
    Alcotest.test_case "divergence verdict drains late producers" `Quick
      (fun () ->
        (* Rank 1 diverges at position 0 but keeps pushing far past the
           window; the checker must discard the excess rather than leave
           the producer blocked. *)
        let t = Stream.create ~fanout:2 ~window:4 ~nranks:2 () in
        Stream.push t ~rank:0 (barrier "a");
        for i = 0 to 99 do
          Stream.push t ~rank:1 (allreduce (string_of_int i))
        done;
        Stream.close_rank t ~rank:0;
        Stream.close_rank t ~rank:1;
        let report, stats = Stream.result t in
        Alcotest.(check bool) "divergence" false (Overlay.is_match report);
        Alcotest.(check int) "all events accounted for" 101
          (stats.Stream.events + stats.Stream.drained));
  ]

let engine_tests =
  [
    Alcotest.test_case "attached engine run matches post-hoc oracle" `Quick
      (fun () ->
        let src =
          {|func main() { MPI_Barrier(); var x = 0; x = MPI_Allreduce(1, sum);
             MPI_Bcast(x, 0); MPI_Barrier(); }|}
        in
        let p = Minilang.Parser.parse_string ~file:"t" src in
        let config = { Interp.Sim.default_config with nranks = 4 } in
        (* Oracle: the same program with full trace retention. *)
        let oracle = Interp.Sim.run ~config p in
        let post = Overlay.check_engine ~fanout:2 oracle.Interp.Sim.engine in
        (* Online: retention off, events streamed through the hook. *)
        let t = Stream.create ~fanout:2 ~nranks:4 () in
        let result =
          Interp.Sim.run ~config ~on_engine:(Stream.attach_engine t) p
        in
        let report, stats = Stream.result t in
        Alcotest.(check string)
          "streaming = post-hoc"
          (Overlay.report_to_string post)
          (Overlay.report_to_string report);
        Alcotest.(check int) "retention off: engine kept no traces" 0
          (List.length (Mpisim.Engine.rank_trace result.Interp.Sim.engine 0));
        Alcotest.(check int) "all arrivals streamed" 16 stats.Stream.events);
    Alcotest.test_case "attached engine catches a divergence online" `Quick
      (fun () ->
        let src =
          {|func main() { if (rank() == 0) { MPI_Barrier(); } else { MPI_Allgather(1); } }|}
        in
        let p = Minilang.Parser.parse_string ~file:"t" src in
        let config = { Interp.Sim.default_config with nranks = 3 } in
        let t = Stream.create ~fanout:2 ~nranks:3 () in
        ignore (Interp.Sim.run ~config ~on_engine:(Stream.attach_engine t) p);
        let report, _ = Stream.result t in
        Alcotest.(check bool) "divergence found online" false
          (Overlay.is_match report));
    Alcotest.test_case "rank-count mismatch rejected" `Quick (fun () ->
        let t = Stream.create ~nranks:2 () in
        let engine = Mpisim.Engine.create ~nranks:3 in
        (match Stream.attach_engine t engine with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail "expected Invalid_argument");
        ignore (Stream.result t));
  ]

let qcheck_tests =
  let open QCheck in
  let gen_trace =
    Gen.list_size (Gen.int_bound 6)
      (Gen.oneofl
         [
           barrier "s";
           allreduce "s";
           ev ~root:(Some 0) Mpisim.Coll.Bcast "s";
           ev ~op:(Some Mpisim.Op.Max) Mpisim.Coll.Reduce ~root:(Some 1) "s";
         ])
  in
  let arb =
    make
      ~print:(fun (traces, fanout, shards) ->
        Printf.sprintf "%d traces, fanout %d, shards %d" (Array.length traces)
          fanout shards)
      Gen.(
        map3
          (fun traces fanout shards -> (Array.of_list traces, fanout, shards))
          (list_size (int_range 1 9) gen_trace)
          (int_range 2 8) (int_range 1 4))
  in
  [
    QCheck_alcotest.to_alcotest
      (Test.make
         ~name:"streaming report is byte-identical to post-hoc" ~count:150 arb
         (fun (traces, fanout, shards) ->
           let post = Overlay.check ~fanout traces in
           let stream, _ =
             Stream.check_traces ~fanout ~shards ~window:2 ~batch:3 traces
           in
           Overlay.report_to_string post = Overlay.report_to_string stream));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"stats events+drained cover the whole input"
         ~count:100 arb
         (fun (traces, fanout, shards) ->
           let total =
             Array.fold_left (fun acc t -> acc + List.length t) 0 traces
           in
           let _, st = Stream.check_traces ~fanout ~shards traces in
           st.Stream.events + st.Stream.drained = total));
  ]

let suite =
  [
    ("stream.identity", identity_tests);
    ("stream.determinism", determinism_tests);
    ("stream.backpressure", backpressure_tests);
    ("stream.engine", engine_tests);
    ("stream.qcheck", qcheck_tests);
  ]

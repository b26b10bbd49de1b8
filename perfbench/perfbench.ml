(** The verifier's benchmark: one closed-loop, single-client workload per
    run, inputs generated from [--seed], every verdict checked against
    hand-written known answers.

    {v perfbench --workload NAME --seed N --seconds S --trace 0|1 v}

    Run from the repository root (it reads [BENCHMARK.json] for the
    metric names and [perfbench/known_answers.json]).  [--trace 0]
    prints the end-to-end metrics; [--trace 1] records spans around every
    layer call, prints the per-layer metrics and the tracing overhead,
    and writes the spans to [.perfbench/]. *)

module J = Serve.Json

let workloads =
  [
    ("analyze-cold", Analyze_cold.run);
    ("daemon-edit", Daemon_edit.run);
    ("simulate-explore", Simulate_explore.run);
    ("farm", Farm_load.run);
  ]

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

(** (name, unit) of every metric the benchmark declares in a section. *)
let declared spec section =
  match J.member section spec with
  | Some (J.List ms) ->
      List.map
        (fun m ->
          match
            (Option.bind (J.member "name" m) J.to_str,
             Option.bind (J.member "unit" m) J.to_str)
          with
          | Some n, Some u -> (n, u)
          | _ -> die "BENCHMARK.json: malformed %s entry" section)
        ms
  | _ -> die "BENCHMARK.json: missing %s" section

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_int seconds, "S measurement time (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced per-layer run");
    ]
    (fun a -> die "unexpected argument %s" a)
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
        die "unknown workload '%s' (known: %s)" !workload
          (String.concat ", " (List.map fst workloads))
  in
  if !seconds < 1 then die "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  let spec =
    match J.parse (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error msg -> die "BENCHMARK.json: %s" msg
  in
  let known = Known.load "perfbench/known_answers.json" in
  let traced = !trace = 1 in
  let h, e2e, extra, layers, domains =
    run ~seed:!seed ~seconds:(float_of_int !seconds) ~traced ~known
  in
  let cores = Harness.cores in
  Printf.printf "perfbench %s seed=%d seconds=%d trace=%d cores=%d domains=%d\n"
    !workload !seed !seconds !trace cores domains;
  let line (name, v, unit) = Printf.printf "  %-36s %14.6g %s\n" name v unit in
  List.iter line (e2e @ extra);
  line
    ( "failed_share",
      (if h.Harness.attempted = 0 then 0.
       else float_of_int h.Harness.failed /. float_of_int h.Harness.attempted),
      Printf.sprintf "(%d of %d ops)" h.Harness.failed h.Harness.attempted );
  List.iter (Printf.printf "  failed: %s\n") (List.rev h.Harness.failures);
  List.iter (Printf.printf "  BROKEN: %s\n") (List.rev h.Harness.broken);
  let metrics =
    if not traced then
      List.map
        (fun (name, unit) ->
          match List.find_opt (fun (n, _, _) -> String.equal n name) e2e with
          | Some (_, v, _) when Float.is_finite v -> (name, v, unit)
          | Some _ -> die "%s: %s is not finite" !workload name
          | None -> die "workload %s does not measure %s" !workload name)
        (declared spec "end_to_end")
    else begin
      (* A layer metric the workload does not compute explicitly is the
         mean of the spans (".ns") or counts recorded under its name; a
         layer the workload never reaches reads 0. *)
      let explicit =
        [
          ("machine.cores", float_of_int cores);
          ("bench.domains", float_of_int domains);
          ("bench.trace_overhead_pct", Harness.trace_overhead_pct h);
        ]
        @ layers
      in
      let value name =
        match List.assoc_opt name explicit with
        | Some v -> v
        | None when Filename.check_suffix name ".ns" ->
            Trace.mean (Filename.chop_suffix name ".ns")
        | None -> Trace.mean name
      in
      let ms =
        List.map (fun (name, unit) -> (name, value name, unit))
          (declared spec "per_layer")
      in
      List.iter line ms;
      (try Sys.mkdir ".perfbench" 0o755 with Sys_error _ -> ());
      Trace.dump (Printf.sprintf ".perfbench/spans-%s-%d.jsonl" !workload !seed);
      ms
    end
  in
  let num v = if Float.is_finite v then J.Float v else J.Float 0. in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (h.Harness.broken = []));
            ("attempted", J.Int h.Harness.attempted);
            ("failed", J.Int h.Harness.failed);
            ( "metrics",
              J.Obj
                (List.map
                   (fun (name, v, unit) ->
                     (name, J.Obj [ ("value", num v); ("unit", J.Str unit) ]))
                   metrics) );
          ]))

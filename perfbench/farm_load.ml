(** Workload [farm]: the differential fuzzing farm at [farmctl]'s
    defaults with [jobs] = the core count.  Each operation is one
    program's verdict.  Latency is that of one whole corpus run
    ([Farm.Pipeline.run], what one [farmctl] call waits for): the
    pipeline batches programs across its pool, so a single verdict has
    no latency of its own.

    A verdict carrying a static-vs-dynamic violation is the farm's
    finding about the verifier, not a failed farm operation: the
    violating verdicts are counted and reported ([violation_share],
    [farm.violations]).  So are the verdicts of traced rounds that
    differ from the [jobs:1] run of the same corpus
    ([farm.jobs_mismatches]).  An operation fails when the pipeline
    raises or returns a verdict that is missing or out of place. *)

module P = Farm.Pipeline

(** Corpus seed of round [key]: round 0 uses the workload seed itself,
    so seed 1 starts with [farmctl]'s default corpus. *)
let corpus_seed ~seed key =
  if key = 0 then seed
  else Random.State.bits (Random.State.make [| seed; key |])

let run ~seed ~seconds ~traced ~known:_ =
  let h = Harness.create () in
  let jobs = Harness.cores in
  let spec key = { P.default_spec with P.seed = corpus_seed ~seed key } in
  (* Set-up: one corpus run, which loads the code paths and grows the
     heap to its working size. *)
  Harness.setup h (fun () -> ignore (P.run ~jobs (spec 0)));
  let programs = P.default_spec.P.families * P.default_spec.P.variants in
  let corpus_ms = ref [] in
  let jobs_pairs = ref [] in
  let violating = ref 0 in
  let jobs_mismatches = ref 0 in
  let round ~key ~traced =
    let spec = spec key in
    Trace.next_op ();
    let t0 = Trace.now_ns () in
    let timings = if traced then Some (Parcoach.Timings.create ()) else None in
    let result =
      Trace.span "farm.pipeline" (fun () -> P.run ?timings ~jobs spec)
    in
    let ms = float_of_int (Trace.now_ns () - t0) /. 1e6 in
    (* [serial]: the same corpus at jobs:1, in traced rounds only and
       outside the timed region; the corpus is generated from the spec
       again, which is deterministic. *)
    let serial =
      match timings with
      | None -> None
      | Some timings ->
          Trace.add_phases (Parcoach.Timings.entries timings);
          let t1 = Trace.now_ns () in
          let serial = P.run ~jobs:1 spec in
          jobs_pairs := (float_of_int (Trace.now_ns () - t1), ms *. 1e6) :: !jobs_pairs;
          Some serial
    in
    if not traced then corpus_ms := ms :: !corpus_ms;
    Array.iteri
      (fun i (v : P.verdict) ->
        h.Harness.attempted <- h.Harness.attempted + 1;
        let where = Printf.sprintf "corpus seed %d entry #%06d" spec.P.seed i in
        if v.P.entry_id <> i then
          Harness.fail h (Printf.sprintf "%s: verdict of entry %d" where v.P.entry_id)
        else begin
          if v.P.obs.Farm.Oracle.violations <> [] then incr violating;
          match serial with
          | Some serial
            when not (Farm.Oracle.obs_agree v.P.obs serial.P.verdicts.(i).P.obs) ->
              incr jobs_mismatches
          | _ -> ()
        end)
      result.P.verdicts;
    h.Harness.busy_ms <- h.Harness.busy_ms +. ms;
    if traced then begin
      let st = result.P.stats in
      let n = float_of_int st.P.programs in
      Trace.add "farm.dedup_ratio" (float_of_int st.P.duplicates /. n);
      Trace.add "farm.cache.hit_ratio"
        (float_of_int st.P.cache_hits /. float_of_int (max 1 (st.P.cache_hits + st.P.cache_misses)));
      Trace.add "farm.cc_elided_ratio"
        (float_of_int
           (Array.fold_left
              (fun acc (v : P.verdict) ->
                if v.P.obs.Farm.Oracle.cc = None then acc + 1 else acc)
              0 result.P.verdicts)
        /. n);
      Trace.add "farm.violations" (float_of_int (List.length result.P.violations))
    end
  in
  Harness.rounds h ~seconds ~traced round;
  let lats = !corpus_ms in
  let e2e, tail =
    Harness.end_to_end h ~per_round:1
      ~ops_per_s:(fun lats -> float_of_int programs *. Harness.ops_per_s lats)
      lats
  in
  let violation_share =
    ( "violation_share",
      float_of_int !violating /. float_of_int (max 1 h.Harness.attempted),
      Printf.sprintf "(%d of %d verdicts)" !violating h.Harness.attempted )
  in
  let layers =
    [
      ( "farm.pool.jobs_ratio",
        Harness.median (List.map (fun (one, many) -> many /. one) !jobs_pairs) );
      ("farm.jobs_mismatches", float_of_int !jobs_mismatches);
    ]
  in
  (h, e2e, tail @ [ violation_share ], layers, jobs)

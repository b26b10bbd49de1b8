(** Closed-loop measurement shared by the workloads: one client issues
    the next operation only when the previous one has returned.  An
    operation's latency covers the library calls only; the benchmark's
    own checks of the result run after the clock stops. *)

let now_ns = Trace.now_ns

(** The libraries' default concurrency: one domain per core. *)
let cores = Domain.recommended_domain_count ()

type t = {
  mutable samples : (string * float) list;
      (** (tag, latency in ms) of every operation timed with tracing
          off, newest first: the end-to-end sample. *)
  mutable traced : (string * float) list;  (** The same with tracing on. *)
  mutable busy_ms : float;  (** Sum of all operation latencies. *)
  mutable pairs : (float * float) list;
      (** Busy ms of each (untraced, traced) pair of adjacent rounds. *)
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** First failure messages, newest first. *)
  mutable broken : string list;
      (** Run-level checks that failed (known answers missing, a traced
          replay disagreeing with the library); they make the run
          incorrect, unlike failed operations, which are counted. *)
  mutable setup_times : float list;  (** Wall time of each set-up, in s. *)
  mutable resetup : unit -> unit;  (** Time one more set-up. *)
}

let create () =
  {
    samples = [];
    traced = [];
    busy_ms = 0.;
    pairs = [];
    attempted = 0;
    failed = 0;
    failures = [];
    broken = [];
    setup_times = [];
    resetup = ignore;
  }

let fail h msg =
  h.failed <- h.failed + 1;
  if List.length h.failures < 5 then h.failures <- msg :: h.failures

let break h msg = h.broken <- msg :: h.broken

(** Run one operation: time [f], then judge its result with [check]
    (outside the timed region).  An exception or an [Error] counts the
    operation as failed.  Returns the result when [f] returned. *)
let op h ~tag f check =
  h.attempted <- h.attempted + 1;
  Trace.next_op ();
  let t0 = now_ns () in
  match f () with
  | exception e ->
      fail h (Printf.sprintf "%s: %s" tag (Printexc.to_string e));
      None
  | v ->
      let ms = float_of_int (now_ns () - t0) /. 1e6 in
      h.busy_ms <- h.busy_ms +. ms;
      if !Trace.enabled then h.traced <- (tag, ms) :: h.traced
      else h.samples <- (tag, ms) :: h.samples;
      (match check v with
      | Ok () -> ()
      | Error msg -> fail h (Printf.sprintf "%s: %s" tag msg)
      | exception e ->
          fail h (Printf.sprintf "%s: check raised %s" tag (Printexc.to_string e)));
      Some v

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(** Nearest-rank percentile ([q] in 0..1) of a non-empty sample. *)
let percentile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median xs = percentile xs 0.5

let latencies ?(tag = fun _ -> true) h =
  List.filter_map (fun (t, ms) -> if tag t then Some ms else None) h.samples

(** Operations per second of busy time (the inverse mean latency): the
    rate one closed-loop client sustains, excluding the checks. *)
let ops_per_s lats =
  let busy = List.fold_left ( +. ) 0. lats in
  if busy > 0. then float_of_int (List.length lats) /. (busy /. 1e3) else 0.

(** Set-ups timed before the measurement, and set-ups spread over it. *)
let setups_before = 3
let setups_during = 20

let time_setup h f =
  Gc.full_major ();
  Trace.next_op ();
  let t0 = now_ns () in
  let v = f () in
  h.setup_times <- (float_of_int (now_ns () - t0) /. 1e9) :: h.setup_times;
  v

(** Set the workload up with [f] and return the last result.  [f] runs
    [setups_before] times here and [setups_during] more times spread
    over the measurement by {!rounds}, its results dropped: the host's
    speed drifts over seconds, so set-ups timed in one burst would
    measure the burst's moment, not the run's.  Each starts from a
    collected heap, so the garbage of the rounds before it is not
    charged to it. *)
let setup h f =
  h.resetup <- (fun () -> ignore (time_setup h f));
  for _ = 2 to setups_before do
    ignore (time_setup h f)
  done;
  time_setup h f

let peak_heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(** Windows the run's rounds are cut into for {!windowed}, and the
    fewest rounds a window may hold. *)
let windows = 8

let min_window_rounds = 8

(** Median, over [windows] consecutive stretches of the run holding the
    same number of whole rounds (each round [per_round] samples), of
    [stat] of each stretch's latencies; the last rounds, too few to add
    one to every window, are left out.  The host's speed drifts in
    stretches of seconds; a slow stretch then moves one or two windows,
    not the result.  A run too short to give every window
    [min_window_rounds] rounds is taken whole. *)
let windowed ~per_round stat lats =
  let a = Array.of_list (List.rev lats) in
  let window_rounds = Array.length a / per_round / windows in
  if window_rounds < min_window_rounds then stat lats
  else
    let n = window_rounds * per_round in
    median
      (List.init windows (fun w -> stat (Array.to_list (Array.sub a (w * n) n))))

(** The gated end-to-end metrics, then the printed-only tail: p99 has
    fewer than ten samples beyond it on the farm and swings with the
    host's noise, so p95 is the gated tail.  Throughput and latencies
    are {!windowed} medians over the run; [lats] is newest first. *)
let end_to_end h ~per_round ?(ops_per_s = ops_per_s) lats =
  let windowed = windowed ~per_round in
  ( [
      ("setup_s", median h.setup_times, "s");
      ("ops_per_s", windowed ops_per_s lats, "1/s");
      ("latency_ms_p50", windowed median lats, "ms");
      ("latency_ms_p95", windowed (fun l -> percentile l 0.95) lats, "ms");
      ("peak_heap_mb", peak_heap_mb (), "MB");
    ],
    [
      ("latency_ms_p99", percentile lats 0.99, "ms");
      ("latency_samples", float_of_int (List.length lats), "count");
    ] )

(** Repeat [round] until [seconds] have passed; every round completes,
    so a round's balanced mix of inputs is never cut short.

    In a traced run rounds come in pairs that draw their inputs with the
    same [key], one untraced and one traced, in alternating order (ABBA)
    so drift cancels; a full major collection before each round keeps
    the garbage of the traced round's probes from landing on its twin.
    The pair's busy times give the tracing overhead.

    Between rounds, one set-up is timed every [seconds /. setups_during]. *)
let rounds h ~seconds ~traced round =
  let every = int_of_float (seconds *. 1e9) / setups_during in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let next_setup = ref (now_ns () + every) in
  let k = ref 0 in
  let first = ref 0. in
  while !k < 2 || now_ns () < deadline || (traced && !k mod 2 = 1) do
    if now_ns () >= !next_setup then begin
      h.resetup ();
      next_setup := !next_setup + every
    end;
    let key = if traced then !k / 2 else !k in
    let on = traced && (!k mod 2 = 1) = (key mod 2 = 0) in
    Gc.full_major ();
    let before = h.busy_ms in
    Trace.enabled := on;
    round ~key ~traced:on;
    Trace.enabled := false;
    let busy = h.busy_ms -. before in
    (if traced && !k mod 2 = 1 then
       let untraced, traced = if on then (!first, busy) else (busy, !first) in
       h.pairs <- (untraced, traced) :: h.pairs);
    first := busy;
    incr k
  done

(** Tracing overhead: median over round pairs of the traced round's
    busy time relative to its untraced twin, in percent. *)
let trace_overhead_pct h =
  median (List.map (fun (a, b) -> ((b /. a) -. 1.) *. 100.) h.pairs)

(** Seeded 95 % bootstrap interval of [stat] over [xs], from 1000
    resamples. *)
let bootstrap ~seed stat xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then (nan, nan)
  else
    let st = Random.State.make [| seed; 0xb007 |] in
    let stats =
      List.init 1000 (fun _ ->
          stat (List.init n (fun _ -> a.(Random.State.int st n))))
    in
    (percentile stats 0.025, percentile stats 0.975)

(** Seeded Fisher-Yates shuffle. *)
let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(** Streaming MUST-style overlay checker: the online form of {!Overlay}.

    Ranks push collective events as they happen into bounded per-leaf
    mailboxes; a coordinator on the checker's {!Conc.Pool} drains them
    in batches, compares interned signature ids (integers, not strings),
    and optionally shards the scan over the same pool.  Backpressure: a
    full mailbox blocks its producer, so in-flight memory is
    O(window × nranks) regardless of trace length.  Verdicts,
    divergence localization and cost metrics are byte-identical to
    {!Overlay.check} on the same traces with the same (fixed) fanout. *)

type stats = {
  events : int;  (** Events consumed before the verdict was reached. *)
  drained : int;  (** Events discarded after an early divergence verdict. *)
  batches : int;  (** Reduction batches executed. *)
  max_batch_fill : int;  (** Largest number of rounds reduced in one batch. *)
  max_in_flight : int;
      (** Largest buffered event count (mailboxes + batch carries)
          observed at a batch boundary; hard bound
          [(window + batch) * nranks]. *)
  retunes : int;  (** Load-aware tree reconfigurations performed. *)
  distinct_signatures : int;  (** Intern-table size at the end. *)
  final_fanout : int;  (** Fanout of the tree after the last retune. *)
  shards : int;
  window : int;
  batch : int;
}

type t

(** Load-aware default fanout for [nranks] leaves: ⌈√nranks⌉ clamped to
    [2, 16] — at most two overlay layers for typical rank counts without
    letting any single tool node serve an unbounded fan-in. *)
val auto_fanout : nranks:int -> int

(** [create ~nranks ()] starts the coordinator on a pool of its own and
    returns a live checker.

    @param fanout overlay tree fanout (default {!auto_fanout}; >= 2).
    @param window per-rank mailbox capacity — the divergence window and
      backpressure bound (default 1024; >= 2).
    @param batch maximum rounds reduced per coordinator wake-up
      (default 256; >= 1).
    @param shards internal-node shards fanned out with
      {!Conc.Pool.parallel_for} (default 1 = scan inline; clamped to
      [nranks]).  The verdict is
      independent of the shard count.
    @param adapt enable load-aware tree reconfiguration (default
      [false]).  Retuning changes only cost metrics, never verdicts; use
      a fixed [fanout] when byte-identity with {!Overlay.check} on the
      cost metrics matters.
    @raise Invalid_argument on out-of-range parameters. *)
val create :
  ?fanout:int ->
  ?window:int ->
  ?batch:int ->
  ?shards:int ->
  ?adapt:bool ->
  nranks:int ->
  unit ->
  t

(** Push rank [rank]'s next collective event.  Interns the signature
    (per-rank cache; the shared table's lock is only taken on new
    signatures) and appends it to a producer-local buffer that is
    flushed into the rank's bounded mailbox every [window/4] events (and
    on {!close_rank} / {!close}), so the mailbox lock is amortized over
    the flush chunk.  A flush blocks while the mailbox is full
    (backpressure).  Each rank's [push]/[close_rank] calls must come
    from a single producer thread; one thread may produce for several
    ranks if it keeps them in lockstep (within a flush chunk of each
    other), as the simulator and {!check_traces} do.
    @raise Invalid_argument on a bad rank or if the rank was closed. *)
val push : t -> rank:int -> Overlay.event -> unit

(** {!push} for a signature id already interned in this checker's table
    (e.g. from {!intern}). *)
val push_id : t -> rank:int -> int -> unit

(** Bulk {!push} of a whole event array: same semantics, one rank
    validation and producer lookup for the entire batch. *)
val push_all : t -> rank:int -> Overlay.event array -> unit

(** [push_slice t ~rank events pos len]: bulk {!push} of
    [events.(pos .. pos+len-1)].  A single thread producing for several
    ranks should interleave slices no longer than the flush chunk
    ([window/4]) to stay in lockstep (see {!push}). *)
val push_slice : t -> rank:int -> Overlay.event array -> int -> int -> unit

(** Intern an event's signature in this checker's table. *)
val intern : t -> Overlay.event -> int

(** Mark rank [rank]'s stream as ended; its remaining rounds contribute
    ["<no event>"], exactly as a short trace does post-hoc. *)
val close_rank : t -> rank:int -> unit

(** Close every rank's stream, flushing any producer-buffered events
    first.  Call only after the producer threads have quiesced. *)
val close : t -> unit

(** Close all streams (idempotent), wait for the coordinator to finish,
    and return its report and streaming statistics.  Cached: subsequent
    calls return the same result. *)
val result : t -> Overlay.report * stats

(** Subscribe the checker to a simulated MPI engine: every recorded
    collective arrival is pushed online and per-rank trace retention is
    turned off — the checker's bounded window replaces the full trace.
    The caller still must {!close} (or {!result}) after the run.
    @raise Invalid_argument on a rank-count mismatch. *)
val attach_engine : t -> Mpisim.Engine.t -> unit

(** Stream complete per-rank traces through a fresh checker (single
    producer, round-robin by position, each rank closed at its last
    event) and return its report and stats — the streaming counterpart
    of {!Overlay.check} on the same traces and fanout. *)
val check_traces :
  ?fanout:int ->
  ?window:int ->
  ?batch:int ->
  ?shards:int ->
  ?adapt:bool ->
  Overlay.event list array ->
  Overlay.report * stats

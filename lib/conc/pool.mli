(** The one domain substrate: a bounded worker pool of OCaml 5 domains,
    in the direct style of eio's concurrency primitives (a write-once
    {!Promise} for results, a bounded blocking {!Stream} as the work
    queue, a fixed set of worker domains draining it), and
    {!parallel_for}, the fan-out every parallel path runs on.  No other
    module spawns a domain. *)

module Promise : sig
  type 'a t

  val create : unit -> 'a t

  (** Resolve with a value; subsequent resolutions are ignored. *)
  val resolve : 'a t -> 'a -> unit

  (** Resolve with an exception, re-raised by {!await}. *)
  val reject : 'a t -> exn -> unit

  (** Block until resolved; returns the value or re-raises. *)
  val await : 'a t -> 'a

  val is_resolved : 'a t -> bool
end

module Stream : sig
  type 'a t

  (** [create capacity]: a bounded FIFO; {!push} blocks while full. *)
  val create : int -> 'a t

  (** @raise Invalid_argument if the stream is closed. *)
  val push : 'a t -> 'a -> unit

  (** Blocking pop; [None] once the stream is closed and drained. *)
  val pop : 'a t -> 'a option

  (** Close: pushes fail, pops drain the backlog then return [None]. *)
  val close : 'a t -> unit

  val length : 'a t -> int
end

(** Int-specialized bounded ring buffer with the same
    blocking/backpressure contract as {!Stream}: elements live unboxed
    in a flat array and bulk transfers are [Array.blit] copies under a
    single lock.  Built for high-rate mailboxes (e.g. the streaming
    overlay checker's interned-signature queues). *)
module Ring : sig
  type t

  (** [create capacity]: a bounded int FIFO; pushes block while full. *)
  val create : int -> t

  (** Blocking push of one element.
      @raise Invalid_argument if the ring is closed. *)
  val push : t -> int -> unit

  (** [push_array t src pos len]: blocking bulk push of
      [src.(pos .. pos+len-1)] in order, copying in capacity-sized
      chunks under one lock acquisition each.
      @raise Invalid_argument if the ring is closed. *)
  val push_array : t -> int array -> int -> int -> unit

  (** Blocking pop; [None] once the ring is closed and drained. *)
  val pop : t -> int option

  (** [pop_into t dst pos max]: non-blocking bulk pop of up to [max]
      elements into [dst.(pos..)], FIFO, under one lock; returns the
      count copied. *)
  val pop_into : t -> int array -> int -> int -> int

  (** Non-blocking discard of everything queued; returns the count. *)
  val drain : t -> int

  val is_closed : t -> bool

  (** Close: pushes fail, pops drain the backlog then return [None]. *)
  val close : t -> unit

  val length : t -> int
end

(** Sharded batch queue with work stealing: each shard holds a fixed
    array of batches filled up front; workers drain their own shards with
    {!take} and fall back to {!steal} (a round-robin scan from a
    preferred shard) so a slow shard never idles the rest of the pool.
    Claiming is a single [Atomic.fetch_and_add] per batch — every batch
    is handed out exactly once, whatever the worker interleaving. *)
module Workq : sig
  type 'a t

  (** [create batches]: [batches.(s)] are shard [s]'s batches, in the
      order they should be claimed. *)
  val create : 'a array array array -> 'a t

  val shards : 'a t -> int

  (** Claim the next batch of [shard]; [None] once the shard is drained. *)
  val take : 'a t -> shard:int -> 'a array option

  (** Claim a batch from the first non-drained shard at or after
      [preferred] (wrapping); returns the shard it came from. *)
  val steal : 'a t -> preferred:int -> (int * 'a array) option
end

type t

(** [create ~jobs ()] spawns [jobs] worker domains ([jobs >= 1]).  The
    width is taken as given: a pool whose jobs wait on each other needs
    all of them. *)
val create : jobs:int -> unit -> t

(** Enqueue a job; the promise resolves with its result (or exception)
    once a worker has run it. *)
val submit : t -> (unit -> 'a) -> 'a Promise.t

(** Drain the queue, stop the workers and join their domains.
    Idempotent. *)
val shutdown : t -> unit

(** [width ~jobs n] is the number of domains {!parallel_for} runs [n]
    items on: [min jobs n (Domain.recommended_domain_count ())] (the
    core count is read once, at start-up), and at least 1.  More domains than cores or items only adds spawn and
    scheduling cost. *)
val width : jobs:int -> int -> int

(** [with_pool ~jobs f] runs [f] with a pool of [width ~jobs max_int - 1]
    helper domains for {!parallel_for} (the caller is worker 0), or with
    [None] when that width is 1, and shuts the pool down when [f]
    returns or raises.  Callers that fan out many times (the explorer's
    waves) pay for the domains once. *)
val with_pool : jobs:int -> (t option -> 'a) -> 'a

(** [parallel_for ?pool ~jobs n f] runs [f ~worker i] for every
    [0 <= i < n] on [width ~jobs n] domains and returns when all have
    run.  The calling domain is worker 0; the others are jobs on [pool]
    (or on a pool created and shut down for this call).  Indices are
    claimed from an atomic counter.  Each [worker] index belongs to one
    domain at a time, so [f] may use a per-worker resource without
    locking.  Once an item raises, no further index is claimed; the
    failure with the lowest index is re-raised with its backtrace after
    every domain has stopped — the exception a sequential loop would
    raise.  With width 1 the loop runs inline: no pool, no domain. *)
val parallel_for :
  ?pool:t -> jobs:int -> int -> (worker:int -> int -> unit) -> unit

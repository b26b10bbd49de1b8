(** Promise/stream worker pool over OCaml 5 domains and the fan-out built
    on it (see the interface). *)

module Promise = struct
  type 'a state = Pending | Done of 'a | Failed of exn

  type 'a t = {
    mutex : Mutex.t;
    cond : Condition.t;
    mutable state : 'a state;
  }

  let create () =
    { mutex = Mutex.create (); cond = Condition.create (); state = Pending }

  let fill t state =
    Mutex.lock t.mutex;
    (match t.state with
    | Pending ->
        t.state <- state;
        Condition.broadcast t.cond
    | Done _ | Failed _ -> ());
    Mutex.unlock t.mutex

  let resolve t v = fill t (Done v)

  let reject t e = fill t (Failed e)

  let await t =
    Mutex.lock t.mutex;
    while t.state = Pending do
      Condition.wait t.cond t.mutex
    done;
    let state = t.state in
    Mutex.unlock t.mutex;
    match state with
    | Done v -> v
    | Failed e -> raise e
    | Pending -> assert false

  let is_resolved t =
    Mutex.lock t.mutex;
    let r = t.state <> Pending in
    Mutex.unlock t.mutex;
    r
end

module Stream = struct
  type 'a t = {
    mutex : Mutex.t;
    nonempty : Condition.t;
    nonfull : Condition.t;
    queue : 'a Queue.t;
    capacity : int;
    mutable closed : bool;
  }

  let create capacity =
    if capacity < 1 then invalid_arg "Stream.create: capacity must be >= 1";
    {
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      nonfull = Condition.create ();
      queue = Queue.create ();
      capacity;
      closed = false;
    }

  let push t v =
    Mutex.lock t.mutex;
    while Queue.length t.queue >= t.capacity && not t.closed do
      Condition.wait t.nonfull t.mutex
    done;
    if t.closed then begin
      Mutex.unlock t.mutex;
      invalid_arg "Stream.push: stream is closed"
    end;
    Queue.push v t.queue;
    Condition.signal t.nonempty;
    Mutex.unlock t.mutex

  let pop t =
    Mutex.lock t.mutex;
    while Queue.is_empty t.queue && not t.closed do
      Condition.wait t.nonempty t.mutex
    done;
    let v = Queue.take_opt t.queue in
    if v <> None then Condition.signal t.nonfull;
    Mutex.unlock t.mutex;
    v

  let close t =
    Mutex.lock t.mutex;
    t.closed <- true;
    Condition.broadcast t.nonempty;
    Condition.broadcast t.nonfull;
    Mutex.unlock t.mutex

  let length t =
    Mutex.lock t.mutex;
    let n = Queue.length t.queue in
    Mutex.unlock t.mutex;
    n
end

(* Int-specialized bounded ring buffer: same blocking/backpressure
   contract as Stream, but elements are unboxed in a flat array and bulk
   transfers are Array.blit copies under one lock — no per-element queue
   cell, no per-element signaling.  Built for high-rate mailboxes (the
   streaming overlay checker moves ~10^6 interned signature ids through
   these). *)
module Ring = struct
  type t = {
    mutex : Mutex.t;
    nonempty : Condition.t;
    nonfull : Condition.t;
    buf : int array;
    capacity : int;
    mutable head : int;  (* next read position *)
    mutable size : int;
    mutable closed : bool;
  }

  let create capacity =
    if capacity < 1 then invalid_arg "Ring.create: capacity must be >= 1";
    {
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      nonfull = Condition.create ();
      buf = Array.make capacity 0;
      capacity;
      head = 0;
      size = 0;
      closed = false;
    }

  (* Copy [len] elements from [src.(pos..)] into the ring at its write
     position; caller holds the lock and has checked the room. *)
  let unsafe_write t src pos len =
    let tail = (t.head + t.size) mod t.capacity in
    let first = min len (t.capacity - tail) in
    Array.blit src pos t.buf tail first;
    if len > first then Array.blit src (pos + first) t.buf 0 (len - first);
    t.size <- t.size + len

  let push_array t src pos len =
    let stop = pos + len in
    let i = ref pos in
    Mutex.lock t.mutex;
    while !i < stop do
      while t.size >= t.capacity && not t.closed do
        Condition.wait t.nonfull t.mutex
      done;
      if t.closed then begin
        Mutex.unlock t.mutex;
        invalid_arg "Ring.push_array: ring is closed"
      end;
      let n = min (t.capacity - t.size) (stop - !i) in
      unsafe_write t src !i n;
      i := !i + n;
      Condition.signal t.nonempty
    done;
    Mutex.unlock t.mutex

  let push t v = push_array t (Array.make 1 v) 0 1

  (* Blocking single pop; [None] once closed and drained. *)
  let pop t =
    Mutex.lock t.mutex;
    while t.size = 0 && not t.closed do
      Condition.wait t.nonempty t.mutex
    done;
    let r =
      if t.size = 0 then None
      else begin
        let v = t.buf.(t.head) in
        t.head <- (t.head + 1) mod t.capacity;
        t.size <- t.size - 1;
        Condition.signal t.nonfull;
        Some v
      end
    in
    Mutex.unlock t.mutex;
    r

  (* Non-blocking bulk pop into [dst.(pos..)]: up to [max] elements,
     FIFO, one lock; returns the count copied. *)
  let pop_into t dst pos max =
    Mutex.lock t.mutex;
    let n = min max t.size in
    if n > 0 then begin
      let first = min n (t.capacity - t.head) in
      Array.blit t.buf t.head dst pos first;
      if n > first then Array.blit t.buf 0 dst (pos + first) (n - first);
      t.head <- (t.head + n) mod t.capacity;
      t.size <- t.size - n;
      Condition.broadcast t.nonfull
    end;
    Mutex.unlock t.mutex;
    n

  (* Non-blocking discard of everything queued; returns the count. *)
  let drain t =
    Mutex.lock t.mutex;
    let n = t.size in
    t.head <- 0;
    t.size <- 0;
    if n > 0 then Condition.broadcast t.nonfull;
    Mutex.unlock t.mutex;
    n

  let is_closed t =
    Mutex.lock t.mutex;
    let c = t.closed in
    Mutex.unlock t.mutex;
    c

  let close t =
    Mutex.lock t.mutex;
    t.closed <- true;
    Condition.broadcast t.nonempty;
    Condition.broadcast t.nonfull;
    Mutex.unlock t.mutex

  let length t =
    Mutex.lock t.mutex;
    let n = t.size in
    Mutex.unlock t.mutex;
    n
end

module Workq = struct
  type 'a t = { batches : 'a array array array; next : int Atomic.t array }

  let create batches =
    {
      batches;
      next = Array.init (Array.length batches) (fun _ -> Atomic.make 0);
    }

  let shards t = Array.length t.batches

  let take t ~shard =
    let row = t.batches.(shard) in
    let i = Atomic.fetch_and_add t.next.(shard) 1 in
    if i < Array.length row then Some row.(i) else None

  let steal t ~preferred =
    let n = shards t in
    let rec scan k =
      if k >= n then None
      else
        let shard = (preferred + k) mod n in
        match take t ~shard with
        | Some batch -> Some (shard, batch)
        | None -> scan (k + 1)
    in
    if n = 0 then None else scan 0
end

type t = {
  stream : (unit -> unit) Stream.t;
  workers : unit Domain.t array;
  shut : Mutex.t;
  mutable down : bool;
}

let worker stream () =
  let rec loop () =
    match Stream.pop stream with
    | Some job ->
        job ();
        loop ()
    | None -> ()
  in
  loop ()

let create ~jobs () =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let stream = Stream.create (max 64 (jobs * 4)) in
  {
    stream;
    workers = Array.init jobs (fun _ -> Domain.spawn (worker stream));
    shut = Mutex.create ();
    down = false;
  }

let submit t f =
  let p = Promise.create () in
  Stream.push t.stream (fun () ->
      match f () with
      | v -> Promise.resolve p v
      | exception e -> Promise.reject p e);
  p

let shutdown t =
  Mutex.lock t.shut;
  let first = not t.down in
  t.down <- true;
  Mutex.unlock t.shut;
  if first then begin
    Stream.close t.stream;
    Array.iter Domain.join t.workers
  end

(* Read once: the call is a system call, and the explorer asks for the
   width once per wave. *)
let cores = Domain.recommended_domain_count ()

let width ~jobs n =
  if jobs < 1 then invalid_arg "Pool.width: jobs must be >= 1";
  max 1 (min jobs (min n cores))

(* A pool of [helpers] domains for the duration of [f]. *)
let scoped ~helpers f =
  let pool = create ~jobs:helpers () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let with_pool ~jobs f =
  let helpers = width ~jobs max_int - 1 in
  if helpers < 1 then f None else scoped ~helpers (fun pool -> f (Some pool))

(* Workers 1 .. width-1 are jobs on [pool]; the caller is worker 0.  An
   item's exception is caught where it is raised, so every job resolves
   normally and [failure] keeps the lowest failing index: indices are
   claimed in increasing order, so every index below a failing one was
   claimed before it and runs to the end. *)
let fan_out pool ~width n f =
  let next = Atomic.make 0 in
  let failure = Atomic.make None in
  let rec record i e bt =
    match Atomic.get failure with
    | Some (j, _, _) when j < i -> ()
    | cur ->
        if not (Atomic.compare_and_set failure cur (Some (i, e, bt))) then
          record i e bt
  in
  let rec run ~worker =
    if Option.is_none (Atomic.get failure) then begin
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (try f ~worker i
         with e -> record i e (Printexc.get_raw_backtrace ()));
        run ~worker
      end
    end
  in
  let helpers =
    List.init (width - 1) (fun k -> submit pool (fun () -> run ~worker:(k + 1)))
  in
  run ~worker:0;
  List.iter Promise.await helpers;
  match Atomic.get failure with
  | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let parallel_for ?pool ~jobs n f =
  let width = width ~jobs n in
  if width <= 1 then
    for i = 0 to n - 1 do
      f ~worker:0 i
    done
  else
    match pool with
    | Some pool -> fan_out pool ~width n f
    | None -> scoped ~helpers:(width - 1) (fun pool -> fan_out pool ~width n f)

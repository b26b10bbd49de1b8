(** Executable specification of the simulator (see the interface).  Every
    structure is a list and every lookup a scan: this module is written
    to be read against the language's semantics, not to be fast. *)

open Minilang
module Sim = Interp.Sim

(* ------------------------------------------------------------------ *)
(* Runtime state                                                        *)
(* ------------------------------------------------------------------ *)

(* Variables are shared mutable cells; the innermost binding comes
   first.  A parallel team's members start from the forker's list, so
   outer variables are shared (OpenMP shared-by-default) while their own
   declarations shadow. *)
type env = (string * int ref) list

type team = {
  size : int;
  forker : task;
  mutable at_barrier : task list;  (** Members blocked at the barrier. *)
  mutable claimed : (Ast.stmt * int) list;
      (** [single] instances some member already took. *)
  mutable members_done : int;
}

and frame =
  | Seq of Ast.block * env
  | Loop_while of Ast.expr * Ast.block * env
  | Loop_for of {
      var : string;
      mutable next : int;
      stop : int;
      body : Ast.block;
      env : env;
    }
  | Return_mark
  | Enter_single
  | Exit_single of { team : team option; nowait : bool }
  | Exit_worksharing of { team : team option; nowait : bool }
  | Release_critical of string
  | Combine of { op : Ast.reduce_op; shared : int ref; private_ : int ref }

and state =
  | Running
  | Done
  | In_collective of { site : string; coll : string; into : int ref option }
  | In_barrier of string
  | Joining
  | In_critical of { name : string; site : string }
  | In_recv of { src : int; tag : int; site : string; into : int ref }
  | In_wait of { rid : int; site : string }

and task = {
  id : int;
  rank : int;
  tid : int;
  team : team option;
  mutable stack : frame list;
  mutable state : state;
  mutable single_depth : int;
  mutable seen : (Ast.stmt * int) list;
      (** Encounters per [single] construct, for instance numbering. *)
}

type request_kind =
  | Round of int  (** Nonblocking collective: global round index. *)
  | Eager_send
  | Pull of { src : int; tag : int }  (** [MPI_Irecv]. *)

type request = {
  rid : int;
  owner : int;  (** Rank. *)
  kind : request_kind;
  start_site : string;
  mutable complete : bool;
  mutable target : int ref option;
}

type message = { from : int; mtag : int; value : int }

type lock = { mutable holder : int option; mutable queue : task list }

type world = {
  config : Sim.config;
  program : Ast.program;
  mutable tasks : task list;  (** Spawn order. *)
  mutable arrivals : (task * Mpisim.Coll.call) list;
      (** The blocking rendezvous, in arrival order. *)
  mutable posts : (task * Mpisim.Coll.call) list;
      (** Nonblocking posts not yet in a completed round, in post order. *)
  mutable rounds : int array list;  (** Results of completed rounds, newest first. *)
  mutable inboxes : (int * message) list;  (** (destination, message), oldest first. *)
  mutable locks : ((int * string) * lock) list;
  mutable counters : ((int * int) * int) list;
  mutable requests : request list;
  mutable lifecycle : Sim.lifecycle list;  (** Newest first. *)
  mutable trace : (int * int * int) list;  (** Newest first. *)
  mutable steps : int;
}

exception Stop of Sim.outcome

let fail rank site fmt =
  Printf.ksprintf
    (fun message ->
      raise (Stop (Sim.Fault (Sim.Eval_error { rank; site; message }))))
    fmt

let is_running t = match t.state with Running -> true | _ -> false

let is_done t = match t.state with Done -> true | _ -> false

let team_size t = match t.team with None -> 1 | Some tm -> tm.size

let push t frames = t.stack <- frames @ t.stack

let pop t = t.stack <- List.tl t.stack

(* ------------------------------------------------------------------ *)
(* Expressions and variables                                            *)
(* ------------------------------------------------------------------ *)

let cell t site x env =
  match List.assoc_opt x env with
  | Some c -> c
  | None -> fail t.rank site "unbound variable '%s'" x

let rec eval w t env site (e : Ast.expr) =
  let ev = eval w t env site in
  match e with
  | Ast.Int n -> n
  | Ast.Bool b -> if b then 1 else 0
  | Ast.Var x -> !(cell t site x env)
  | Ast.Rank -> t.rank
  | Ast.Size -> w.config.Sim.nranks
  | Ast.Tid -> t.tid
  | Ast.Nthreads -> team_size t
  | Ast.Unop (Ast.Neg, a) -> -ev a
  | Ast.Unop (Ast.Not, a) -> if ev a = 0 then 1 else 0
  | Ast.Binop (Ast.And, a, b) -> if ev a = 0 then 0 else min 1 (abs (ev b))
  | Ast.Binop (Ast.Or, a, b) -> if ev a <> 0 then 1 else min 1 (abs (ev b))
  | Ast.Binop (op, a, b) -> (
      let x = ev a in
      let y = ev b in
      let truth c = if c then 1 else 0 in
      match op with
      | Ast.Add -> x + y
      | Ast.Sub -> x - y
      | Ast.Mul -> x * y
      | Ast.Div -> if y = 0 then fail t.rank site "division by zero" else x / y
      | Ast.Mod -> if y = 0 then fail t.rank site "modulo by zero" else x mod y
      | Ast.Eq -> truth (x = y)
      | Ast.Ne -> truth (x <> y)
      | Ast.Lt -> truth (x < y)
      | Ast.Le -> truth (x <= y)
      | Ast.Gt -> truth (x > y)
      | Ast.Ge -> truth (x >= y)
      | Ast.And | Ast.Or -> assert false)

let reduce (op : Ast.reduce_op) a b =
  match op with
  | Ast.Rsum -> a + b
  | Ast.Rprod -> a * b
  | Ast.Rmax -> if a >= b then a else b
  | Ast.Rmin -> if a <= b then a else b
  | Ast.Rland -> if a <> 0 && b <> 0 then 1 else 0
  | Ast.Rlor -> if a <> 0 || b <> 0 then 1 else 0

let neutral (op : Ast.reduce_op) =
  match op with
  | Ast.Rsum | Ast.Rlor -> 0
  | Ast.Rprod | Ast.Rland -> 1
  | Ast.Rmax -> min_int
  | Ast.Rmin -> max_int

let mpi_op (op : Ast.reduce_op) : Mpisim.Op.t =
  match op with
  | Ast.Rsum -> Mpisim.Op.Sum
  | Ast.Rprod -> Mpisim.Op.Prod
  | Ast.Rmax -> Mpisim.Op.Max
  | Ast.Rmin -> Mpisim.Op.Min
  | Ast.Rland -> Mpisim.Op.Land
  | Ast.Rlor -> Mpisim.Op.Lor

let ast_op (op : Mpisim.Op.t) : Ast.reduce_op =
  match op with
  | Mpisim.Op.Sum -> Ast.Rsum
  | Mpisim.Op.Prod -> Ast.Rprod
  | Mpisim.Op.Max -> Ast.Rmax
  | Mpisim.Op.Min -> Ast.Rmin
  | Mpisim.Op.Land -> Ast.Rland
  | Mpisim.Op.Lor -> Ast.Rlor

(* ------------------------------------------------------------------ *)
(* Tasks and the thread level                                           *)
(* ------------------------------------------------------------------ *)

let spawn w ~rank ~tid ~team ~stack =
  let t =
    {
      id = List.length w.tasks;
      rank;
      tid;
      team;
      stack;
      state = Running;
      single_depth = 0;
      seen = [];
    }
  in
  w.tasks <- w.tasks @ [ t ];
  t

let describe t =
  let where =
    match t.state with
    | In_collective { site; coll; _ } -> Printf.sprintf "in %s at %s" coll site
    | In_barrier site -> Printf.sprintf "at barrier (%s)" site
    | Joining -> "joining its parallel region"
    | In_critical { name; site } ->
        Printf.sprintf "waiting for critical(%s) at %s" name site
    | In_recv { src; tag; site; _ } ->
        Printf.sprintf "in MPI_Recv(src=%s, tag=%d) at %s"
          (if src < 0 then "ANY" else string_of_int src)
          tag site
    | In_wait { rid; site } ->
        Printf.sprintf "in MPI_Wait(request #%d) at %s" rid site
    | Running -> "(runnable)"
    | Done -> "(finished)"
  in
  Printf.sprintf "rank %d thread %d %s" t.rank t.tid where

let level_rank (l : Mpisim.Thread_level.t) =
  match l with
  | Mpisim.Thread_level.Single -> 0
  | Mpisim.Thread_level.Funneled -> 1
  | Mpisim.Thread_level.Serialized -> 2
  | Mpisim.Thread_level.Multiple -> 3

(* No team: one thread; inside a single/master/section body: one thread
   at a time; anywhere else in a team: full threading. *)
let check_level w t site =
  let required =
    match t.team with
    | None -> Mpisim.Thread_level.Single
    | Some _ ->
        if t.single_depth > 0 then Mpisim.Thread_level.Serialized
        else Mpisim.Thread_level.Multiple
  in
  let provided = w.config.Sim.thread_level in
  if level_rank provided < level_rank required then
    raise
      (Stop
         (Sim.Fault
            (Sim.Level_violation { rank = t.rank; site; required; provided })))

(* ------------------------------------------------------------------ *)
(* Collectives                                                          *)
(* ------------------------------------------------------------------ *)

let coll_name (k : Mpisim.Coll.kind) =
  match k with
  | Mpisim.Coll.Barrier -> "MPI_Barrier"
  | Mpisim.Coll.Bcast -> "MPI_Bcast"
  | Mpisim.Coll.Reduce -> "MPI_Reduce"
  | Mpisim.Coll.Allreduce -> "MPI_Allreduce"
  | Mpisim.Coll.Gather -> "MPI_Gather"
  | Mpisim.Coll.Scatter -> "MPI_Scatter"
  | Mpisim.Coll.Allgather -> "MPI_Allgather"
  | Mpisim.Coll.Alltoall -> "MPI_Alltoall"
  | Mpisim.Coll.Scan -> "MPI_Scan"
  | Mpisim.Coll.Reduce_scatter -> "MPI_Reduce_scatter"
  | Mpisim.Coll.Cc_check -> "PARCOACH_CC"

let call kind ?op ?root ~payload site =
  { Mpisim.Coll.kind; op; root; payload; site }

let same_signature (a : Mpisim.Coll.call) (b : Mpisim.Coll.call) =
  a.Mpisim.Coll.kind = b.Mpisim.Coll.kind
  && a.Mpisim.Coll.op = b.Mpisim.Coll.op
  && a.Mpisim.Coll.root = b.Mpisim.Coll.root

(* What [rank] receives, given every rank's payload in rank order. *)
let result (c : Mpisim.Coll.call) ~rank (payloads : int list) =
  let op = match c.Mpisim.Coll.op with Some o -> ast_op o | None -> Ast.Rsum in
  let fold op l = List.fold_left (reduce op) (List.hd l) (List.tl l) in
  let upto = List.filteri (fun r _ -> r <= rank) payloads in
  let at_root f =
    match c.Mpisim.Coll.root with Some r when r = rank -> f () | _ -> 0
  in
  let root_payload () =
    match c.Mpisim.Coll.root with Some r -> List.nth payloads r | None -> 0
  in
  match c.Mpisim.Coll.kind with
  | Mpisim.Coll.Barrier | Mpisim.Coll.Cc_check -> 0
  | Mpisim.Coll.Bcast -> root_payload ()
  | Mpisim.Coll.Reduce -> at_root (fun () -> fold op payloads)
  | Mpisim.Coll.Allreduce -> fold op payloads
  | Mpisim.Coll.Gather -> at_root (fun () -> fold Ast.Rsum payloads)
  | Mpisim.Coll.Scatter -> (
      match c.Mpisim.Coll.root with Some _ -> root_payload () + rank | None -> 0)
  | Mpisim.Coll.Allgather -> fold Ast.Rsum payloads
  | Mpisim.Coll.Alltoall -> fold Ast.Rsum payloads + rank
  | Mpisim.Coll.Scan | Mpisim.Coll.Reduce_scatter -> fold op upto

(* One call per rank, sorted by rank: the round's participants. *)
let rank_calls entries =
  List.sort
    (fun (a : Mpisim.Engine.rank_call) b -> compare a.rank b.rank)
    (List.map
       (fun (t, c) -> { Mpisim.Engine.rank = t.rank; cookie = t.id; call = c })
       entries)

let results_of (calls : Mpisim.Engine.rank_call list) =
  let model = (List.hd calls).Mpisim.Engine.call in
  let payloads =
    List.map (fun (rc : Mpisim.Engine.rank_call) -> rc.call.Mpisim.Coll.payload) calls
  in
  Array.of_list
    (List.map
       (fun (rc : Mpisim.Engine.rank_call) -> result model ~rank:rc.rank payloads)
       calls)

let all_agree (calls : Mpisim.Engine.rank_call list) =
  let first = (List.hd calls).Mpisim.Engine.call in
  List.for_all
    (fun (rc : Mpisim.Engine.rank_call) -> same_signature first rc.call)
    calls

(* A blocking collective (or CC check): one in flight per rank; when the
   last rank arrives the calls are matched and everyone is released. *)
let arrive w t (c : Mpisim.Coll.call) into =
  (match List.find_opt (fun (u, _) -> u.rank = t.rank) w.arrivals with
  | Some (_, prev) ->
      let error =
        Sim.Concurrent_collective
          { rank = t.rank; site1 = prev.Mpisim.Coll.site; site2 = c.Mpisim.Coll.site }
      in
      (* A CC check on either side caught the race before two real
         collectives met: a clean stop.  Otherwise the library saw it. *)
      if
        c.Mpisim.Coll.kind = Mpisim.Coll.Cc_check
        || prev.Mpisim.Coll.kind = Mpisim.Coll.Cc_check
      then raise (Stop (Sim.Aborted error))
      else raise (Stop (Sim.Fault error))
  | None -> ());
  w.arrivals <- w.arrivals @ [ (t, c) ];
  t.state <-
    In_collective { site = c.Mpisim.Coll.site; coll = coll_name c.Mpisim.Coll.kind; into };
  if List.length w.arrivals = w.config.Sim.nranks then begin
    let entries = w.arrivals in
    w.arrivals <- [];
    let calls = rank_calls entries in
    if not (all_agree calls) then raise (Stop (Sim.Fault (Sim.Mismatch calls)));
    let first = (List.hd calls).Mpisim.Engine.call in
    if
      first.Mpisim.Coll.kind = Mpisim.Coll.Cc_check
      && List.exists
           (fun (rc : Mpisim.Engine.rank_call) ->
             rc.call.Mpisim.Coll.payload <> first.Mpisim.Coll.payload)
           calls
    then raise (Stop (Sim.Aborted (Sim.Cc_divergence calls)));
    let results = results_of calls in
    List.iter
      (fun (u, _) ->
        (match u.state with
        | In_collective { into = Some r; _ } -> r := results.(u.rank)
        | _ -> ());
        u.state <- Running)
      entries
  end

(* ------------------------------------------------------------------ *)
(* OpenMP synchronisation                                               *)
(* ------------------------------------------------------------------ *)

let barrier t team site =
  if List.length team.at_barrier + 1 < team.size then begin
    team.at_barrier <- t :: team.at_barrier;
    t.state <- In_barrier site
  end
  else begin
    List.iter (fun u -> u.state <- Running) team.at_barrier;
    team.at_barrier <- []
  end

let lock_of w rank name =
  match List.assoc_opt (rank, name) w.locks with
  | Some l -> l
  | None ->
      let l = { holder = None; queue = [] } in
      w.locks <- ((rank, name), l) :: w.locks;
      l

let acquire w t name site =
  let l = lock_of w t.rank name in
  match l.holder with
  | None -> l.holder <- Some t.id
  | Some _ ->
      l.queue <- l.queue @ [ t ];
      t.state <- In_critical { name; site }

let release w t name =
  let l = lock_of w t.rank name in
  match l.queue with
  | [] -> l.holder <- None
  | next :: rest ->
      l.queue <- rest;
      l.holder <- Some next.id;
      next.state <- Running

let finish t =
  t.state <- Done;
  match t.team with
  | None -> ()
  | Some team ->
      team.members_done <- team.members_done + 1;
      if team.members_done = team.size then team.forker.state <- Running

(* ------------------------------------------------------------------ *)
(* Point-to-point and requests                                          *)
(* ------------------------------------------------------------------ *)

let record w v = if not (List.mem v w.lifecycle) then w.lifecycle <- v :: w.lifecycle

(* Oldest message in [dst]'s inbox from [src] (any source when [-1])
   with [tag]; removed when found. *)
let take w ~dst ~src ~tag =
  let matches (d, m) = d = dst && (src = -1 || m.from = src) && m.mtag = tag in
  match List.find_opt matches w.inboxes with
  | None -> None
  | Some ((_, m) as found) ->
      w.inboxes <- List.filter (fun x -> x != found) w.inboxes;
      Some m.value

let completable w r =
  match r.kind with
  | Eager_send -> Some None
  | Round k ->
      let ndone = List.length w.rounds in
      if k < ndone then Some (Some (List.nth w.rounds (ndone - 1 - k)).(r.owner))
      else None
  | Pull { src; tag } -> (
      match take w ~dst:r.owner ~src ~tag with
      | Some v -> Some (Some v)
      | None -> None)

(* Complete [r] if its operation allows it, writing the destination
   buffer now (at completion, never at the start). *)
let try_complete w r =
  match completable w r with
  | None -> false
  | Some value ->
      (match (value, r.target) with
      | Some v, Some cell -> cell := v
      | _ -> ());
      r.target <- None;
      r.complete <- true;
      true

let request_of w t site rid =
  match List.find_opt (fun r -> r.owner = t.rank && r.rid = rid) w.requests with
  | Some r -> r
  | None -> fail t.rank site "invalid request value %d" rid

let new_request w t ~site kind target =
  let rid = List.length (List.filter (fun r -> r.owner = t.rank) w.requests) in
  w.requests <-
    w.requests
    @ [ { rid; owner = t.rank; kind; start_site = site; complete = false; target } ];
  rid

let wake_waiters w =
  List.iter
    (fun u ->
      match u.state with
      | In_wait { rid; site } -> (
          match
            List.find_opt (fun r -> r.owner = u.rank && r.rid = rid) w.requests
          with
          | None -> ()
          | Some r ->
              if r.complete then begin
                record w
                  (Sim.Double_wait
                     { rank = u.rank; site; start_site = r.start_site });
                u.state <- Running
              end
              else if try_complete w r then u.state <- Running)
      | _ -> ())
    w.tasks

let send w t ~value ~dst ~tag ~site =
  if dst < 0 || dst >= w.config.Sim.nranks then
    fail t.rank site "send destination %d out of range" dst;
  w.inboxes <- w.inboxes @ [ (dst, { from = t.rank; mtag = tag; value }) ];
  List.iter
    (fun u ->
      match u.state with
      | In_recv { src; tag; into; _ } when u.rank = dst -> (
          match take w ~dst ~src ~tag with
          | Some v ->
              into := v;
              u.state <- Running
          | None -> ())
      | _ -> ())
    w.tasks;
  if w.requests <> [] then wake_waiters w

let check_source w t site src =
  if src <> -1 && (src < 0 || src >= w.config.Sim.nranks) then
    fail t.rank site "receive source %d out of range" src

(* Nonblocking collectives match round-wise: a rank's k-th post joins
   round k.  Rounds every rank has posted complete in order. *)
let post w t c =
  let mine = List.filter (fun (u, _) -> u.rank = t.rank) w.posts in
  let round = List.length w.rounds + List.length mine in
  w.posts <- w.posts @ [ (t, c) ];
  round

let rec drain w ~completed =
  let heads =
    List.filter_map
      (fun rank -> List.find_opt (fun (u, _) -> u.rank = rank) w.posts)
      (List.init w.config.Sim.nranks Fun.id)
  in
  if List.length heads < w.config.Sim.nranks then begin
    if completed then wake_waiters w
  end
  else begin
    w.posts <- List.filter (fun p -> not (List.memq p heads)) w.posts;
    let calls = rank_calls heads in
    if not (all_agree calls) then raise (Stop (Sim.Fault (Sim.Mismatch calls)));
    w.rounds <- results_of calls :: w.rounds;
    drain w ~completed:true
  end

(* ------------------------------------------------------------------ *)
(* Statements                                                           *)
(* ------------------------------------------------------------------ *)

let site_of (s : Ast.stmt) = Loc.to_string s.Ast.sloc

let single_body t body env ~team ~nowait =
  push t [ Enter_single; Seq (body, env); Exit_single { team; nowait } ]

let next_instance t stmt =
  let n = match List.assq_opt stmt t.seen with Some n -> n | None -> 0 in
  t.seen <- (stmt, n + 1) :: List.filter (fun (s, _) -> s != stmt) t.seen;
  n

(* Static schedule: contiguous chunks, the first [total mod n] threads
   one iteration longer. *)
let chunk ~lo ~hi ~tid ~nthreads =
  let total = max 0 (hi - lo) in
  let size k = (total / nthreads) + if k < total mod nthreads then 1 else 0 in
  let start = lo + List.fold_left ( + ) 0 (List.init tid size) in
  (start, start + size tid)

let collective_call w t env site (c : Ast.collective) =
  let ev = eval w t env site in
  let rooted r =
    let v = ev r in
    if v < 0 || v >= w.config.Sim.nranks then
      fail t.rank site "collective root %d out of range" v
    else v
  in
  (* The payload is evaluated before the root. *)
  let with_root kind ?op r value =
    let payload = ev value in
    call kind ?op ~root:(rooted r) ~payload site
  in
  match c with
  | Ast.Barrier -> call Mpisim.Coll.Barrier ~payload:0 site
  | Ast.Bcast { root; value } -> with_root Mpisim.Coll.Bcast root value
  | Ast.Reduce { op; root; value } ->
      with_root Mpisim.Coll.Reduce ~op:(mpi_op op) root value
  | Ast.Allreduce { op; value } ->
      call Mpisim.Coll.Allreduce ~op:(mpi_op op) ~payload:(ev value) site
  | Ast.Gather { root; value } -> with_root Mpisim.Coll.Gather root value
  | Ast.Scatter { root; value } -> with_root Mpisim.Coll.Scatter root value
  | Ast.Allgather { value } -> call Mpisim.Coll.Allgather ~payload:(ev value) site
  | Ast.Alltoall { value } -> call Mpisim.Coll.Alltoall ~payload:(ev value) site
  | Ast.Scan { op; value } ->
      call Mpisim.Coll.Scan ~op:(mpi_op op) ~payload:(ev value) site
  | Ast.Reduce_scatter { op; value } ->
      call Mpisim.Coll.Reduce_scatter ~op:(mpi_op op) ~payload:(ev value) site

let check w t site (c : Ast.check) =
  match c with
  | Ast.Cc_next_collective { color; coll_name } ->
      arrive w t
        (call Mpisim.Coll.Cc_check ~payload:color
           (Printf.sprintf "%s (next: %s)" site coll_name))
        None
  | Ast.Cc_return ->
      arrive w t
        (call Mpisim.Coll.Cc_check ~payload:Ast.cc_return_color
           (Printf.sprintf "%s (function exit)" site))
        None
  | Ast.Assert_monothread _ ->
      if team_size t > 1 && t.single_depth = 0 then
        raise
          (Stop (Sim.Aborted (Sim.Multithreaded_region { rank = t.rank; site })))
  | Ast.Count_enter { region } ->
      let key = (t.rank, region) in
      let n = 1 + Option.value ~default:0 (List.assoc_opt key w.counters) in
      w.counters <- (key, n) :: List.remove_assoc key w.counters;
      if n > 1 then
        raise
          (Stop
             (Sim.Aborted (Sim.Concurrent_region { rank = t.rank; region; site })))
  | Ast.Count_exit { region } ->
      let key = (t.rank, region) in
      let n = Option.value ~default:0 (List.assoc_opt key w.counters) in
      w.counters <- (key, max 0 (n - 1)) :: List.remove_assoc key w.counters

(* The posting half of a split-phase operation; returns the request id. *)
let istart w t env site (rop : Ast.request_op) =
  let ev = eval w t env site in
  check_level w t site;
  match rop with
  | Ast.Ibarrier ->
      let round = post w t (call Mpisim.Coll.Barrier ~payload:0 site) in
      let rid = new_request w t ~site (Round round) None in
      drain w ~completed:false;
      rid
  | Ast.Iallreduce { op; target; value } ->
      let payload = ev value in
      let into = cell t site target env in
      let round =
        post w t (call Mpisim.Coll.Allreduce ~op:(mpi_op op) ~payload site)
      in
      let rid = new_request w t ~site (Round round) (Some into) in
      drain w ~completed:false;
      rid
  | Ast.Isend { value; dest; tag } ->
      let value = ev value in
      let dst = ev dest in
      let tag = ev tag in
      send w t ~value ~dst ~tag ~site;
      new_request w t ~site Eager_send None
  | Ast.Irecv { target; src; tag } ->
      let src = ev src in
      let tag = ev tag in
      check_source w t site src;
      let into = cell t site target env in
      new_request w t ~site (Pull { src; tag }) (Some into)

let exec w t (s : Ast.stmt) env =
  let site = site_of s in
  let ev = eval w t env site in
  match s.Ast.sdesc with
  | Ast.Decl _ | Ast.Istart _ -> assert false (* bind; see [step] *)
  | Ast.Assign (x, e) ->
      let v = ev e in
      cell t site x env := v
  | Ast.If (c, yes, no) -> push t [ Seq ((if ev c <> 0 then yes else no), env) ]
  | Ast.While (c, body) -> push t [ Loop_while (c, body, env) ]
  | Ast.For (var, lo, hi, body) ->
      let next = ev lo in
      let stop = ev hi in
      push t [ Loop_for { var; next; stop; body; env } ]
  | Ast.Return ->
      let rec unwind = function
        | [] -> []
        | Return_mark :: rest -> rest
        | _ :: rest -> unwind rest
      in
      t.stack <- unwind t.stack
  | Ast.Call (name, args) -> (
      match List.find_opt (fun (f : Ast.func) -> f.Ast.fname = name) w.program.Ast.funcs with
      | None -> fail t.rank site "undefined function '%s'" name
      | Some f ->
          if List.length f.Ast.params <> List.length args then
            fail t.rank site "arity mismatch calling '%s'" name;
          let callee_env =
            List.fold_left2 (fun acc p a -> (p, ref (ev a)) :: acc) [] f.Ast.params args
          in
          push t [ Seq (f.Ast.body, callee_env); Return_mark ])
  | Ast.Compute e -> ignore (ev e)
  | Ast.Print e ->
      let v = ev e in
      if w.config.Sim.record_trace then w.trace <- (t.rank, t.tid, v) :: w.trace
  | Ast.Coll (target, c) ->
      check_level w t site;
      let c = collective_call w t env site c in
      let into = Option.map (fun x -> cell t site x env) target in
      arrive w t c into
  | Ast.Check c -> check w t site c
  | Ast.Send { value; dest; tag } ->
      check_level w t site;
      let value = ev value in
      let dst = ev dest in
      let tag = ev tag in
      send w t ~value ~dst ~tag ~site
  | Ast.Recv { target; src; tag } -> (
      check_level w t site;
      let src = ev src in
      let tag = ev tag in
      check_source w t site src;
      let into = cell t site target env in
      match take w ~dst:t.rank ~src ~tag with
      | Some v -> into := v
      | None -> t.state <- In_recv { src; tag; site; into })
  | Ast.Wait { req } ->
      let r = request_of w t site !(cell t site req env) in
      if r.complete then
        record w
          (Sim.Double_wait { rank = t.rank; site; start_site = r.start_site })
      else if not (try_complete w r) then
        t.state <- In_wait { rid = r.rid; site }
  | Ast.Test { target; req } ->
      let r = request_of w t site !(cell t site req env) in
      let flag =
        if r.complete then begin
          record w
            (Sim.Double_wait { rank = t.rank; site; start_site = r.start_site });
          1
        end
        else if try_complete w r then 1
        else 0
      in
      cell t site target env := flag
  | Ast.Omp_parallel { num_threads; body } ->
      let n =
        match num_threads with
        | None -> w.config.Sim.default_nthreads
        | Some e -> ev e
      in
      if n <= 0 then fail t.rank site "num_threads(%d) must be positive" n;
      let team =
        { size = n; forker = t; at_barrier = []; claimed = []; members_done = 0 }
      in
      for tid = 0 to n - 1 do
        ignore
          (spawn w ~rank:t.rank ~tid ~team:(Some team) ~stack:[ Seq (body, env) ])
      done;
      t.state <- Joining
  | Ast.Omp_single { nowait; body } -> (
      match t.team with
      | None -> single_body t body env ~team:None ~nowait:true
      | Some team ->
          let key = (s, next_instance t s) in
          if List.exists (fun (s', k) -> s' == s && k = snd key) team.claimed
          then (if not nowait then barrier t team site)
          else begin
            team.claimed <- key :: team.claimed;
            single_body t body env ~team:(Some team) ~nowait
          end)
  | Ast.Omp_master body ->
      let executes = match t.team with None -> true | Some _ -> t.tid = 0 in
      if executes then single_body t body env ~team:None ~nowait:true
  | Ast.Omp_critical (name, body) ->
      let name = Option.value name ~default:"<anonymous>" in
      push t [ Seq (body, env); Release_critical name ];
      acquire w t name site
  | Ast.Omp_barrier -> (
      match t.team with None -> () | Some team -> barrier t team site)
  | Ast.Omp_for { var; lo; hi; nowait; reduction; body } ->
      let lo = ev lo in
      let hi = ev hi in
      let next, stop =
        match t.team with
        | None -> (lo, hi)
        | Some team -> chunk ~lo ~hi ~tid:t.tid ~nthreads:team.size
      in
      let env, combine =
        match reduction with
        | None -> (env, [])
        | Some (op, x) ->
            let shared =
              match List.assoc_opt x env with
              | Some c -> c
              | None -> fail t.rank site "unbound reduction variable '%s'" x
            in
            let private_ = ref (neutral op) in
            ((x, private_) :: env, [ Combine { op; shared; private_ } ])
      in
      push t
        ((Loop_for { var; next; stop; body; env } :: combine)
        @ [ Exit_worksharing { team = t.team; nowait } ])
  | Ast.Omp_sections { nowait; sections } ->
      let mine =
        List.filteri
          (fun i _ ->
            match t.team with None -> true | Some team -> i mod team.size = t.tid)
          sections
      in
      push t
        (List.concat_map
           (fun sec ->
             [ Enter_single; Seq (sec, env); Exit_single { team = None; nowait = true } ])
           mine
        @ [ Exit_worksharing { team = t.team; nowait } ])

let step w t =
  match t.stack with
  | [] -> finish t
  | Seq ([], _) :: _ -> pop t
  | Seq (s :: rest, env) :: below -> (
      let site = site_of s in
      match s.Ast.sdesc with
      | Ast.Decl (x, e) ->
          let v = eval w t env site e in
          t.stack <- Seq (rest, (x, ref v) :: env) :: below
      | Ast.Istart { req; rop } ->
          let rid = istart w t env site rop in
          t.stack <- Seq (rest, (req, ref rid) :: env) :: below
      | _ ->
          t.stack <- Seq (rest, env) :: below;
          exec w t s env)
  | Loop_while (c, body, env) :: _ ->
      if eval w t env "<while>" c <> 0 then push t [ Seq (body, env) ] else pop t
  | Loop_for f :: _ ->
      if f.next < f.stop then begin
        let env = (f.var, ref f.next) :: f.env in
        f.next <- f.next + 1;
        push t [ Seq (f.body, env) ]
      end
      else pop t
  | Return_mark :: _ -> pop t
  | Enter_single :: _ ->
      t.single_depth <- t.single_depth + 1;
      pop t
  | Exit_single { team; nowait } :: _ -> (
      t.single_depth <- max 0 (t.single_depth - 1);
      pop t;
      match team with
      | Some team when not nowait -> barrier t team "<end single>"
      | _ -> ())
  | Exit_worksharing { team; nowait } :: _ -> (
      pop t;
      match team with
      | Some team when not nowait -> barrier t team "<end worksharing>"
      | _ -> ())
  | Combine { op; shared; private_ } :: _ ->
      shared := reduce op !shared !private_;
      pop t
  | Release_critical name :: _ ->
      pop t;
      release w t name

(* ------------------------------------------------------------------ *)
(* Scheduler                                                            *)
(* ------------------------------------------------------------------ *)

type run = {
  outcome : Sim.outcome;
  trace : (int * int * int) list;
  steps : int;
  lifecycle : Sim.lifecycle list;
  degrees : int list;
}

let run ?(degree_depth = 64) ~(config : Sim.config) (program : Ast.program) =
  let entry =
    match
      List.find_opt
        (fun (f : Ast.func) -> f.Ast.fname = config.Sim.entry)
        program.Ast.funcs
    with
    | Some f -> f
    | None -> invalid_arg ("Simspec.run: no entry function " ^ config.Sim.entry)
  in
  if entry.Ast.params <> [] then
    invalid_arg "Simspec.run: the entry function must take no parameters";
  let w =
    {
      config;
      program;
      tasks = [];
      arrivals = [];
      posts = [];
      rounds = [];
      inboxes = [];
      locks = [];
      counters = [];
      requests = [];
      lifecycle = [];
      trace = [];
      steps = 0;
    }
  in
  for rank = 0 to config.Sim.nranks - 1 do
    ignore (spawn w ~rank ~tid:0 ~team:None ~stack:[ Seq (entry.Ast.body, []) ])
  done;
  let rng, script =
    match config.Sim.schedule with
    | `Random seed -> (Some (Random.State.make [| seed |]), [])
    | `Scripted l -> (None, l)
    | `Round_robin -> (None, [])
  in
  let script = ref script and cursor = ref 0 in
  let degrees = ref [] and ndegrees = ref 0 in
  let pick runnable =
    let n = List.length runnable in
    if !ndegrees < degree_depth then begin
      degrees := n :: !degrees;
      incr ndegrees
    end;
    let index =
      match (rng, !script) with
      | Some rng, _ -> Random.State.int rng n
      | None, c :: rest ->
          script := rest;
          ((c mod n) + n) mod n
      | None, [] ->
          incr cursor;
          (!cursor - 1) mod n
    in
    List.nth runnable index
  in
  let rec loop () =
    if w.steps >= config.Sim.max_steps then Sim.Step_limit
    else
      match List.filter is_running w.tasks with
      | [] ->
          if List.for_all is_done w.tasks then Sim.Finished
          else
            Sim.Deadlock
              (List.map describe
                 (List.filter (fun t -> not (is_done t)) w.tasks))
      | runnable ->
          let t = pick runnable in
          w.steps <- w.steps + 1;
          step w t;
          loop ()
  in
  let outcome = try loop () with Stop o -> o in
  if outcome = Sim.Finished then
    List.iter
      (fun r ->
        if not r.complete then
          record w (Sim.Leaked_request { rank = r.owner; site = r.start_site }))
      (List.stable_sort (fun a b -> compare a.owner b.owner) w.requests);
  {
    outcome;
    trace = List.rev w.trace;
    steps = w.steps;
    lifecycle = List.rev w.lifecycle;
    degrees = List.rev !degrees;
  }

(* ------------------------------------------------------------------ *)
(* Unpruned exploration                                                 *)
(* ------------------------------------------------------------------ *)

let class_name (o : Sim.outcome) =
  match o with
  | Sim.Finished -> "finished"
  | Sim.Aborted _ -> "aborted"
  | Sim.Fault _ -> "fault"
  | Sim.Deadlock _ -> "deadlock"
  | Sim.Step_limit -> "step-limit"

let explore ?(branch_depth = 8) ?(budget = 2000) ~(config : Sim.config) program =
  let counts = Hashtbl.create 5 and witnesses = ref [] and runs = ref 0 in
  let left = ref budget in
  let rec visit prefix =
    if !left > 0 then begin
      decr left;
      let r =
        run ~degree_depth:(branch_depth + 1)
          ~config:{ config with Sim.schedule = `Scripted prefix }
          program
      in
      let cls = class_name r.outcome in
      incr runs;
      Hashtbl.replace counts cls
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts cls));
      if not (List.mem_assoc cls !witnesses) then
        witnesses := (cls, prefix) :: !witnesses;
      let depth = List.length prefix in
      if depth < branch_depth && depth < List.length r.degrees then
        for c = 1 to List.nth r.degrees depth - 1 do
          visit (prefix @ [ c ])
        done
    end
  in
  visit [];
  let count cls = Option.value ~default:0 (Hashtbl.find_opt counts cls) in
  {
    Interp.Explore.finished = count "finished";
    aborted = count "aborted";
    faulted = count "fault";
    deadlocked = count "deadlock";
    step_limited = count "step-limit";
    runs = !runs;
    replays = !runs;
    pruned = 0;
    witnesses = List.rev !witnesses;
    dpor = None;
  }

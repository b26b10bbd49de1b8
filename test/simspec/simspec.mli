(** An executable specification of the hybrid MPI+OpenMP simulator, for
    differential testing only.

    It walks the AST directly and keeps every piece of runtime state in
    plain lists: variable environments, the collective rendezvous, the
    nonblocking rounds, the point-to-point inboxes, team barriers,
    critical locks, concurrency counters and request objects.  It shares
    the simulator's {e data types} ([Interp.Sim.config], [outcome],
    [lifecycle], [Interp.Explore.summary], [Mpisim.Coll.call],
    [Mpisim.Engine.rank_call]) so results compare with [=], but calls no
    function of [Interp.{Sim,Task,Compile,Explore}], [Mpisim.{Engine,
    Mailbox}] or [Ompsim]: a bug in the simulator's core or in those
    helpers is not reproduced here, so a differential property sees it.

    Contract shared with [Interp.Sim.run]: one scheduling step executes
    the same small unit of work (one statement, one loop test, one
    continuation marker, or a task's final step), the runnable tasks are
    listed in spawn order, and a scripted choice [c] picks runnable task
    [((c mod n) + n) mod n], round-robin after the script runs out.
    There are no probes, fingerprints, race oracle or DPOR footprints,
    and no use-before-completion ([Stale_read]) detection. *)

type run = {
  outcome : Interp.Sim.outcome;
  trace : (int * int * int) list;
      (** [print] events (rank, tid, value) in execution order; empty
          when [config.record_trace] is off. *)
  steps : int;
  lifecycle : Interp.Sim.lifecycle list;
      (** Leaked requests and double completions, in discovery order. *)
  degrees : int list;
      (** Runnable-task counts at the first [degree_depth] steps. *)
}

(** Run [program] (already validated) under [config].  [degree_depth]
    (default 64) bounds how many branching degrees are recorded.
    @raise Invalid_argument if the entry function is missing or takes
    parameters. *)
val run :
  ?degree_depth:int -> config:Interp.Sim.config -> Minilang.Ast.program -> run

(** Class name of an outcome: "finished", "aborted", "fault", "deadlock"
    or "step-limit". *)
val class_name : Interp.Sim.outcome -> string

(** Unpruned sequential depth-first enumeration of the scheduler's
    choices at the first [branch_depth] steps, one run per schedule
    ([replays = runs], [pruned = 0]); [budget] bounds the runs.
    Witnesses are the first script seen per class, in observation
    order.  [config.schedule] is ignored. *)
val explore :
  ?branch_depth:int ->
  ?budget:int ->
  config:Interp.Sim.config ->
  Minilang.Ast.program ->
  Interp.Explore.summary

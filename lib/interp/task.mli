(** Tasks: one per MPI rank initially, plus one per thread forked at each
    [parallel] construct.  A task carries a continuation stack over the
    compiled program form ({!Compile}); the scheduler advances one task by
    one small step at a time, which makes thread interleavings (and the
    bugs that depend on them) schedulable and reproducible. *)

(** Continuations over compiled blocks: a [CKseq] is a program counter
    into a statement array (advancing allocates nothing); loops carry
    their pre-compiled bodies, pre-hashed names/operators and the scope
    descriptor their state fingerprint folds over. *)
type ckont =
  | CKseq of { code : Compile.cblock; mutable pc : int; frame : Compile.frame }
  | CKwhile of {
      cond : Compile.exprc;
      chash : int;
      scope : Compile.scope;
      cacc : Compile.access array;
      wsite : string;  (** The while statement's source site. *)
      body : Compile.cblock;
      frame : Compile.frame;
    }
  | CKfor of {
      slot : int;
      vhash : int;
      mutable current : int;
      stop : int;
      scope : Compile.scope;
      body : Compile.cblock;
      frame : Compile.frame;
    }  (** Counted loop; also used for a thread's chunk of an [omp for]. *)
  | CKcall_return  (** Function frame marker popped by [return]. *)
  | CKenter_single
      (** Increment the single-nesting depth (executor entering a
          [single]/[master] body or a [section]). *)
  | CKexit_single of { team : Ompsim.Team.t option; nowait : bool }
      (** Decrement the depth; with a team and not [nowait], take part in
          the construct's implicit barrier. *)
  | CKexit_ws of { team : Ompsim.Team.t option; nowait : bool }
      (** End of a worksharing construct ([for]/[sections]): implicit
          barrier unless [nowait]. *)
  | CKcritical_end of { name : string; nhash : int }
      (** Release the named critical lock. *)
  | CKreduce_combine of {
      op : Minilang.Ast.reduce_op;
      ophash : int;
      shared : Compile.loc;
      private_ : Compile.loc;
    }
      (** End of a thread's chunk of a [reduction] worksharing loop:
          fold the private accumulator into the shared variable. *)

type block_reason =
  | At_collective of { site : string; coll : string }
  | At_barrier of { site : string }
  | At_join
  | At_critical of { name : string; site : string }
  | At_recv of { src : int; tag : int; site : string }
  | At_wait of { rid : int; site : string }
      (** [MPI_Wait] on a request not yet completable. *)

type status = Runnable | Blocked of block_reason | Finished

type t = {
  id : int;  (** Cookie used by the engine, barriers and locks. *)
  rank : int;
  tid : int;
  team : Ompsim.Team.t option;
  mutable konts : ckont list;
  mutable status : status;
  mutable single_depth : int;
  mutable wait_cell : Compile.loc option;
  encounters : (int, int) Hashtbl.t;
}

val make :
  id:int ->
  rank:int ->
  tid:int ->
  team:Ompsim.Team.t option ->
  konts:ckont list ->
  t

(** Next dynamic instance index of construct [uid] for this task. *)
val next_instance : t -> int -> int

val team_size : t -> int

val is_runnable : t -> bool

(** Hash of the scheduling status (fingerprint ingredient). *)
val status_hash : status -> int

(** Order-insensitive hash of the per-construct instance counters
    (fingerprint ingredient): commutative over entries, so schedules that
    filled the table in different orders but reached the same counts hash
    alike. *)
val encounters_hash : t -> int

val describe : t -> string

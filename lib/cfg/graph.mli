(** Control-flow graphs for mini-language functions.  OpenMP directives
    occupy their own [Omp_begin]/[Omp_end] nodes and implicit thread
    barriers get dedicated [Barrier_node]s (as in the paper's front end);
    MPI collectives are isolated in [Collective] nodes.  Region
    identifiers are the node ids of the [Omp_begin] nodes.

    Adjacency is packed: edges append in O(1) to dynamic buffers during
    construction, and the first query after a mutation {!freeze}s the
    graph into immutable CSR int arrays consumed by every analysis.
    Mutating a frozen graph is allowed and simply invalidates the packed
    form (it is rebuilt on the next query). *)

type region_kind =
  | Rparallel
  | Rsingle of { nowait : bool }
  | Rmaster
  | Rcritical of string option
  | Rfor of { nowait : bool }
  | Rsections of { nowait : bool }
  | Rsection  (** One branch of a [sections] construct. *)

val region_kind_name : region_kind -> string

type kind =
  | Entry
  | Exit
  | Simple of Minilang.Ast.stmt list
      (** Straight-line statements (decls, assignments, compute, print). *)
  | Cond of { expr : Minilang.Ast.expr; stmt : Minilang.Ast.stmt }
      (** Two successors, in order: true branch then false branch. *)
  | Collective of {
      target : string option;
      coll : Minilang.Ast.collective;
      stmt : Minilang.Ast.stmt;
    }
  | Call_site of {
      fname : string;
      args : Minilang.Ast.expr list;
      stmt : Minilang.Ast.stmt;
    }
  | Return_site of { stmt : Minilang.Ast.stmt }
  | Omp_begin of { kind : region_kind; stmt : Minilang.Ast.stmt }
  | Omp_end of { kind : region_kind; region : int; stmt : Minilang.Ast.stmt }
      (** [region] is the id of the matching [Omp_begin] node. *)
  | Barrier_node of { implicit : bool; loc : Minilang.Loc.t }
  | Check_site of { check : Minilang.Ast.check; stmt : Minilang.Ast.stmt }

type node = { id : int; kind : kind }

(** Construction-time dynamic adjacency buffer (internal). *)
type adj

(** Frozen CSR adjacency (internal; see {!freeze}). *)
type csr

type t = {
  fname : string;
  mutable nodes : node array;
  mutable succ_adj : adj array;
  mutable pred_adj : adj array;
  mutable count : int;
  entry : int;
  exit : int;
  mutable csr : csr option;
  edges : (int, unit) Hashtbl.t;
}

val entry_id : int

val exit_id : int

val nb_nodes : t -> int

(** @raise Invalid_argument on a bad id. *)
val node : t -> int -> node

val kind : t -> int -> kind

(** Successor ids in insertion order (significant for [Cond]: true branch
    first).  Allocates; hot paths should prefer {!iter_succs} and
    friends. *)
val succs : t -> int -> int list

val preds : t -> int -> int list

val iter_succs : t -> int -> (int -> unit) -> unit

val iter_preds : t -> int -> (int -> unit) -> unit

val fold_succs : t -> int -> ('a -> int -> 'a) -> 'a -> 'a

val fold_preds : t -> int -> ('a -> int -> 'a) -> 'a -> 'a

val out_degree : t -> int -> int

val in_degree : t -> int -> int

(** [nth_succ g id k] is the [k]-th successor of [id] (0-based, insertion
    order); bounds are the caller's responsibility via {!out_degree}. *)
val nth_succ : t -> int -> int -> int

val nth_pred : t -> int -> int -> int

val iter_nodes : t -> (node -> unit) -> unit

val fold_nodes : t -> ('a -> node -> 'a) -> 'a -> 'a

(** Node ids whose kind satisfies the predicate, in id order. *)
val filter_nodes : t -> (kind -> bool) -> int list

val create : string -> t

val add_node : t -> kind -> int

(** O(1) amortised append; parallel edges are kept. *)
val add_edge : t -> int -> int -> unit

(** O(1) hashed edge-membership test. *)
val has_edge : t -> int -> int -> bool

(** Pack the adjacency into immutable CSR arrays.  Idempotent; every
    adjacency query freezes implicitly, so calling this is only needed to
    control {e when} the packing cost is paid. *)
val freeze : t -> unit

val is_frozen : t -> bool

(** Source location a node can be reported at. *)
val node_loc : t -> int -> Minilang.Loc.t

(** [map_stmts ~stmt ~loc g] is a copy of [g] whose nodes reference
    [stmt s] in place of each AST statement [s] and [loc l] in place of
    each barrier location [l]: the same graph over a structurally equal
    copy of the function.  Adjacency is shared with [g], so neither graph
    may gain nodes or edges afterwards. *)
val map_stmts :
  stmt:(Minilang.Ast.stmt -> Minilang.Ast.stmt) ->
  loc:(Minilang.Loc.t -> Minilang.Loc.t) ->
  t ->
  t

(** Short label for DOT dumps and debugging. *)
val kind_label : t -> int -> string

(** Collective nodes, in id order. *)
val collective_nodes : t -> int list

(** [Omp_begin] node ids, i.e. the region identifiers. *)
val region_begin_nodes : t -> int list

(** The [Omp_end] matching region [r], if well-formed. *)
val region_end_node : t -> int -> int option

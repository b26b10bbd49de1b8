(** Graph traversals and orderings over {!Graph.t}, iterating the packed
    CSR adjacency with an explicit DFS stack. *)

(** Depth-first postorder of the nodes reachable from [root], following
    successors ([backward:false]) or predecessors ([backward:true]). *)
val postorder_array : Graph.t -> root:int -> backward:bool -> int array

(** Strongly connected components (one iterative Tarjan pass over every
    node): [comp.(id)] is the component number of [id]; two nodes share a
    number iff each reaches the other. *)
val scc : Graph.t -> int array

(** Reverse postorder from the entry, following successors. *)
val rpo_array : Graph.t -> int array

(** Reverse postorder on the edge-reversed graph, from the exit. *)
val rpo_backward_array : Graph.t -> int array

(** List version of {!postorder_array}. *)
val postorder : Graph.t -> root:int -> backward:bool -> int list

(** List version of {!rpo_array}. *)
val reverse_postorder : Graph.t -> int list

(** Reachability from the entry, indexed by node id. *)
val reachable : Graph.t -> bool array

(** BFS edge distance from the entry; [-1] if unreachable. *)
val bfs_distance : Graph.t -> int array

val path_exists : Graph.t -> int -> int -> bool

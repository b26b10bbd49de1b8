(** Graph traversals and orderings over {!Graph.t}, running on the packed
    CSR adjacency.  DFS is iterative (explicit stack), so pathological
    graphs — e.g. 10k-node chains — cannot overflow the OCaml stack. *)

open Graph

(** Depth-first postorder of the nodes reachable from [root], following
    successors ([backward:false]) or predecessors ([backward:true]). *)
let postorder_array g ~root ~backward =
  freeze g;
  let n = nb_nodes g in
  let deg, nth =
    if backward then (in_degree g, nth_pred g) else (out_degree g, nth_succ g)
  in
  let seen = Bytes.make n '\000' in
  let order = Array.make n 0 in
  let len = ref 0 in
  let stack_node = Array.make n 0 in
  let stack_edge = Array.make n 0 in
  let sp = ref 0 in
  let push id =
    Bytes.set seen id '\001';
    stack_node.(!sp) <- id;
    stack_edge.(!sp) <- 0;
    incr sp
  in
  push root;
  while !sp > 0 do
    let top = !sp - 1 in
    let id = stack_node.(top) in
    let k = stack_edge.(top) in
    if k < deg id then begin
      stack_edge.(top) <- k + 1;
      let next = nth id k in
      if Bytes.get seen next = '\000' then push next
    end
    else begin
      decr sp;
      order.(!len) <- id;
      incr len
    end
  done;
  Array.sub order 0 !len

(** Strongly connected components, by one iterative Tarjan pass over
    every node: [comp.(id)] is the component number of [id], and two
    nodes share a number iff each reaches the other. *)
let scc g =
  freeze g;
  let n = nb_nodes g in
  let index = Array.make n (-1) in
  let low = Array.make n 0 in
  let comp = Array.make n (-1) in
  let on_stack = Bytes.make n '\000' in
  (* Tarjan's stack of open nodes, and the DFS stack of (node, next
     edge) frames that replaces the recursion. *)
  let open_nodes = Array.make n 0 in
  let osp = ref 0 in
  let stack_node = Array.make n 0 in
  let stack_edge = Array.make n 0 in
  let sp = ref 0 in
  let next_index = ref 0 in
  let ncomp = ref 0 in
  let visit id =
    index.(id) <- !next_index;
    low.(id) <- !next_index;
    incr next_index;
    open_nodes.(!osp) <- id;
    incr osp;
    Bytes.set on_stack id '\001';
    stack_node.(!sp) <- id;
    stack_edge.(!sp) <- 0;
    incr sp
  in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      visit root;
      while !sp > 0 do
        let top = !sp - 1 in
        let id = stack_node.(top) in
        let k = stack_edge.(top) in
        if k < out_degree g id then begin
          stack_edge.(top) <- k + 1;
          let next = nth_succ g id k in
          if index.(next) < 0 then visit next
          else if Bytes.get on_stack next = '\001' then
            low.(id) <- min low.(id) index.(next)
        end
        else begin
          decr sp;
          if !sp > 0 then begin
            let parent = stack_node.(!sp - 1) in
            low.(parent) <- min low.(parent) low.(id)
          end;
          if low.(id) = index.(id) then begin
            let c = !ncomp in
            incr ncomp;
            let rec close () =
              decr osp;
              let w = open_nodes.(!osp) in
              Bytes.set on_stack w '\000';
              comp.(w) <- c;
              if w <> id then close ()
            in
            close ()
          end
        end
      done
    end
  done;
  comp

(** Reverse postorder from the entry node, as an array. *)
let rpo_array g =
  let po = postorder_array g ~root:g.entry ~backward:false in
  let n = Array.length po in
  Array.init n (fun i -> po.(n - 1 - i))

(** Reverse postorder on the edge-reversed graph, from the exit. *)
let rpo_backward_array g =
  let po = postorder_array g ~root:g.exit ~backward:true in
  let n = Array.length po in
  Array.init n (fun i -> po.(n - 1 - i))

(** List versions kept for convenience (and compatibility). *)
let postorder g ~root ~backward =
  Array.to_list (postorder_array g ~root ~backward)

let reverse_postorder g = Array.to_list (rpo_array g)

(** Nodes reachable from the entry. *)
let reachable g =
  freeze g;
  let n = nb_nodes g in
  let seen = Array.make n false in
  let stack = Array.make n 0 in
  let sp = ref 0 in
  seen.(g.entry) <- true;
  stack.(!sp) <- g.entry;
  incr sp;
  while !sp > 0 do
    decr sp;
    let id = stack.(!sp) in
    iter_succs g id (fun s ->
        if not seen.(s) then begin
          seen.(s) <- true;
          stack.(!sp) <- s;
          incr sp
        end)
  done;
  seen

(** Breadth-first distance (edge count) from the entry; [-1] if
    unreachable. *)
let bfs_distance g =
  let dist = Array.make (nb_nodes g) (-1) in
  let q = Queue.create () in
  dist.(g.entry) <- 0;
  Queue.add g.entry q;
  while not (Queue.is_empty q) do
    let id = Queue.pop q in
    iter_succs g id (fun s ->
        if dist.(s) < 0 then begin
          dist.(s) <- dist.(id) + 1;
          Queue.add s q
        end)
  done;
  dist

(** [path_exists g a b] tests reachability of [b] from [a] along
    successor edges. *)
let path_exists g a b =
  freeze g;
  let n = nb_nodes g in
  let seen = Array.make n false in
  let stack = Array.make n 0 in
  let sp = ref 0 in
  let found = ref (a = b) in
  seen.(a) <- true;
  stack.(!sp) <- a;
  incr sp;
  while (not !found) && !sp > 0 do
    decr sp;
    let id = stack.(!sp) in
    iter_succs g id (fun s ->
        if s = b then found := true
        else if not seen.(s) then begin
          seen.(s) <- true;
          stack.(!sp) <- s;
          incr sp
        end)
  done;
  !found

(** Control-flow graphs for mini-language functions.

    As in the paper, OpenMP directives occupy their own nodes ([Omp_begin]/
    [Omp_end]) and implicit thread barriers get dedicated [Barrier_node]s,
    so the parallelism-word computation can treat them uniformly.  MPI
    collective calls are highlighted in their own [Collective] nodes.

    Region identifiers are the node ids of the [Omp_begin] nodes, matching
    the paper's "[P_i], with [i] the id of the node with the OpenMP
    construct".

    Adjacency is packed: during construction each node carries a dynamic
    int buffer (O(1) amortised edge append), and the first query after a
    mutation freezes the graph into immutable CSR int arrays that every
    traversal and analysis then iterates over.  Edge membership is a
    hashed set, so [has_edge] is O(1) regardless of out-degree. *)

type region_kind =
  | Rparallel
  | Rsingle of { nowait : bool }
  | Rmaster
  | Rcritical of string option
  | Rfor of { nowait : bool }
  | Rsections of { nowait : bool }
  | Rsection  (** One branch of a [sections] construct. *)

let region_kind_name = function
  | Rparallel -> "parallel"
  | Rsingle _ -> "single"
  | Rmaster -> "master"
  | Rcritical _ -> "critical"
  | Rfor _ -> "for"
  | Rsections _ -> "sections"
  | Rsection -> "section"

type kind =
  | Entry
  | Exit
  | Simple of Minilang.Ast.stmt list
      (** Straight-line statements: declarations, assignments, [compute],
          [print]. *)
  | Cond of { expr : Minilang.Ast.expr; stmt : Minilang.Ast.stmt }
      (** Two successors, in order: the true branch then the false branch. *)
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

(* Dynamic append-only int buffer: the construction-time adjacency. *)
type adj = { mutable tgt : int array; mutable deg : int }

(* Frozen compressed-sparse-row adjacency.  [succ_tgt.(succ_off.(id)) ..
   succ_tgt.(succ_off.(id + 1) - 1)] are the successors of [id], in
   insertion order (significant for [Cond] nodes). *)
type csr = {
  succ_off : int array;
  succ_tgt : int array;
  pred_off : int array;
  pred_tgt : int array;
}

type t = {
  fname : string;
  mutable nodes : node array;
  mutable succ_adj : adj array;
  mutable pred_adj : adj array;
  mutable count : int;
  entry : int;
  exit : int;
  mutable csr : csr option;  (** Frozen adjacency; [None] while dirty. *)
  edges : (int, unit) Hashtbl.t;  (** Packed (src, dst) edge membership. *)
}

let entry_id = 0

let exit_id = 1

let nb_nodes g = g.count

let node g id =
  if id < 0 || id >= g.count then invalid_arg "Graph.node: bad id";
  g.nodes.(id)

let kind g id = (node g id).kind

(** Iterate over all node ids in increasing order. *)
let iter_nodes g f =
  for id = 0 to g.count - 1 do
    f g.nodes.(id)
  done

let fold_nodes g f acc =
  let acc = ref acc in
  iter_nodes g (fun n -> acc := f !acc n);
  !acc

(** All node ids whose kind satisfies [p]. *)
let filter_nodes g p =
  List.rev
    (fold_nodes g (fun acc n -> if p n.kind then n.id :: acc else acc) [])

let dummy_node = { id = -1; kind = Entry }

let empty_adj () = { tgt = [||]; deg = 0 }

let create fname =
  {
    fname;
    nodes = Array.make 16 dummy_node;
    succ_adj = Array.init 16 (fun _ -> empty_adj ());
    pred_adj = Array.init 16 (fun _ -> empty_adj ());
    count = 0;
    entry = 0;
    exit = 1;
    csr = None;
    edges = Hashtbl.create 64;
  }

let add_node g kind =
  if g.count = Array.length g.nodes then begin
    let cap = 2 * g.count in
    let bigger = Array.make cap dummy_node in
    Array.blit g.nodes 0 bigger 0 g.count;
    g.nodes <- bigger;
    let grow a =
      let b = Array.init cap (fun i -> if i < g.count then a.(i) else empty_adj ()) in
      b
    in
    g.succ_adj <- grow g.succ_adj;
    g.pred_adj <- grow g.pred_adj
  end;
  let id = g.count in
  g.nodes.(id) <- { id; kind };
  g.succ_adj.(id) <- empty_adj ();
  g.pred_adj.(id) <- empty_adj ();
  g.count <- g.count + 1;
  g.csr <- None;
  id

let adj_push a v =
  if a.deg = Array.length a.tgt then begin
    let bigger = Array.make (max 2 (2 * a.deg)) 0 in
    Array.blit a.tgt 0 bigger 0 a.deg;
    a.tgt <- bigger
  end;
  a.tgt.(a.deg) <- v;
  a.deg <- a.deg + 1

(* Node counts stay well below 2^31, so a packed pair fits an OCaml int. *)
let edge_key a b = (a lsl 31) lor b

(** O(1) amortised; parallel edges are kept (a [Cond] whose branches are
    both empty legitimately has two edges to the join). *)
let add_edge g a b =
  if a < 0 || a >= g.count || b < 0 || b >= g.count then
    invalid_arg "Graph.add_edge: bad id";
  adj_push g.succ_adj.(a) b;
  adj_push g.pred_adj.(b) a;
  Hashtbl.replace g.edges (edge_key a b) ();
  g.csr <- None

let has_edge g a b =
  ignore (node g a);
  Hashtbl.mem g.edges (edge_key a b)

(* ------------------------------------------------------------------ *)
(* Freezing and packed queries                                         *)
(* ------------------------------------------------------------------ *)

let build_csr g =
  let n = g.count in
  let pack adj =
    let off = Array.make (n + 1) 0 in
    for i = 0 to n - 1 do
      off.(i + 1) <- off.(i) + adj.(i).deg
    done;
    let tgt = Array.make off.(n) 0 in
    for i = 0 to n - 1 do
      Array.blit adj.(i).tgt 0 tgt off.(i) adj.(i).deg
    done;
    (off, tgt)
  in
  let succ_off, succ_tgt = pack g.succ_adj in
  let pred_off, pred_tgt = pack g.pred_adj in
  { succ_off; succ_tgt; pred_off; pred_tgt }

(** Pack the adjacency into CSR form.  Idempotent; implicitly re-run by
    the first query after a mutation ([add_node]/[add_edge]). *)
let freeze g = if g.csr = None then g.csr <- Some (build_csr g)

let is_frozen g = g.csr <> None

let csr g =
  match g.csr with
  | Some c -> c
  | None ->
      let c = build_csr g in
      g.csr <- Some c;
      c

let out_degree g id =
  ignore (node g id);
  g.succ_adj.(id).deg

let in_degree g id =
  ignore (node g id);
  g.pred_adj.(id).deg

let nth_succ g id k =
  let c = csr g in
  c.succ_tgt.(c.succ_off.(id) + k)

let nth_pred g id k =
  let c = csr g in
  c.pred_tgt.(c.pred_off.(id) + k)

let iter_succs g id f =
  let c = csr g in
  for k = c.succ_off.(id) to c.succ_off.(id + 1) - 1 do
    f c.succ_tgt.(k)
  done

let iter_preds g id f =
  let c = csr g in
  for k = c.pred_off.(id) to c.pred_off.(id + 1) - 1 do
    f c.pred_tgt.(k)
  done

let fold_succs g id f acc =
  let c = csr g in
  let acc = ref acc in
  for k = c.succ_off.(id) to c.succ_off.(id + 1) - 1 do
    acc := f !acc c.succ_tgt.(k)
  done;
  !acc

let fold_preds g id f acc =
  let c = csr g in
  let acc = ref acc in
  for k = c.pred_off.(id) to c.pred_off.(id + 1) - 1 do
    acc := f !acc c.pred_tgt.(k)
  done;
  !acc

let slice off tgt id =
  List.init (off.(id + 1) - off.(id)) (fun k -> tgt.(off.(id) + k))

let succs g id =
  ignore (node g id);
  let c = csr g in
  slice c.succ_off c.succ_tgt id

let preds g id =
  ignore (node g id);
  let c = csr g in
  slice c.pred_off c.pred_tgt id

(* ------------------------------------------------------------------ *)
(* Reporting helpers                                                   *)
(* ------------------------------------------------------------------ *)

(** Source location a node can be reported at. *)
let node_loc g id =
  let open Minilang in
  match kind g id with
  | Entry | Exit -> Loc.none
  | Simple [] -> Loc.none
  | Simple (s :: _) -> s.Ast.sloc
  | Cond { stmt; _ }
  | Collective { stmt; _ }
  | Call_site { stmt; _ }
  | Return_site { stmt }
  | Omp_begin { stmt; _ }
  | Omp_end { stmt; _ }
  | Check_site { stmt; _ } ->
      stmt.Ast.sloc
  | Barrier_node { loc; _ } -> loc

(* Kinds are immutable records: only the statement (and barrier
   location) fields change, adjacency and ids are shared. *)
let map_stmts ~stmt ~loc g =
  let kind = function
    | (Entry | Exit) as k -> k
    | Simple ss -> Simple (List.map stmt ss)
    | Cond c -> Cond { c with stmt = stmt c.stmt }
    | Collective c -> Collective { c with stmt = stmt c.stmt }
    | Call_site c -> Call_site { c with stmt = stmt c.stmt }
    | Return_site r -> Return_site { stmt = stmt r.stmt }
    | Omp_begin b -> Omp_begin { b with stmt = stmt b.stmt }
    | Omp_end e -> Omp_end { e with stmt = stmt e.stmt }
    | Barrier_node b -> Barrier_node { b with loc = loc b.loc }
    | Check_site c -> Check_site { c with stmt = stmt c.stmt }
  in
  let nodes = Array.copy g.nodes in
  for id = 0 to g.count - 1 do
    let n = nodes.(id) in
    nodes.(id) <- { n with kind = kind n.kind }
  done;
  { g with nodes }

let kind_label g id =
  let open Minilang in
  match kind g id with
  | Entry -> "entry"
  | Exit -> "exit"
  | Simple stmts -> Printf.sprintf "simple[%d]" (List.length stmts)
  | Cond { expr; _ } -> Printf.sprintf "cond(%s)" (Pretty.expr_to_string expr)
  | Collective { coll; _ } -> Ast.collective_name coll
  | Call_site { fname; _ } -> Printf.sprintf "call %s" fname
  | Return_site _ -> "return"
  | Omp_begin { kind; _ } ->
      Printf.sprintf "omp %s begin" (region_kind_name kind)
  | Omp_end { kind; region; _ } ->
      Printf.sprintf "omp %s end (r%d)" (region_kind_name kind) region
  | Barrier_node { implicit; _ } ->
      if implicit then "barrier (implicit)" else "barrier"
  | Check_site { check; _ } ->
      Fmt.str "check %a" Pretty.pp_check check

(** Collective nodes of the graph, in id order. *)
let collective_nodes g =
  filter_nodes g (function Collective _ -> true | _ -> false)

(** Ids of [Omp_begin] nodes, i.e. the region identifiers. *)
let region_begin_nodes g =
  filter_nodes g (function Omp_begin _ -> true | _ -> false)

(** The [Omp_end] node matching region [r], if the region is well-formed. *)
let region_end_node g r =
  let found =
    filter_nodes g (function
      | Omp_end { region; _ } -> region = r
      | _ -> false)
  in
  match found with [ e ] -> Some e | _ -> None

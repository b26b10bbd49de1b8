(** One-shot lowering of a validated [Ast.program] into the resolved form
    the simulator executes ({!Sim.run_compiled}).

    The lowering resolves, once per program, everything the reference
    tree-walker recomputes on every step of every replay:

    - {b Variables} become integer slots in per-frame [int array]s.  Scope
      analysis runs here: a fresh frame level opens per function
      activation and per [parallel] team member; every other construct
      allocates flat slots in the current frame.  OpenMP shared-by-default
      falls out of the frame chain — a team member's frame points [up] at
      the forker's frame, so outer variables are shared storage while
      declarations inside the parallel body land in the member's own
      frame.  Privatized variables (loop indices, [reduction] private
      copies) get fresh slots.
    - {b Sites and uids} ([Loc.to_string], the canonical statement
      numbering of [Sim.stmt_ids], pre-rendered CC-check site strings) are
      computed exactly once, never per replay.
    - {b Callees, collective descriptors and reduction operators} are
      resolved to direct pointers/values; call errors (unknown function,
      arity) become pre-rendered error statements so dead code still
      fails only when executed, like the reference.
    - {b Expressions} are closure-compiled: evaluation does no constructor
      dispatch on [Ast.expr].

    Fingerprint parity: alongside each program point the lowering stores
    the *hash ingredients* the reference interpreter derives dynamically —
    per-suffix block hashes, sorted scope descriptors replaying
    [Env.StringMap]'s fold order, [Hashtbl.hash]es of loop variables,
    critical names, while-conditions and reduce ops — so compiled runs
    produce bit-identical state fingerprints (see docs/PERFORMANCE.md). *)

open Minilang

(* ------------------------------------------------------------------ *)
(* Runtime representation                                              *)
(* ------------------------------------------------------------------ *)

(** A frame is one level of mutable variable storage.  [up] points at the
    lexically enclosing frame (the forker's frame, for a team member);
    root frames (function activations) point at a dummy. *)
type frame = { slots : int array; up : frame; mutable fid : int }

let rec dummy_frame = { slots = [||]; up = dummy_frame; fid = -1 }

let root_frame ?(fid = -1) nslots =
  { slots = Array.make nslots 0; up = dummy_frame; fid }

let child_frame ?(fid = -1) ~parent nslots =
  { slots = Array.make nslots 0; up = parent; fid }

let rec up fr n = if n <= 0 then fr else up fr.up (n - 1)

(** A resolved storage location: collective result cells, reduction
    accumulators.  Plays the role of [Env.cell] in the compiled core. *)
type loc = { l_frame : frame; l_slot : int }

let read_loc l = l.l_frame.slots.(l.l_slot)

let write_loc l v = l.l_frame.slots.(l.l_slot) <- v

(** Per-task constants threaded into compiled expressions (the compiled
    counterpart of [rank()]/[size()]/[omp_tid()]/[omp_nthreads()]). *)
type ectx = { e_rank : int; e_tid : int; e_nthreads : int; e_nranks : int }

(** Raised by compiled code on evaluation errors; the driver converts it
    to [Fault (Eval_error _)] at the same boundary where the reference
    interpreter raises its abort exception. *)
exception Error of { rank : int; site : string; message : string }

let error ec site fmt =
  Printf.ksprintf
    (fun message -> raise (Error { rank = ec.e_rank; site; message }))
    fmt

(** A compiled expression: evaluates against the task constants and the
    current frame. *)
type exprc = ectx -> frame -> int

(** Resolved variable reference: [v_hops] frames up, slot [v_slot]. *)
type vref = { v_hops : int; v_slot : int }

(** A reference that may be statically unbound: the error fires at
    execution time (with the reference interpreter's message), not at
    compile time, so unreached code stays harmless. *)
type cell_ref = CRef of vref | CUnbound of string

(** One visible binding at a program point, pre-hashed for fingerprints:
    entries are sorted by variable name so iterating them replays
    [Env.StringMap.fold]'s ascending key order exactly. *)
type scope_entry = { se_nhash : int; se_hops : int; se_slot : int }

type scope = scope_entry array

(** A resolved variable access a statement performs, kept alongside the
    compiled closures for the dynamic race oracle ({!Raceck}): the
    closures cannot be introspected, so the lowering records, per
    statement, which frame slots its expressions read and which slot its
    effect writes.  [a_hops]/[a_slot] are relative to the frame the
    statement executes against. *)
type access = { a_name : string; a_hops : int; a_slot : int; a_write : bool }

(* ------------------------------------------------------------------ *)
(* Compiled program form                                               *)
(* ------------------------------------------------------------------ *)

(* Head hash of the empty block suffix; must equal the reference's
   [block_hash ids []]. *)
let empty_suffix_hash = 0x27d4eb2f

type cstmt = { uid : int; site : string; acc : access array; desc : cdesc }

and cblock = {
  stmts : cstmt array;
  bhash : int array;
      (** [n + 1] entries: [bhash.(i)] identifies the suffix starting at
          statement [i] (the reference hashes a block by its head
          statement's canonical uid); entry [n] is the empty suffix. *)
  scopes : scope array;
      (** [n + 1] entries: visible bindings before statement [i].
          Positions not following a declaration share the same physical
          array. *)
}

and cdesc =
  | CDecl of int * exprc  (** Write the initializer into a fresh slot. *)
  | CAssign of vref * exprc
  | CAssign_unbound of string * exprc
      (** Evaluate the value, then fail — the reference evaluates before
          the unbound check. *)
  | CIf of exprc * cblock * cblock
  | CWhile of {
      cond : exprc;
      chash : int;
      scope : scope;
      cacc : access array;
          (** Reads of the condition, re-recorded at every loop-back
              re-evaluation (the statement's own [acc] covers the first
              evaluation). *)
      body : cblock;
    }
      (** [chash] pre-hashes the AST condition (fingerprint parity with
          the reference's [Hashtbl.hash c]). *)
  | CFor of {
      slot : int;
      vhash : int;
      lo : exprc;
      hi : exprc;
      scope : scope;  (** Bindings at the construct (loop var excluded). *)
      body : cblock;
    }
  | CReturn
  | CCall of { target : cfunc; args : exprc array }
  | CCall_error of string  (** Pre-rendered undefined/arity message. *)
  | CCompute of exprc
  | CPrint of exprc
  | CColl of { target : cell_ref option; coll : ccoll }
  | CCheck of ccheck
  | CSend of { value : exprc; dest : exprc; tag : exprc }
  | CRecv of { target : cell_ref; src : exprc; tag : exprc }
  | CIstart of { rslot : int; rop : crop }
      (** Split-phase start: performs the operation's posting half and
          writes the fresh request id into [rslot] (the request variable
          is an ordinary slot holding the id — the validator guarantees
          only [MPI_Wait]/[MPI_Test] ever name it). *)
  | CWait of { req : cell_ref }
  | CTest of { target : cell_ref; req : cell_ref }
  | CPar of { num_threads : exprc option; nslots : int; body : cblock }
      (** [nslots]: size of each team member's private frame. *)
  | CSingle of { nowait : bool; body : cblock }
  | CMaster of cblock
  | CCritical of { name : string; nhash : int; body : cblock }
  | CBarrier
  | CWsfor of {
      slot : int;
      vhash : int;
      lo : exprc;
      hi : exprc;
      nowait : bool;
      reduction : creduction option;
      kscope : scope;
          (** Scope of the loop continuation: construct bindings plus the
              reduction remap (private slot shadows the shared variable),
              loop var excluded. *)
      body : cblock;
    }
  | CSections of { nowait : bool; sections : cblock array }

and crop =
  | KIbarrier
  | KIallreduce of { op : Mpisim.Op.t; target : cell_ref; value : exprc }
  | KIsend of { value : exprc; dest : exprc; tag : exprc }
  | KIrecv of { target : cell_ref; src : exprc; tag : exprc }

and creduction = {
  r_op : Ast.reduce_op;
  r_ophash : int;
  r_shared : cell_ref;
  r_priv_slot : int;
}

and ccoll = {
  k_kind : Mpisim.Coll.kind;
  k_op : Mpisim.Op.t option;
  k_root : exprc option;  (** Range check baked into the closure. *)
  k_payload : exprc;
}

and ccheck =
  | KCc_next of { color : int; csite : string }
  | KCc_return of { csite : string }
  | KAssert_mono
  | KCount_enter of int
  | KCount_exit of int

and cfunc = {
  f_name : string;
  f_nparams : int;
  mutable f_nslots : int;  (** Frame size of one activation. *)
  mutable f_body : cblock;
}

type t = { funcs : cfunc array; by_name : (string, cfunc) Hashtbl.t }

(** Callee lookup; first match wins on duplicate names, mirroring
    [Ast.find_func]. *)
let find t name = Hashtbl.find_opt t.by_name name

let op_of_ast = function
  | Ast.Rsum -> Mpisim.Op.Sum
  | Ast.Rprod -> Mpisim.Op.Prod
  | Ast.Rmax -> Mpisim.Op.Max
  | Ast.Rmin -> Mpisim.Op.Min
  | Ast.Rland -> Mpisim.Op.Land
  | Ast.Rlor -> Mpisim.Op.Lor

(* ------------------------------------------------------------------ *)
(* Compile-time environment                                            *)
(* ------------------------------------------------------------------ *)

module SMap = Map.Make (String)

type binding = { b_level : int; b_slot : int }

(* [counter] allocates slots of the innermost frame; a new level (with a
   fresh counter) opens per function body and per [parallel] body. *)
type cenv = { vars : binding SMap.t; level : int; counter : int ref }

let alloc cenv =
  let s = !(cenv.counter) in
  incr cenv.counter;
  s

let declare cenv x slot =
  { cenv with vars = SMap.add x { b_level = cenv.level; b_slot = slot } cenv.vars }

let find_var cenv x =
  match SMap.find_opt x cenv.vars with
  | None -> None
  | Some b -> Some { v_hops = cenv.level - b.b_level; v_slot = b.b_slot }

let cell_of cenv x =
  match find_var cenv x with Some vr -> CRef vr | None -> CUnbound x

(* [Map.bindings] is ascending by key — the same order the reference's
   [Env.StringMap.fold] hashes environments in. *)
let scope_of cenv : scope =
  let entries =
    SMap.fold
      (fun name b acc ->
        {
          se_nhash = Hashtbl.hash name;
          se_hops = cenv.level - b.b_level;
          se_slot = b.b_slot;
        }
        :: acc)
      cenv.vars []
  in
  Array.of_list (List.rev entries)

(* ------------------------------------------------------------------ *)
(* Expression compilation                                              *)
(* ------------------------------------------------------------------ *)

(* Mirrors [Sim]'s reference [eval] exactly: left operand first,
   short-circuit [&&]/[||] normalising to 0/1 via [min 1 (abs _)],
   division/modulo checks after both operands, identical messages. *)
let rec compile_expr cenv ~site (e : Ast.expr) : exprc =
  match e with
  | Ast.Int n -> fun _ _ -> n
  | Ast.Bool b ->
      let v = if b then 1 else 0 in
      fun _ _ -> v
  | Ast.Var x -> (
      match find_var cenv x with
      | Some { v_hops = 0; v_slot } -> fun _ fr -> fr.slots.(v_slot)
      | Some { v_hops = 1; v_slot } -> fun _ fr -> fr.up.slots.(v_slot)
      | Some { v_hops; v_slot } -> fun _ fr -> (up fr v_hops).slots.(v_slot)
      | None -> fun ec _ -> error ec site "unbound variable '%s'" x)
  | Ast.Rank -> fun ec _ -> ec.e_rank
  | Ast.Size -> fun ec _ -> ec.e_nranks
  | Ast.Tid -> fun ec _ -> ec.e_tid
  | Ast.Nthreads -> fun ec _ -> ec.e_nthreads
  | Ast.Unop (Ast.Neg, e) ->
      let f = compile_expr cenv ~site e in
      fun ec fr -> -f ec fr
  | Ast.Unop (Ast.Not, e) ->
      let f = compile_expr cenv ~site e in
      fun ec fr -> if f ec fr = 0 then 1 else 0
  | Ast.Binop (op, a, b) -> (
      let fa = compile_expr cenv ~site a in
      let fb = compile_expr cenv ~site b in
      match op with
      | Ast.And ->
          fun ec fr -> if fa ec fr = 0 then 0 else min 1 (abs (fb ec fr))
      | Ast.Or -> fun ec fr -> if fa ec fr <> 0 then 1 else min 1 (abs (fb ec fr))
      | Ast.Add ->
          fun ec fr ->
            let x = fa ec fr in
            x + fb ec fr
      | Ast.Sub ->
          fun ec fr ->
            let x = fa ec fr in
            x - fb ec fr
      | Ast.Mul ->
          fun ec fr ->
            let x = fa ec fr in
            x * fb ec fr
      | Ast.Div ->
          fun ec fr ->
            let x = fa ec fr in
            let y = fb ec fr in
            if y = 0 then error ec site "division by zero" else x / y
      | Ast.Mod ->
          fun ec fr ->
            let x = fa ec fr in
            let y = fb ec fr in
            if y = 0 then error ec site "modulo by zero" else x mod y
      | Ast.Eq ->
          fun ec fr ->
            let x = fa ec fr in
            if x = fb ec fr then 1 else 0
      | Ast.Ne ->
          fun ec fr ->
            let x = fa ec fr in
            if x <> fb ec fr then 1 else 0
      | Ast.Lt ->
          fun ec fr ->
            let x = fa ec fr in
            if x < fb ec fr then 1 else 0
      | Ast.Le ->
          fun ec fr ->
            let x = fa ec fr in
            if x <= fb ec fr then 1 else 0
      | Ast.Gt ->
          fun ec fr ->
            let x = fa ec fr in
            if x > fb ec fr then 1 else 0
      | Ast.Ge ->
          fun ec fr ->
            let x = fa ec fr in
            if x >= fb ec fr then 1 else 0)

let compile_root cenv ~site e =
  let f = compile_expr cenv ~site e in
  fun ec fr ->
    let r = f ec fr in
    if r < 0 || r >= ec.e_nranks then
      error ec site "collective root %d out of range" r
    else r

(* Payload compiled separately from root; the executor evaluates payload
   first, then root — the order the reference's labelled-argument call
   evaluates them in. *)
let compile_coll cenv ~site (c : Ast.collective) : ccoll =
  let ev e = compile_expr cenv ~site e in
  let root e = Some (compile_root cenv ~site e) in
  let mk k_kind ?op ?(rt = None) value =
    { k_kind; k_op = op; k_root = rt; k_payload = value }
  in
  match c with
  | Ast.Barrier -> mk Mpisim.Coll.Barrier (fun _ _ -> 0)
  | Ast.Bcast { root = r; value } -> mk Mpisim.Coll.Bcast ~rt:(root r) (ev value)
  | Ast.Reduce { op; root = r; value } ->
      mk Mpisim.Coll.Reduce ~op:(op_of_ast op) ~rt:(root r) (ev value)
  | Ast.Allreduce { op; value } ->
      mk Mpisim.Coll.Allreduce ~op:(op_of_ast op) (ev value)
  | Ast.Gather { root = r; value } ->
      mk Mpisim.Coll.Gather ~rt:(root r) (ev value)
  | Ast.Scatter { root = r; value } ->
      mk Mpisim.Coll.Scatter ~rt:(root r) (ev value)
  | Ast.Allgather { value } -> mk Mpisim.Coll.Allgather (ev value)
  | Ast.Alltoall { value } -> mk Mpisim.Coll.Alltoall (ev value)
  | Ast.Scan { op; value } -> mk Mpisim.Coll.Scan ~op:(op_of_ast op) (ev value)
  | Ast.Reduce_scatter { op; value } ->
      mk Mpisim.Coll.Reduce_scatter ~op:(op_of_ast op) (ev value)

(* ------------------------------------------------------------------ *)
(* Access descriptors                                                  *)
(* ------------------------------------------------------------------ *)

(* Slot reads of an expression, in evaluation order.  Unbound variables
   are omitted: evaluation faults before any storage access happens.
   Accesses the oracle provably cannot race on are omitted at their
   construction sites instead (declaration writes, loop-variable writes,
   reduction private/combine writes, callee parameter writes): each
   targets storage no concurrently-running task can resolve, or is
   synchronised by the construct itself. *)
let rec expr_reads cenv acc (e : Ast.expr) =
  match e with
  | Ast.Var x -> (
      match find_var cenv x with
      | Some { v_hops; v_slot } ->
          { a_name = x; a_hops = v_hops; a_slot = v_slot; a_write = false }
          :: acc
      | None -> acc)
  | Ast.Unop (_, e) -> expr_reads cenv acc e
  | Ast.Binop (_, a, b) -> expr_reads cenv (expr_reads cenv acc a) b
  | Ast.Int _ | Ast.Bool _ | Ast.Rank | Ast.Size | Ast.Tid | Ast.Nthreads ->
      acc

let reads_of cenv es =
  List.rev (List.fold_left (expr_reads cenv) [] es)

let write_of cenv x =
  match find_var cenv x with
  | Some { v_hops; v_slot } ->
      [ { a_name = x; a_hops = v_hops; a_slot = v_slot; a_write = true } ]
  | None -> []

let coll_access_exprs (c : Ast.collective) =
  match c with
  | Ast.Barrier -> []
  | Ast.Bcast { root; value }
  | Ast.Reduce { root; value; _ }
  | Ast.Gather { root; value }
  | Ast.Scatter { root; value } ->
      [ value; root ]
  | Ast.Allreduce { value; _ }
  | Ast.Allgather { value }
  | Ast.Alltoall { value }
  | Ast.Scan { value; _ }
  | Ast.Reduce_scatter { value; _ } ->
      [ value ]

(* ------------------------------------------------------------------ *)
(* Statement compilation                                               *)
(* ------------------------------------------------------------------ *)

type ctx = {
  uids : int Ast.Stmt_tbl.t;
  next_uid : int ref;
  resolve : string -> cfunc option;
}

(* Canonical uids, assigned in the same [fold_stmts] order (statement
   before its sub-blocks; [If] then-branch first; sections in order; dedup
   on physical identity) as [Sim.stmt_ids] — the two tables agree on every
   statement, which keeps [single]-arbitration keys and fingerprints
   identical across interpreters. *)
let uid_of ctx (s : Ast.stmt) =
  match Ast.Stmt_tbl.find_opt ctx.uids s with
  | Some u -> u
  | None ->
      let u = !(ctx.next_uid) in
      incr ctx.next_uid;
      Ast.Stmt_tbl.replace ctx.uids s u;
      u

let dummy_cstmt = { uid = -1; site = "<dummy>"; acc = [||]; desc = CBarrier }

let empty_cblock =
  { stmts = [||]; bhash = [| empty_suffix_hash |]; scopes = [| [||] |] }

let rec compile_stmt ctx cenv (s : Ast.stmt) : cstmt * cenv =
  let uid = uid_of ctx s in
  let site = Loc.to_string s.Ast.sloc in
  let ev e = compile_expr cenv ~site e in
  let racc ?(w = []) es = Array.of_list (reads_of cenv es @ w) in
  let ret ?(acc = [||]) desc = ({ uid; site; acc; desc }, cenv) in
  match s.Ast.sdesc with
  | Ast.Decl (x, e) ->
      let value = ev e in
      let acc = racc [ e ] in
      let slot = alloc cenv in
      ({ uid; site; acc; desc = CDecl (slot, value) }, declare cenv x slot)
  | Ast.Assign (x, e) -> (
      let value = ev e in
      let acc = racc ~w:(write_of cenv x) [ e ] in
      match find_var cenv x with
      | Some vr -> ret ~acc (CAssign (vr, value))
      | None -> ret ~acc (CAssign_unbound (x, value)))
  | Ast.If (c, bt, bf) ->
      let cond = ev c in
      let bt = compile_block ctx cenv bt in
      let bf = compile_block ctx cenv bf in
      ret ~acc:(racc [ c ]) (CIf (cond, bt, bf))
  | Ast.While (c, body) ->
      (* The reference evaluates loop conditions at site "<while>". *)
      let cond = compile_expr cenv ~site:"<while>" c in
      let cacc = racc [ c ] in
      ret ~acc:cacc
        (CWhile
           {
             cond;
             chash = Hashtbl.hash c;
             scope = scope_of cenv;
             cacc;
             body = compile_block ctx cenv body;
           })
  | Ast.For (x, lo, hi, body) ->
      let acc = racc [ lo; hi ] in
      let lo = ev lo in
      let hi = ev hi in
      let scope = scope_of cenv in
      let slot = alloc cenv in
      let body = compile_block ctx (declare cenv x slot) body in
      ret ~acc (CFor { slot; vhash = Hashtbl.hash x; lo; hi; scope; body })
  | Ast.Return -> ret CReturn
  | Ast.Call (fname, args) -> (
      match ctx.resolve fname with
      | None ->
          ret (CCall_error (Printf.sprintf "undefined function '%s'" fname))
      | Some target ->
          if target.f_nparams <> List.length args then
            ret
              (CCall_error (Printf.sprintf "arity mismatch calling '%s'" fname))
          else
            ret ~acc:(racc args)
              (CCall { target; args = Array.of_list (List.map ev args) }))
  | Ast.Compute e -> ret ~acc:(racc [ e ]) (CCompute (ev e))
  | Ast.Print e -> ret ~acc:(racc [ e ]) (CPrint (ev e))
  | Ast.Coll (target, c) ->
      let w = match target with None -> [] | Some x -> write_of cenv x in
      ret
        ~acc:(racc ~w (coll_access_exprs c))
        (CColl
           {
             target = Option.map (cell_of cenv) target;
             coll = compile_coll cenv ~site c;
           })
  | Ast.Check check ->
      ret
        (CCheck
           (match check with
           | Ast.Cc_next_collective { color; coll_name } ->
               KCc_next
                 {
                   color;
                   csite = Printf.sprintf "%s (next: %s)" site coll_name;
                 }
           | Ast.Cc_return ->
               KCc_return { csite = Printf.sprintf "%s (function exit)" site }
           | Ast.Assert_monothread _ -> KAssert_mono
           | Ast.Count_enter { region } -> KCount_enter region
           | Ast.Count_exit { region } -> KCount_exit region))
  | Ast.Send { value; dest; tag } ->
      ret
        ~acc:(racc [ value; dest; tag ])
        (CSend { value = ev value; dest = ev dest; tag = ev tag })
  | Ast.Recv { target; src; tag } ->
      ret
        ~acc:(racc ~w:(write_of cenv target) [ src; tag ])
        (CRecv { target = cell_of cenv target; src = ev src; tag = ev tag })
  | Ast.Istart { req; rop } ->
      (* Accesses: argument reads only.  The request slot is opaque to
         the race oracle, and the completion-time buffer write is not a
         start-time access — recording it here would let the dynamic
         oracle report races the static pass (which places the write at
         the completion point) cannot, breaking dynamic ⊆ static. *)
      let rop, acc =
        match rop with
        | Ast.Ibarrier -> (KIbarrier, [||])
        | Ast.Iallreduce { op; target; value } ->
            ( KIallreduce
                {
                  op = op_of_ast op;
                  target = cell_of cenv target;
                  value = ev value;
                },
              racc [ value ] )
        | Ast.Isend { value; dest; tag } ->
            ( KIsend { value = ev value; dest = ev dest; tag = ev tag },
              racc [ value; dest; tag ] )
        | Ast.Irecv { target; src; tag } ->
            ( KIrecv { target = cell_of cenv target; src = ev src; tag = ev tag },
              racc [ src; tag ] )
      in
      let slot = alloc cenv in
      ({ uid; site; acc; desc = CIstart { rslot = slot; rop } },
       declare cenv req slot)
  | Ast.Wait { req } -> ret (CWait { req = cell_of cenv req })
  | Ast.Test { target; req } ->
      ret
        ~acc:(racc ~w:(write_of cenv target) [])
        (CTest { target = cell_of cenv target; req = cell_of cenv req })
  | Ast.Omp_parallel { num_threads; body } ->
      let acc =
        match num_threads with None -> [||] | Some e -> racc [ e ]
      in
      let num_threads = Option.map ev num_threads in
      (* Team members get a private child frame: outer bindings stay
         visible (shared) one hop up; body declarations are private. *)
      let counter = ref 0 in
      let body = compile_block ctx { cenv with level = cenv.level + 1; counter } body in
      ret ~acc (CPar { num_threads; nslots = !counter; body })
  | Ast.Omp_single { nowait; body } ->
      ret (CSingle { nowait; body = compile_block ctx cenv body })
  | Ast.Omp_master body -> ret (CMaster (compile_block ctx cenv body))
  | Ast.Omp_critical (name, body) ->
      let name = Option.value name ~default:Ompsim.Critical.anonymous in
      ret
        (CCritical
           {
             name;
             nhash = Hashtbl.hash name;
             body = compile_block ctx cenv body;
           })
  | Ast.Omp_barrier -> ret CBarrier
  | Ast.Omp_for { var; lo; hi; nowait; reduction; body } ->
      let acc = racc [ lo; hi ] in
      let lo = ev lo in
      let hi = ev hi in
      let reduction, cenv_in =
        match reduction with
        | None -> (None, cenv)
        | Some (op, x) ->
            let r_shared = cell_of cenv x in
            let r_priv_slot = alloc cenv in
            ( Some
                {
                  r_op = op;
                  r_ophash = Hashtbl.hash op;
                  r_shared;
                  r_priv_slot;
                },
              declare cenv x r_priv_slot )
      in
      let kscope = scope_of cenv_in in
      let slot = alloc cenv in
      let body = compile_block ctx (declare cenv_in var slot) body in
      ret ~acc
        (CWsfor
           { slot; vhash = Hashtbl.hash var; lo; hi; nowait; reduction; kscope; body })
  | Ast.Omp_sections { nowait; sections } ->
      ret
        (CSections
           {
             nowait;
             sections =
               Array.of_list (List.map (compile_block ctx cenv) sections);
           })

and compile_block ctx cenv0 (b : Ast.block) : cblock =
  let n = List.length b in
  let stmts = Array.make n dummy_cstmt in
  let scopes = Array.make (n + 1) [||] in
  let bhash = Array.make (n + 1) empty_suffix_hash in
  let cenv = ref cenv0 in
  let cur_scope = ref (scope_of cenv0) in
  List.iteri
    (fun i s ->
      scopes.(i) <- !cur_scope;
      let cs, cenv' = compile_stmt ctx !cenv s in
      stmts.(i) <- cs;
      bhash.(i) <- cs.uid + 0x100;
      (* Only declarations change the visible bindings; share the scope
         array physically otherwise. *)
      if not ((!cenv).vars == cenv'.vars) then cur_scope := scope_of cenv';
      cenv := cenv')
    b;
  scopes.(n) <- !cur_scope;
  { stmts; bhash; scopes }

(* ------------------------------------------------------------------ *)
(* Program lowering                                                    *)
(* ------------------------------------------------------------------ *)

let lower (program : Ast.program) : t =
  let pairs =
    List.map
      (fun (f : Ast.func) ->
        ( f,
          {
            f_name = f.Ast.fname;
            f_nparams = List.length f.Ast.params;
            f_nslots = 0;
            f_body = empty_cblock;
          } ))
      program.Ast.funcs
  in
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun ((_ : Ast.func), cf) ->
      if not (Hashtbl.mem by_name cf.f_name) then Hashtbl.add by_name cf.f_name cf)
    pairs;
  let ctx =
    {
      uids = Ast.Stmt_tbl.create 256;
      next_uid = ref 0;
      resolve = (fun name -> Hashtbl.find_opt by_name name);
    }
  in
  (* Two passes: records first so call sites (including mutual recursion)
     resolve to their callee directly; bodies second, in program order so
     canonical uids match [Sim.stmt_ids]. *)
  List.iter
    (fun ((f : Ast.func), cf) ->
      let counter = ref 0 in
      let cenv = { vars = SMap.empty; level = 0; counter } in
      (* Parameters take slots 0..n-1, in declaration order (duplicates
         keep distinct slots; the last binding wins, as in the
         reference's left fold of [Env.declare]). *)
      let cenv =
        List.fold_left
          (fun ce p ->
            let slot = alloc ce in
            declare ce p slot)
          cenv f.Ast.params
      in
      cf.f_body <- compile_block ctx cenv f.Ast.body;
      cf.f_nslots <- !counter)
    pairs;
  { funcs = Array.of_list (List.map snd pairs); by_name }

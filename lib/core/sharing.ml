(** Shared-vs-private classification of variables, per statement.

    OpenMP's storage rules for the mini-language are those the compiled
    interpreter ({!module:Interp.Compile}, [lib/interp/compile.ml])
    implements at run time: every [parallel] body opens one private frame
    per team member, and everything declared outside the innermost
    enclosing [parallel] lives in a frame that the whole team reaches
    through the static link — i.e. is {e shared}.  Variables declared at
    or below the innermost [parallel] (including [for]/[omp for] loop
    variables and reduction private copies) are {e private}.

    This module replays that scope analysis on the AST — without
    depending on the interpreter library — and records, for every
    statement, the parallel-nesting depth, the enclosing critical-section
    names, and the visible bindings, so the static race detector
    ({!Races}) can decide whether two accesses can touch the same shared
    storage.  Statements are keyed by physical identity, exactly like the
    compiler's canonical-uid table. *)

open Minilang
module SMap = Map.Make (String)

(** One visible binding: the unique declaration it resolves to and the
    parallel depth that declaration was made at. *)
type binding = { decl_id : int; decl_pdepth : int }

(** Scope facts at a statement: [bindings] are the bindings visible
    {e before} the statement executes. *)
type info = {
  pdepth : int;  (** Number of enclosing [parallel] constructs. *)
  criticals : string list;  (** Enclosing critical names, innermost first. *)
  bindings : binding SMap.t;
}

type t = info Ast.Stmt_tbl.t

(** The anonymous critical's reserved name (kept in sync with
    [Ompsim.Critical.anonymous]; this library does not link ompsim). *)
let anonymous_critical = "<anonymous>"

let analyze (f : Ast.func) : t =
  let tbl = Ast.Stmt_tbl.create 64 in
  let next = ref 0 in
  let bind env x =
    let id = !next in
    incr next;
    {
      env with
      bindings =
        SMap.add x { decl_id = id; decl_pdepth = env.pdepth } env.bindings;
    }
  in
  let rec stmt env (s : Ast.stmt) =
    Ast.Stmt_tbl.replace tbl s env;
    match s.Ast.sdesc with
    | Ast.Decl (x, _) -> bind env x
    | Ast.If (_, bt, bf) ->
        block env bt;
        block env bf;
        env
    | Ast.While (_, body) ->
        block env body;
        env
    | Ast.For (x, _, _, body) ->
        (* The loop variable binds at the current parallel depth: it is a
           fresh slot of the executing task's innermost frame, hence
           private. *)
        block (bind env x) body;
        env
    | Ast.Omp_parallel { body; _ } ->
        block { env with pdepth = env.pdepth + 1 } body;
        env
    | Ast.Omp_single { body; _ } | Ast.Omp_master body ->
        block env body;
        env
    | Ast.Omp_critical (name, body) ->
        let name = Option.value name ~default:anonymous_critical in
        block { env with criticals = name :: env.criticals } body;
        env
    | Ast.Omp_for { var; reduction; body; _ } ->
        (* The reduction clause remaps its variable to a per-member
           private accumulator for the loop body; the loop variable is
           private as for [For]. *)
        let env_in =
          match reduction with None -> env | Some (_, x) -> bind env x
        in
        block (bind env_in var) body;
        env
    | Ast.Omp_sections { sections; _ } ->
        List.iter (block env) sections;
        env
    | Ast.Assign _ | Ast.Return | Ast.Call _ | Ast.Compute _ | Ast.Print _
    | Ast.Coll _ | Ast.Send _ | Ast.Recv _ | Ast.Istart _ | Ast.Wait _
    | Ast.Test _ | Ast.Omp_barrier | Ast.Check _ ->
        (* Request variables are opaque (never readable), so [Istart]
           introduces no binding; its buffer writes resolve through the
           ordinary declaration of the target variable. *)
        env
  and block env b = ignore (List.fold_left stmt env b) in
  let env0 = { pdepth = 0; criticals = []; bindings = SMap.empty } in
  let env0 = List.fold_left bind env0 f.Ast.params in
  block env0 f.Ast.body;
  tbl

(** Scope facts of a statement; [None] for statements that are not part
    of the analysed function (e.g. the synthetic init/increment
    statements the CFG builder manufactures when desugaring [for]
    loops — their shared accesses are re-extracted at the loop's [Cond]
    node). *)
let info (t : t) (s : Ast.stmt) = Ast.Stmt_tbl.find_opt t s

(** [shared inf x] returns the binding of [x] when it resolves to shared
    storage at a statement with facts [inf] (declared strictly outside
    the innermost enclosing [parallel]); [None] for private or unbound
    variables. *)
let shared (inf : info) x =
  match SMap.find_opt x inf.bindings with
  | Some b when b.decl_pdepth < inf.pdepth -> Some b
  | Some _ | None -> None

(** Semantic validation of mini-language programs.

    The PARCOACH analyses assume an explicit fork/join model with perfectly
    nested regions; this validator enforces the discipline (and the standard
    OpenMP nesting restrictions) before any analysis runs:

    - called procedures must exist with matching arity;
    - variables must be declared before use (block scoping);
    - [return] may not appear inside an OpenMP construct (no branching out
      of a structured block);
    - [barrier] may not be closely nested inside [single]/[master]/
      [critical]/worksharing constructs;
    - request variables (bound by split-phase starts) are opaque: they may
      only be named by [MPI_Wait]/[MPI_Test], never read, assigned, or
      reused while in scope — the discipline that makes the static request
      lifecycle tracking of [Parcoach.Requests] sound;
    - worksharing constructs ([single], [for], [sections]) may not be
      closely nested inside another worksharing or [master]/[critical]
      region of the same team;
    - a barrier (explicit, or implicit at the end of a worksharing
      construct without [nowait]) under non-uniform control flow inside a
      parallel region is reported as a warning, since all threads of the
      team must encounter it. *)

open Ast
module SSet = Set.Make (String)

type severity = Error | Warning

type issue = { severity : severity; loc : Loc.t; message : string }

let pp_issue ppf i =
  Fmt.pf ppf "%s: %a: %s"
    (match i.severity with Error -> "error" | Warning -> "warning")
    Loc.pp i.loc i.message

let issue_to_string i = Fmt.str "%a" pp_issue i

let errors issues = List.filter (fun i -> i.severity = Error) issues

let is_valid issues = errors issues = []

let syntax_errors parse =
  let error loc what msg =
    Stdlib.Error { severity = Error; loc; message = what ^ msg }
  in
  match parse () with
  | x -> Ok x
  | exception Parser.Parse_error (loc, msg) -> error loc "parse error: " msg
  | exception Lexer.Lex_error (loc, msg) -> error loc "lex error: " msg

(* Context tracked while walking a function body. *)
type ctx = {
  in_parallel : int;  (* nesting depth of parallel regions *)
  in_worksharing : bool;  (* closely nested in single/for/sections *)
  in_single_like : bool;  (* closely nested in single/master/critical *)
  in_divergent : bool;  (* under if/while/for since innermost parallel *)
  vars : SSet.t;  (* variables in scope *)
  reqs : SSet.t;  (* request variables in scope (disjoint from vars) *)
}

let initial_ctx params =
  {
    in_parallel = 0;
    in_worksharing = false;
    in_single_like = false;
    in_divergent = false;
    vars = SSet.of_list params;
    reqs = SSet.empty;
  }

let check_program program =
  let issues = ref [] in
  let add severity loc message = issues := { severity; loc; message } :: !issues in
  (* Call-site checks resolve callees against this table rather than
     scanning the function list per call; mirror [find_func]'s
     first-definition-wins semantics under duplicate names. *)
  let ftbl = Hashtbl.create (List.length program.funcs) in
  List.iter
    (fun f -> if not (Hashtbl.mem ftbl f.fname) then Hashtbl.add ftbl f.fname f)
    program.funcs;
  let rec check_expr ctx loc e =
    match e with
    | Int _ | Bool _ | Rank | Size | Tid | Nthreads -> ()
    | Var x ->
        if not (SSet.mem x ctx.vars) then
          add Error loc
            (if SSet.mem x ctx.reqs then
               Printf.sprintf
                 "request variable '%s' may only be named by \
                  MPI_Wait/MPI_Test" x
             else Printf.sprintf "use of undeclared variable '%s'" x)
    | Unop (_, e) -> check_expr ctx loc e
    | Binop (_, a, b) ->
        check_expr ctx loc a;
        check_expr ctx loc b
  in
  let check_collective ctx loc c =
    match c with
    | Barrier -> ()
    | Bcast { root; value }
    | Reduce { root; value; _ }
    | Gather { root; value }
    | Scatter { root; value } ->
        check_expr ctx loc root;
        check_expr ctx loc value
    | Allreduce { value; _ }
    | Allgather { value }
    | Alltoall { value }
    | Scan { value; _ }
    | Reduce_scatter { value; _ } ->
        check_expr ctx loc value
  in
  let check_buffer ctx loc target =
    if not (SSet.mem target ctx.vars) then
      add Error loc
        (if SSet.mem target ctx.reqs then
           Printf.sprintf "request variable '%s' may not be a receive buffer"
             target
         else Printf.sprintf "receive into undeclared variable '%s'" target)
  in
  let check_request ctx loc req =
    if not (SSet.mem req ctx.reqs) then
      add Error loc
        (if SSet.mem req ctx.vars then
           Printf.sprintf "'%s' is not a request variable" req
         else Printf.sprintf "use of undeclared request '%s'" req)
  in
  (* Walks a block; returns the context with declared variables added, so a
     declaration is visible to the rest of its block (but not outside). *)
  let rec check_block ctx block =
    ignore
      (List.fold_left
         (fun ctx s ->
           check_stmt ctx s;
           match s.sdesc with
           | Decl (x, _) ->
               { ctx with vars = SSet.add x ctx.vars; reqs = SSet.remove x ctx.reqs }
           | Istart { req; _ } ->
               { ctx with reqs = SSet.add req ctx.reqs; vars = SSet.remove req ctx.vars }
           | _ -> ctx)
         ctx block)
  and check_stmt ctx s =
    let loc = s.sloc in
    match s.sdesc with
    | Decl (_, e) -> check_expr ctx loc e
    | Assign (x, e) ->
        if not (SSet.mem x ctx.vars) then
          add Error loc
            (if SSet.mem x ctx.reqs then
               Printf.sprintf "request variable '%s' may not be assigned" x
             else
               Printf.sprintf "assignment to undeclared variable '%s'" x);
        check_expr ctx loc e
    | If (c, bt, bf) ->
        check_expr ctx loc c;
        let ctx' =
          if ctx.in_parallel > 0 then { ctx with in_divergent = true } else ctx
        in
        check_block ctx' bt;
        check_block ctx' bf
    | While (c, b) ->
        check_expr ctx loc c;
        let ctx' =
          if ctx.in_parallel > 0 then { ctx with in_divergent = true } else ctx
        in
        check_block ctx' b
    | For (x, lo, hi, b) ->
        check_expr ctx loc lo;
        check_expr ctx loc hi;
        let ctx' =
          if ctx.in_parallel > 0 then { ctx with in_divergent = true } else ctx
        in
        check_block
          { ctx' with vars = SSet.add x ctx'.vars; reqs = SSet.remove x ctx'.reqs }
          b
    | Return ->
        if ctx.in_parallel > 0 || ctx.in_worksharing || ctx.in_single_like then
          add Error loc "'return' may not appear inside an OpenMP construct"
    | Call (f, args) -> (
        List.iter (check_expr ctx loc) args;
        match Hashtbl.find_opt ftbl f with
        | None -> add Error loc (Printf.sprintf "call to undefined function '%s'" f)
        | Some callee ->
            if List.length callee.params <> List.length args then
              add Error loc
                (Printf.sprintf "'%s' expects %d argument(s), got %d" f
                   (List.length callee.params)
                   (List.length args)))
    | Compute e | Print e -> check_expr ctx loc e
    | Send { value; dest; tag } ->
        check_expr ctx loc value;
        check_expr ctx loc dest;
        check_expr ctx loc tag
    | Recv { target; src; tag } ->
        check_buffer ctx loc target;
        check_expr ctx loc src;
        check_expr ctx loc tag
    | Istart { req; rop } ->
        if SSet.mem req ctx.vars || SSet.mem req ctx.reqs then
          add Error loc
            (Printf.sprintf
               "request variable '%s' redeclares a name already in scope" req);
        (match rop with
        | Ibarrier -> ()
        | Iallreduce { target; value; _ } ->
            check_buffer ctx loc target;
            check_expr ctx loc value
        | Isend { value; dest; tag } ->
            check_expr ctx loc value;
            check_expr ctx loc dest;
            check_expr ctx loc tag
        | Irecv { target; src; tag } ->
            check_buffer ctx loc target;
            check_expr ctx loc src;
            check_expr ctx loc tag)
    | Wait { req } -> check_request ctx loc req
    | Test { target; req } ->
        if not (SSet.mem target ctx.vars) then
          add Error loc
            (Printf.sprintf "test result assigned to undeclared variable '%s'"
               target);
        check_request ctx loc req
    | Coll (target, c) ->
        (match target with
        | Some x when not (SSet.mem x ctx.vars) ->
            add Error loc
              (Printf.sprintf "collective result assigned to undeclared variable '%s'" x)
        | Some _ | None -> ());
        check_collective ctx loc c
    | Omp_parallel { num_threads; body } ->
        Option.iter (check_expr ctx loc) num_threads;
        check_block
          {
            ctx with
            in_parallel = ctx.in_parallel + 1;
            in_worksharing = false;
            in_single_like = false;
            in_divergent = false;
          }
          body
    | Omp_single { nowait; body } ->
        check_worksharing_nesting ctx loc "single";
        if (not nowait) && ctx.in_divergent then
          add Warning loc
            "implicit barrier of 'single' under non-uniform control flow";
        check_block
          { ctx with in_worksharing = true; in_single_like = true }
          body
    | Omp_master body ->
        check_block { ctx with in_single_like = true } body
    | Omp_critical (_, body) ->
        check_block { ctx with in_single_like = true } body
    | Omp_barrier ->
        if ctx.in_worksharing || ctx.in_single_like then
          add Error loc
            "'barrier' may not be closely nested inside a worksharing, \
             'single', 'master' or 'critical' region";
        if ctx.in_divergent then
          add Warning loc "'barrier' under non-uniform control flow"
    | Omp_for { var; lo; hi; nowait; reduction; body } ->
        check_worksharing_nesting ctx loc "for";
        if (not nowait) && ctx.in_divergent then
          add Warning loc
            "implicit barrier of worksharing 'for' under non-uniform control flow";
        check_expr ctx loc lo;
        check_expr ctx loc hi;
        (match reduction with
        | Some (_, x) when not (SSet.mem x ctx.vars) ->
            add Error loc
              (Printf.sprintf
                 "reduction variable '%s' is not declared in the enclosing scope" x)
        | Some _ | None -> ());
        check_block
          {
            ctx with
            in_worksharing = true;
            vars = SSet.add var ctx.vars;
            reqs = SSet.remove var ctx.reqs;
          }
          body
    | Omp_sections { nowait; sections } ->
        check_worksharing_nesting ctx loc "sections";
        if (not nowait) && ctx.in_divergent then
          add Warning loc
            "implicit barrier of 'sections' under non-uniform control flow";
        List.iter (check_block { ctx with in_worksharing = true }) sections
    | Check _ -> ()
  and check_worksharing_nesting ctx loc name =
    if ctx.in_worksharing then
      add Error loc
        (Printf.sprintf
           "worksharing construct '%s' may not be closely nested inside \
            another worksharing region" name);
    if ctx.in_single_like then
      add Error loc
        (Printf.sprintf
           "worksharing construct '%s' may not be closely nested inside a \
            'single', 'master' or 'critical' region" name)
  in
  List.iter
    (fun f ->
      (* Duplicate parameter names. *)
      let rec dup = function
        | [] -> ()
        | x :: rest ->
            if List.mem x rest then
              add Error f.floc
                (Printf.sprintf "duplicate parameter '%s' in function '%s'" x
                   f.fname);
            dup rest
      in
      dup f.params;
      check_block (initial_ctx f.params) f.body)
    program.funcs;
  (* Duplicate function names. *)
  let rec dupf = function
    | [] -> ()
    | f :: rest ->
        if List.exists (fun g -> String.equal g.fname f.fname) rest then
          add Error f.floc (Printf.sprintf "duplicate function '%s'" f.fname);
        dupf rest
  in
  dupf program.funcs;
  List.rev !issues

(** [validate_exn p] raises [Failure] with all error messages if [p] has
    validation errors; returns the (possibly warning-carrying) issue list
    otherwise. *)
let validate_exn program =
  let issues = check_program program in
  match errors issues with
  | [] -> issues
  | errs ->
      failwith
        (String.concat "\n" (List.map issue_to_string errs))

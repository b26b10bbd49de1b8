(** Recursive-descent parser for the mini-language.

    Grammar (statements end with [;], blocks are brace-delimited):
    {v
    program  ::= func*
    func     ::= "func" IDENT "(" [IDENT ("," IDENT)*] ")" block
    block    ::= "{" stmt* "}"
    stmt     ::= "var" IDENT "=" expr ";"
               | IDENT "=" expr ";"            (assignment)
               | IDENT "=" MPI_coll ";"        (collective with result)
               | MPI_coll ";"                  (collective)
               | IDENT "=" MPI_istart ";"      (split-phase start, binds request)
               | "MPI_Wait" "(" IDENT ")" ";"
               | IDENT "=" "MPI_Test" "(" IDENT ")" ";"
               | IDENT "(" args ")" ";"        (procedure call / intrinsic stmt)
               | "if" "(" expr ")" block ["else" block]
               | "while" "(" expr ")" block
               | "for" IDENT "=" expr "to" expr block
               | "return" ";"
               | ["#"] "pragma" "omp" omp
    omp      ::= "parallel" ["num_threads" "(" expr ")"] block
               | "single" ["nowait"] block
               | "master" block
               | "critical" ["(" IDENT ")"] block
               | "barrier" ";"
               | "for" IDENT "=" expr "to" expr
                       ["reduction" "(" op ":" IDENT ")"] ["nowait"] block
               | "sections" ["nowait"] "{" ("section" block)* "}"
    v}

    Expressions use C precedence; intrinsics are [rank()], [size()],
    [omp_tid()], [omp_nthreads()].  Statement-position identifiers
    [compute(e)], [print(e)] and the [__cc_next]/[__cc_return]/
    [__assert_monothread]/[__count_enter]/[__count_exit] check forms are
    recognised by name. *)

open Ast
open Lexer

exception Parse_error of Loc.t * string

(* The parser reads the token stream by index; a [Loc.t] is built only
   for the AST (statement and function starts) and for errors. *)
type state = { s : Lexer.stream; mutable idx : int }

let error st msg = raise (Parse_error (Lexer.loc st.s st.idx, msg))

let peek st = st.s.toks.(st.idx)

let loc st = Lexer.loc st.s st.idx

let advance st = if st.idx < st.s.len - 1 then st.idx <- st.idx + 1

(* Consumes [tok] if it is next.  Callers pass constant constructors only,
   so physical equality is exact. *)
let accept st tok =
  if peek st == tok then (
    advance st;
    true)
  else false

let eat st tok =
  if not (accept st tok) then
    error st
      (Printf.sprintf "expected '%s' but found '%s'" (token_to_string tok)
         (token_to_string (peek st)))

let eat_ident st =
  match peek st with
  | IDENT x ->
      advance st;
      x
  | t -> error st (Printf.sprintf "expected identifier, found '%s'" (token_to_string t))

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

(* The binary operators of each precedence level, by token. *)
let or_op = function OROR -> Some Or | _ -> None

let and_op = function ANDAND -> Some And | _ -> None

let cmp_op = function
  | EQEQ -> Some Eq
  | NE -> Some Ne
  | LT -> Some Lt
  | LE -> Some Le
  | GT -> Some Gt
  | GE -> Some Ge
  | _ -> None

let add_op = function PLUS -> Some Add | MINUS -> Some Sub | _ -> None

let mul_op = function
  | STAR -> Some Mul
  | SLASH -> Some Div
  | PERCENT -> Some Mod
  | _ -> None

(* Folds a left-associative level: [lhs] followed by [op operand]*. *)
let rec left_assoc st op_of operand lhs =
  match op_of (peek st) with
  | Some op ->
      advance st;
      left_assoc st op_of operand (Binop (op, lhs, operand st))
  | None -> lhs

let rec parse_expr st = left_assoc st or_op parse_and (parse_and st)

and parse_and st = left_assoc st and_op parse_cmp (parse_cmp st)

and parse_cmp st =
  let lhs = parse_add st in
  match cmp_op (peek st) with
  | Some op ->
      advance st;
      Binop (op, lhs, parse_add st)
  | None -> lhs

and parse_add st = left_assoc st add_op parse_mul (parse_mul st)

and parse_mul st = left_assoc st mul_op parse_unary (parse_unary st)

and parse_unary st =
  match peek st with
  | MINUS ->
      advance st;
      Unop (Neg, parse_unary st)
  | BANG ->
      advance st;
      Unop (Not, parse_unary st)
  | _ -> parse_atom st

and parse_atom st =
  match peek st with
  | INT n ->
      advance st;
      Int n
  | TRUE ->
      advance st;
      Bool true
  | FALSE ->
      advance st;
      Bool false
  | LPAREN ->
      advance st;
      let e = parse_expr st in
      eat st RPAREN;
      e
  | IDENT x ->
      advance st;
      if accept st LPAREN then begin
        eat st RPAREN;
        match x with
        | "rank" -> Rank
        | "size" -> Size
        | "omp_tid" -> Tid
        | "omp_nthreads" -> Nthreads
        | _ ->
            error st
              (Printf.sprintf
                 "unknown intrinsic '%s' (function calls are statements)" x)
      end
      else Var x
  | t -> error st (Printf.sprintf "expected expression, found '%s'" (token_to_string t))

(* ------------------------------------------------------------------ *)
(* Collectives                                                         *)
(* ------------------------------------------------------------------ *)

(* Must list exactly [Ast.all_collective_names]. *)
let is_collective_name = function
  | "MPI_Barrier" | "MPI_Bcast" | "MPI_Reduce" | "MPI_Allreduce" | "MPI_Gather"
  | "MPI_Scatter" | "MPI_Allgather" | "MPI_Alltoall" | "MPI_Scan"
  | "MPI_Reduce_scatter" ->
      true
  | _ -> false

let parse_reduce_op st =
  let name = eat_ident st in
  match reduce_op_of_name name with
  | Some op -> op
  | None -> error st (Printf.sprintf "unknown reduction operator '%s'" name)

(** Parses the argument list of collective [name]; the leading ['('] has not
    been consumed. *)
let parse_collective st name =
  eat st LPAREN;
  let c =
    match name with
    | "MPI_Barrier" -> Barrier
    | "MPI_Bcast" ->
        let value = parse_expr st in
        eat st COMMA;
        let root = parse_expr st in
        Bcast { root; value }
    | "MPI_Reduce" ->
        let value = parse_expr st in
        eat st COMMA;
        let op = parse_reduce_op st in
        eat st COMMA;
        let root = parse_expr st in
        Reduce { op; root; value }
    | "MPI_Allreduce" ->
        let value = parse_expr st in
        eat st COMMA;
        let op = parse_reduce_op st in
        Allreduce { op; value }
    | "MPI_Gather" ->
        let value = parse_expr st in
        eat st COMMA;
        let root = parse_expr st in
        Gather { root; value }
    | "MPI_Scatter" ->
        let value = parse_expr st in
        eat st COMMA;
        let root = parse_expr st in
        Scatter { root; value }
    | "MPI_Allgather" ->
        let value = parse_expr st in
        Allgather { value }
    | "MPI_Alltoall" ->
        let value = parse_expr st in
        Alltoall { value }
    | "MPI_Scan" ->
        let value = parse_expr st in
        eat st COMMA;
        let op = parse_reduce_op st in
        Scan { op; value }
    | "MPI_Reduce_scatter" ->
        let value = parse_expr st in
        eat st COMMA;
        let op = parse_reduce_op st in
        Reduce_scatter { op; value }
    | _ -> error st (Printf.sprintf "unknown collective '%s'" name)
  in
  eat st RPAREN;
  c

(* Must list exactly [Ast.all_request_op_names]. *)
let is_request_op_name = function
  | "MPI_Ibarrier" | "MPI_Iallreduce" | "MPI_Isend" | "MPI_Irecv" -> true
  | _ -> false

(** Parses the argument list of split-phase start [name]; the leading
    ['('] has not been consumed.  [MPI_Iallreduce]/[MPI_Irecv] take the
    destination buffer variable as their first argument (the request
    variable itself is on the left of the [=]). *)
let parse_request_op st name =
  eat st LPAREN;
  let rop =
    match name with
    | "MPI_Ibarrier" -> Ibarrier
    | "MPI_Iallreduce" ->
        let target = eat_ident st in
        eat st COMMA;
        let value = parse_expr st in
        eat st COMMA;
        let op = parse_reduce_op st in
        Iallreduce { op; target; value }
    | "MPI_Isend" ->
        let value = parse_expr st in
        eat st COMMA;
        let dest = parse_expr st in
        eat st COMMA;
        let tag = parse_expr st in
        Isend { value; dest; tag }
    | "MPI_Irecv" ->
        let target = eat_ident st in
        eat st COMMA;
        let src = parse_expr st in
        eat st COMMA;
        let tag = parse_expr st in
        Irecv { target; src; tag }
    | _ -> error st (Printf.sprintf "unknown nonblocking operation '%s'" name)
  in
  eat st RPAREN;
  rop

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let rec parse_items st item acc =
  let acc = item st :: acc in
  if accept st COMMA then parse_items st item acc
  else (
    eat st RPAREN;
    List.rev acc)

(** Parses [item ("," item)* ")"] or [")"]: a list whose ['('] has been
    consumed. *)
let parse_list st item = if accept st RPAREN then [] else parse_items st item []

let parse_args st =
  eat st LPAREN;
  parse_list st parse_expr

let parse_check st name =
  let int_arg () =
    eat st LPAREN;
    let n = match peek st with
      | INT n ->
          advance st;
          n
      | _ -> error st "expected integer literal in check"
    in
    eat st RPAREN;
    n
  in
  match name with
  | "__cc_return" ->
      eat st LPAREN;
      eat st RPAREN;
      Cc_return
  | "__cc_next" ->
      eat st LPAREN;
      let color =
        match peek st with
        | INT n ->
            advance st;
            n
        | _ -> error st "expected integer colour in __cc_next"
      in
      eat st COMMA;
      let coll_name =
        match peek st with
        | STRING s ->
            advance st;
            s
        | _ -> error st "expected string collective name in __cc_next"
      in
      eat st RPAREN;
      Cc_next_collective { color; coll_name }
  | "__assert_monothread" -> Assert_monothread { region = int_arg () }
  | "__count_enter" -> Count_enter { region = int_arg () }
  | "__count_exit" -> Count_exit { region = int_arg () }
  | _ -> error st (Printf.sprintf "unknown check '%s'" name)

let is_check_name = function
  | "__cc_next" | "__cc_return" | "__assert_monothread" | "__count_enter"
  | "__count_exit" ->
      true
  | _ -> false

let rec parse_block st =
  eat st LBRACE;
  parse_stmts st []

and parse_stmts st acc =
  if accept st RBRACE then List.rev acc
  else parse_stmts st (parse_stmt st :: acc)

and parse_stmt st =
  let sloc = loc st in
  let mk sdesc = { sdesc; sloc } in
  match peek st with
  | VAR ->
      advance st;
      let x = eat_ident st in
      eat st ASSIGN;
      let e = parse_expr st in
      eat st SEMI;
      mk (Decl (x, e))
  | IF ->
      advance st;
      eat st LPAREN;
      let c = parse_expr st in
      eat st RPAREN;
      let bt = parse_block st in
      let bf = if accept st ELSE then parse_block st else [] in
      mk (If (c, bt, bf))
  | WHILE ->
      advance st;
      eat st LPAREN;
      let c = parse_expr st in
      eat st RPAREN;
      mk (While (c, parse_block st))
  | FOR ->
      advance st;
      let x = eat_ident st in
      eat st ASSIGN;
      let lo = parse_expr st in
      eat st TO;
      let hi = parse_expr st in
      mk (For (x, lo, hi, parse_block st))
  | RETURN ->
      advance st;
      eat st SEMI;
      mk Return
  | PRAGMA -> parse_pragma st sloc
  | IDENT x -> (
      advance st;
      match peek st with
      | ASSIGN -> (
          advance st;
          match peek st with
          | IDENT name when is_collective_name name ->
              advance st;
              let c = parse_collective st name in
              eat st SEMI;
              mk (Coll (Some x, c))
          | IDENT "MPI_Recv" ->
              advance st;
              eat st LPAREN;
              let src = parse_expr st in
              eat st COMMA;
              let tag = parse_expr st in
              eat st RPAREN;
              eat st SEMI;
              mk (Recv { target = x; src; tag })
          | IDENT name when is_request_op_name name ->
              advance st;
              let rop = parse_request_op st name in
              eat st SEMI;
              mk (Istart { req = x; rop })
          | IDENT "MPI_Test" ->
              advance st;
              eat st LPAREN;
              let req = eat_ident st in
              eat st RPAREN;
              eat st SEMI;
              mk (Test { target = x; req })
          | _ ->
              let e = parse_expr st in
              eat st SEMI;
              mk (Assign (x, e)))
      | LPAREN when is_collective_name x ->
          let c = parse_collective st x in
          eat st SEMI;
          mk (Coll (None, c))
      | LPAREN when String.equal x "MPI_Wait" ->
          eat st LPAREN;
          let req = eat_ident st in
          eat st RPAREN;
          eat st SEMI;
          mk (Wait { req })
      | LPAREN when String.equal x "MPI_Send" ->
          eat st LPAREN;
          let value = parse_expr st in
          eat st COMMA;
          let dest = parse_expr st in
          eat st COMMA;
          let tag = parse_expr st in
          eat st RPAREN;
          eat st SEMI;
          mk (Send { value; dest; tag })
      | LPAREN when is_check_name x ->
          let c = parse_check st x in
          eat st SEMI;
          mk (Check c)
      | LPAREN -> (
          let args = parse_args st in
          eat st SEMI;
          match (x, args) with
          | "compute", [ e ] -> mk (Compute e)
          | "print", [ e ] -> mk (Print e)
          | "compute", _ | "print", _ ->
              error st (Printf.sprintf "'%s' takes exactly one argument" x)
          | _ -> mk (Call (x, args)))
      | t ->
          error st
            (Printf.sprintf "unexpected '%s' after identifier '%s'"
               (token_to_string t) x))
  | t -> error st (Printf.sprintf "expected statement, found '%s'" (token_to_string t))

and parse_pragma st sloc =
  let mk sdesc = { sdesc; sloc } in
  eat st PRAGMA;
  eat st OMP;
  match peek st with
  | PARALLEL ->
      advance st;
      let num_threads =
        match peek st with
        | NUM_THREADS ->
            advance st;
            eat st LPAREN;
            let e = parse_expr st in
            eat st RPAREN;
            Some e
        | _ -> None
      in
      mk (Omp_parallel { num_threads; body = parse_block st })
  | SINGLE ->
      advance st;
      let nowait = parse_nowait st in
      mk (Omp_single { nowait; body = parse_block st })
  | MASTER ->
      advance st;
      mk (Omp_master (parse_block st))
  | CRITICAL ->
      advance st;
      let name =
        if accept st LPAREN then (
          let x = eat_ident st in
          eat st RPAREN;
          Some x)
        else None
      in
      mk (Omp_critical (name, parse_block st))
  | BARRIER ->
      advance st;
      eat st SEMI;
      mk Omp_barrier
  | FOR ->
      advance st;
      let var = eat_ident st in
      eat st ASSIGN;
      let lo = parse_expr st in
      eat st TO;
      let hi = parse_expr st in
      let reduction =
        if accept st REDUCTION then begin
          eat st LPAREN;
          let op = parse_reduce_op st in
          eat st COLON;
          let x = eat_ident st in
          eat st RPAREN;
          Some (op, x)
        end
        else None
      in
      let nowait = parse_nowait st in
      mk (Omp_for { var; lo; hi; nowait; reduction; body = parse_block st })
  | SECTIONS ->
      advance st;
      let nowait = parse_nowait st in
      eat st LBRACE;
      mk (Omp_sections { nowait; sections = parse_sections st [] })
  | t ->
      error st
        (Printf.sprintf "unknown OpenMP directive '%s'" (token_to_string t))

and parse_sections st acc =
  match peek st with
  | SECTION ->
      advance st;
      parse_sections st (parse_block st :: acc)
  | RBRACE ->
      advance st;
      List.rev acc
  | t ->
      error st
        (Printf.sprintf "expected 'section' or '}', found '%s'"
           (token_to_string t))

and parse_nowait st = accept st NOWAIT

let parse_func st =
  let floc = loc st in
  eat st FUNC;
  let fname = eat_ident st in
  eat st LPAREN;
  let params = parse_list st eat_ident in
  { fname; params; body = parse_block st; floc }

(** Parse a whole program from a string.
    @raise Parse_error or {!Lexer.Lex_error} on malformed input. *)
let parse_string ?(file = "<string>") src =
  let st = { s = Lexer.scan ~file src; idx = 0 } in
  let rec loop acc =
    match peek st with
    | EOF -> { funcs = List.rev acc }
    | _ -> loop (parse_func st :: acc)
  in
  loop []

(** Parse a program from a file on disk. *)
let parse_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  parse_string ~file:path src

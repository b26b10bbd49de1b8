(** Hand-written lexer for the mini-language surface syntax.

    Supports [//] line comments, [/* ... */] block comments, and an optional
    [#] before [pragma] so that sources can look like real OpenMP code.

    One pass over the string by index fills a token stream held as
    parallel arrays; locations are built only when asked for. *)

type token =
  | INT of int
  | IDENT of string
  | STRING of string
  | FUNC
  | VAR
  | IF
  | ELSE
  | WHILE
  | FOR
  | TO
  | RETURN
  | PRAGMA
  | OMP
  | PARALLEL
  | SINGLE
  | MASTER
  | CRITICAL
  | BARRIER
  | SECTIONS
  | SECTION
  | NUM_THREADS
  | NOWAIT
  | REDUCTION
  | COLON
  | TRUE
  | FALSE
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | COMMA
  | SEMI
  | ASSIGN
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | PERCENT
  | EQEQ
  | NE
  | LT
  | LE
  | GT
  | GE
  | ANDAND
  | OROR
  | BANG
  | EOF

let token_to_string = function
  | INT n -> string_of_int n
  | IDENT s -> s
  | STRING s -> Printf.sprintf "%S" s
  | FUNC -> "func"
  | VAR -> "var"
  | IF -> "if"
  | ELSE -> "else"
  | WHILE -> "while"
  | FOR -> "for"
  | TO -> "to"
  | RETURN -> "return"
  | PRAGMA -> "pragma"
  | OMP -> "omp"
  | PARALLEL -> "parallel"
  | SINGLE -> "single"
  | MASTER -> "master"
  | CRITICAL -> "critical"
  | BARRIER -> "barrier"
  | SECTIONS -> "sections"
  | SECTION -> "section"
  | NUM_THREADS -> "num_threads"
  | NOWAIT -> "nowait"
  | REDUCTION -> "reduction"
  | COLON -> ":"
  | TRUE -> "true"
  | FALSE -> "false"
  | LPAREN -> "("
  | RPAREN -> ")"
  | LBRACE -> "{"
  | RBRACE -> "}"
  | COMMA -> ","
  | SEMI -> ";"
  | ASSIGN -> "="
  | PLUS -> "+"
  | MINUS -> "-"
  | STAR -> "*"
  | SLASH -> "/"
  | PERCENT -> "%"
  | EQEQ -> "=="
  | NE -> "!="
  | LT -> "<"
  | LE -> "<="
  | GT -> ">"
  | GE -> ">="
  | ANDAND -> "&&"
  | OROR -> "||"
  | BANG -> "!"
  | EOF -> "<eof>"

exception Lex_error of Loc.t * string

type stream = {
  file : string;
  toks : token array;
  lines : int array;
  cols : int array;
  len : int;
}

let loc s i = Loc.make ~file:s.file ~line:s.lines.(i) ~col:s.cols.(i)

let keyword = function
  | "func" -> FUNC
  | "var" -> VAR
  | "if" -> IF
  | "else" -> ELSE
  | "while" -> WHILE
  | "for" -> FOR
  | "to" -> TO
  | "return" -> RETURN
  | "pragma" -> PRAGMA
  | "omp" -> OMP
  | "parallel" -> PARALLEL
  | "single" -> SINGLE
  | "master" -> MASTER
  | "critical" -> CRITICAL
  | "barrier" -> BARRIER
  | "sections" -> SECTIONS
  | "section" -> SECTION
  | "num_threads" -> NUM_THREADS
  | "nowait" -> NOWAIT
  | "reduction" -> REDUCTION
  | "true" -> TRUE
  | "false" -> FALSE
  | word -> IDENT word

(* Scanner state.  [bol] is the offset of the current line's first byte,
   so the column of offset [i] is [i - bol + 1]. *)
type scanner = {
  src : string;
  sfile : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;
  mutable stoks : token array;
  mutable slines : int array;
  mutable scols : int array;
  mutable slen : int;
}

let fail sc ~line ~col msg =
  raise (Lex_error (Loc.make ~file:sc.sfile ~line ~col, msg))

let newline sc i =
  sc.line <- sc.line + 1;
  sc.bol <- i + 1

(* Appends [tok], which starts at [line]/[col] and ends before offset
   [stop]. *)
let emit sc tok ~line ~col stop =
  if sc.slen = Array.length sc.stoks then begin
    let grow a = Array.append a (Array.make sc.slen a.(0)) in
    sc.stoks <- grow sc.stoks;
    sc.slines <- grow sc.slines;
    sc.scols <- grow sc.scols
  end;
  sc.stoks.(sc.slen) <- tok;
  sc.slines.(sc.slen) <- line;
  sc.scols.(sc.slen) <- col;
  sc.slen <- sc.slen + 1;
  sc.pos <- stop

let is_digit c = c >= '0' && c <= '9'

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | '0' .. '9' -> true
  | _ -> false

(* Index of the first byte at or after [i] not satisfying [p]. *)
let rec skip_while p src i =
  if i < String.length src && p (String.unsafe_get src i) then
    skip_while p src (i + 1)
  else i

(* Index just past the closing delimiter of a block comment or string
   whose body starts at [i], counting the newlines it spans. *)
let rec close sc ~star i =
  let src = sc.src in
  if i >= String.length src then -1
  else
    match String.unsafe_get src i with
    | '*' when star && i + 1 < String.length src && src.[i + 1] = '/' -> i + 2
    | '"' when not star -> i + 1
    | c ->
        if c = '\n' then newline sc i;
        close sc ~star (i + 1)

(* Decimal value of the digits in [src.[i..stop-1]], or [-1] when it
   exceeds [max_int]. *)
let rec int_value src i stop acc =
  if i = stop then acc
  else
    let d = Char.code src.[i] - 48 in
    if acc > (max_int - d) / 10 then -1
    else int_value src (i + 1) stop ((10 * acc) + d)

let token sc =
  let src = sc.src and i = sc.pos in
  let line = sc.line and col = i - sc.bol + 1 in
  let next = if i + 1 < String.length src then src.[i + 1] else '\000' in
  match src.[i] with
  | '0' .. '9' ->
      let stop = skip_while is_digit src i in
      let n = int_value src i stop 0 in
      if n < 0 then
        fail sc ~line ~col
          (Printf.sprintf "integer literal %s is out of range (max %d)"
             (String.sub src i (stop - i)) max_int);
      emit sc (INT n) ~line ~col stop
  | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
      let stop = skip_while is_ident_char src i in
      emit sc (keyword (String.sub src i (stop - i))) ~line ~col stop
  | '"' ->
      let stop = close sc ~star:false (i + 1) in
      if stop < 0 then fail sc ~line ~col "unterminated string literal";
      emit sc (STRING (String.sub src (i + 1) (stop - i - 2))) ~line ~col stop
  | c ->
      let tok =
        match (c, next) with
        | '=', '=' -> EQEQ
        | '=', _ -> ASSIGN
        | '!', '=' -> NE
        | '!', _ -> BANG
        | '<', '=' -> LE
        | '<', _ -> LT
        | '>', '=' -> GE
        | '>', _ -> GT
        | '&', '&' -> ANDAND
        | '|', '|' -> OROR
        | '(', _ -> LPAREN
        | ')', _ -> RPAREN
        | '{', _ -> LBRACE
        | '}', _ -> RBRACE
        | ',', _ -> COMMA
        | ':', _ -> COLON
        | ';', _ -> SEMI
        | '+', _ -> PLUS
        | '-', _ -> MINUS
        | '*', _ -> STAR
        | '/', _ -> SLASH
        | '%', _ -> PERCENT
        | _ -> fail sc ~line ~col (Printf.sprintf "unexpected character %C" c)
      in
      (* An operator's lexeme is its printed form. *)
      emit sc tok ~line ~col (i + String.length (token_to_string tok))

let scan ~file src =
  let n = String.length src in
  let cap = (n / 4) + 16 in
  let sc =
    {
      src;
      sfile = file;
      pos = 0;
      line = 1;
      bol = 0;
      stoks = Array.make cap EOF;
      slines = Array.make cap 0;
      scols = Array.make cap 0;
      slen = 0;
    }
  in
  while sc.pos < n do
    let i = sc.pos in
    match src.[i] with
    | ' ' | '\t' | '\r' | '#' -> sc.pos <- i + 1
    | '\n' ->
        newline sc i;
        sc.pos <- i + 1
    | '/' when i + 1 < n && src.[i + 1] = '/' ->
        sc.pos <- skip_while (fun c -> c <> '\n') src i
    | '/' when i + 1 < n && src.[i + 1] = '*' ->
        let line = sc.line and col = i - sc.bol + 1 in
        let stop = close sc ~star:true (i + 2) in
        if stop < 0 then fail sc ~line ~col "unterminated block comment";
        sc.pos <- stop
    | _ -> token sc
  done;
  emit sc EOF ~line:sc.line ~col:(n - sc.bol + 1) n;
  { file; toks = sc.stoks; lines = sc.slines; cols = sc.scols; len = sc.slen }

let tokenize ~file src =
  let s = scan ~file src in
  let rec build i acc = if i < 0 then acc else build (i - 1) ((s.toks.(i), loc s i) :: acc) in
  build (s.len - 1) []

(** Hand-written lexer for the mini-language: [//] and [/* */] comments,
    an optional [#] before [pragma], C-like operators, integer and string
    literals. *)

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

val token_to_string : token -> string

exception Lex_error of Loc.t * string

(** A tokenised source: token [i] starts at line [lines.(i)], column
    [cols.(i)] of [file].  Tokens [0 .. len-1] are valid and the last of
    them is [EOF]. *)
type stream = private {
  file : string;
  toks : token array;
  lines : int array;
  cols : int array;
  len : int;
}

(** Tokenise a whole source string in one pass.
    @raise Lex_error on malformed input, including an integer literal
    above [max_int]. *)
val scan : file:string -> string -> stream

(** The location of token [i]. *)
val loc : stream -> int -> Loc.t

(** {!scan} as a list of tokens with their locations. *)
val tokenize : file:string -> string -> (token * Loc.t) list

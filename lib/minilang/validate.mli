(** Semantic validation: scoping, call arity, and the OpenMP nesting
    discipline the PARCOACH analyses assume (perfectly nested fork/join
    regions; no [return] out of constructs; no barrier inside
    single-threaded or worksharing regions; warnings for barriers under
    non-uniform control flow). *)

type severity = Error | Warning

type issue = { severity : severity; loc : Loc.t; message : string }

val pp_issue : issue Fmt.t

val issue_to_string : issue -> string

val errors : issue list -> issue list

val is_valid : issue list -> bool

(** [syntax_errors parse] runs [parse] (a front-end step such as
    {!Parser.parse_file}) and returns a {!Parser.Parse_error} or
    {!Lexer.Lex_error} as its [Error] issue, whose message starts with
    ["parse error: "] or ["lex error: "]. *)
val syntax_errors : (unit -> 'a) -> ('a, issue) result

(** All issues of a program, in source order. *)
val check_program : Ast.program -> issue list

(** @raise Failure with all error messages if the program is invalid. *)
val validate_exn : Ast.program -> issue list

(** Pretty-printer for the mini-language.  The output is valid surface
    syntax: parsing the printed form yields a structurally equal program
    (round-trip property); instrumentation checks print as parseable
    [__cc_next(...)] forms, so instrumented programs can be emitted and
    re-run.  Statements print one per line with two-space indentation;
    lines are never wrapped. *)

val program_to_string : Ast.program -> string

val expr_to_string : Ast.expr -> string

val pp_check : Ast.check Fmt.t

(** Pretty-printer for the mini-language: one [Buffer] emitter.

    The output is valid surface syntax: [Parser.parse_string] of the printed
    form yields a structurally equal program (round-trip property, tested
    with qcheck).  Instrumentation checks print as [__cc_next(...)] etc.,
    which the parser also accepts, so instrumented programs can be emitted
    and re-run.  The form is canonical: two-space indentation, one
    statement per line, and no line is ever wrapped. *)

open Ast

let binop_str = function
  | Add -> " + "
  | Sub -> " - "
  | Mul -> " * "
  | Div -> " / "
  | Mod -> " % "
  | Eq -> " == "
  | Ne -> " != "
  | Lt -> " < "
  | Le -> " <= "
  | Gt -> " > "
  | Ge -> " >= "
  | And -> " && "
  | Or -> " || "

(* Precedence levels, higher binds tighter. *)
let binop_prec = function
  | Or -> 1
  | And -> 2
  | Eq | Ne | Lt | Le | Gt | Ge -> 3
  | Add | Sub -> 4
  | Mul | Div | Mod -> 5

let str = Buffer.add_string

(* [f] on each element of [l], with [sep] in between. *)
let sep_by b sep f l = List.iteri (fun i x -> if i > 0 then str b sep; f x) l

let rec expr_prec b prec = function
  | Int n when n < 0 -> str b "("; str b (string_of_int n); str b ")"
  | Int n -> str b (string_of_int n)
  | Bool x -> str b (string_of_bool x)
  | Var x -> str b x
  | Rank -> str b "rank()"
  | Size -> str b "size()"
  | Tid -> str b "omp_tid()"
  | Nthreads -> str b "omp_nthreads()"
  | Unop (op, e) -> str b (match op with Neg -> "-" | Not -> "!"); expr_prec b 6 e
  | Binop (op, l, r) ->
      let p = binop_prec op in
      if p < prec then str b "(";
      expr_prec b p l;
      str b (binop_str op);
      expr_prec b (p + 1) r;
      if p < prec then str b ")"

let expr b e = expr_prec b 0 e

(* [name(a1, a2, ...)], each [ai] an expression or printed verbatim. *)
let call b name args =
  str b name;
  str b "(";
  sep_by b ", " (function `E e -> expr b e | `V x -> str b x) args;
  str b ")"

let call_stmt b name args = call b name args; str b ";"

let collective b c =
  let name = collective_name c and op o = `V (reduce_op_name o) in
  match c with
  | Barrier -> call b name []
  | Bcast { root; value } | Gather { root; value } | Scatter { root; value } ->
      call b name [ `E value; `E root ]
  | Reduce { op = o; root; value } -> call b name [ `E value; op o; `E root ]
  | Allreduce { op = o; value } | Scan { op = o; value }
  | Reduce_scatter { op = o; value } ->
      call b name [ `E value; op o ]
  | Allgather { value } | Alltoall { value } -> call b name [ `E value ]

let request_op b rop =
  let name = request_op_name rop in
  match rop with
  | Ibarrier -> call b name []
  | Iallreduce { op; target; value } ->
      call b name [ `V target; `E value; `V (reduce_op_name op) ]
  | Isend { value; dest; tag } -> call b name [ `E value; `E dest; `E tag ]
  | Irecv { target; src; tag } -> call b name [ `V target; `E src; `E tag ]

let check b c =
  let int n = `V (string_of_int n) in
  match c with
  | Cc_next_collective { color; coll_name } ->
      call b "__cc_next" [ int color; `V ("\"" ^ coll_name ^ "\"") ]
  | Cc_return -> call b "__cc_return" []
  | Assert_monothread { region } -> call b "__assert_monothread" [ int region ]
  | Count_enter { region } -> call b "__count_enter" [ int region ]
  | Count_exit { region } -> call b "__count_exit" [ int region ]

let indent b n = for _ = 1 to n do str b "  " done

let assign b x = str b x; str b " = "

let rec stmt b n s =
  indent b n;
  match s.sdesc with
  | Decl (x, e) -> str b "var "; assign b x; expr b e; str b ";"
  | Assign (x, e) -> assign b x; expr b e; str b ";"
  | If (c, bt, bf) ->
      str b "if ("; expr b c; str b ") "; block b n bt;
      if bf <> [] then (str b " else "; block b n bf)
  | While (c, body) -> str b "while ("; expr b c; str b ") "; block b n body
  | For (x, lo, hi, body) ->
      str b "for "; for_header b x lo hi; str b " "; block b n body
  | Return -> str b "return;"
  | Call (f, args) -> call_stmt b f (List.map (fun e -> `E e) args)
  | Compute e -> call_stmt b "compute" [ `E e ]
  | Print e -> call_stmt b "print" [ `E e ]
  | Coll (tgt, c) -> Option.iter (assign b) tgt; collective b c; str b ";"
  | Send { value; dest; tag } -> call_stmt b "MPI_Send" [ `E value; `E dest; `E tag ]
  | Recv { target; src; tag } -> assign b target; call_stmt b "MPI_Recv" [ `E src; `E tag ]
  | Istart { req; rop } -> assign b req; request_op b rop; str b ";"
  | Wait { req } -> call_stmt b "MPI_Wait" [ `V req ]
  | Test { target; req } -> assign b target; call_stmt b "MPI_Test" [ `V req ]
  | Omp_parallel { num_threads; body } ->
      str b "pragma omp parallel";
      Option.iter (fun e -> call b " num_threads" [ `E e ]) num_threads;
      str b " ";
      block b n body
  | Omp_single { nowait; body } ->
      str b "pragma omp single"; directive_body b n nowait body
  | Omp_master body -> str b "pragma omp master "; block b n body
  | Omp_critical (name, body) ->
      str b "pragma omp critical";
      Option.iter (fun x -> str b "("; str b x; str b ")") name;
      str b " ";
      block b n body
  | Omp_barrier -> str b "pragma omp barrier;"
  | Omp_for { var; lo; hi; nowait; reduction; body } ->
      str b "pragma omp for ";
      for_header b var lo hi;
      Option.iter
        (fun (op, x) ->
          str b " reduction("; str b (reduce_op_name op); str b ": "; str b x; str b ")")
        reduction;
      directive_body b n nowait body
  | Omp_sections { nowait; sections } ->
      str b "pragma omp sections";
      if nowait then str b " nowait";
      str b " {\n";
      sep_by b "\n"
        (fun sec -> indent b (n + 1); str b "section "; block b (n + 1) sec)
        sections;
      str b "\n";
      indent b n;
      str b "}"
  | Check c -> check b c; str b ";"

and for_header b x lo hi = assign b x; expr b lo; str b " to "; expr b hi

and directive_body b n nowait body =
  if nowait then str b " nowait";
  str b " ";
  block b n body

and block b n = function
  | [] -> str b "{ }"
  | stmts ->
      str b "{\n";
      List.iter (fun s -> stmt b (n + 1) s; str b "\n") stmts;
      indent b n;
      str b "}"

let to_string size emit x =
  let b = Buffer.create size in
  emit b x;
  Buffer.contents b

let program_to_string p =
  let func b f =
    call b ("func " ^ f.fname) (List.map (fun x -> `V x) f.params);
    str b " ";
    block b 0 f.body
  in
  to_string 4096 (fun b p -> sep_by b "\n\n" (func b) p.funcs; str b "\n") p

let expr_to_string e = to_string 64 expr e

let pp_check ppf c = Fmt.string ppf (to_string 64 check c)

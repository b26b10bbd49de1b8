(** Static instrumentation for execution-time verification (§3).

    The static phases may produce false positives (the CFG over-approximates
    the actual control flow), so verification code is generated at the nodes
    they collected:

    - before each collective call of a flagged phase-3 class, a
      [__cc_next(color, name)] check — the [CC] function of PARCOACH: a
      process-wide agreement on the colour of the next collective, aborting
      cleanly on divergence;
    - before each [return] of an instrumented function (and at its end), a
      [__cc_return()] check wrapped in a [single] pragma, since multiple
      threads may reach it;
    - around each phase-1 collective (set [S]/[Sipw]), a
      [__count_enter]/[__count_exit] pair with a per-site counter: the
      number of threads concurrently executing the node is counted
      dynamically, >1 aborts;
    - around each member of a phase-2 concurrency group (set [Scc]), the
      same counters with a per-group id, so two collectives from concurrent
      monothreaded regions colliding at run time abort.

    [Selective] mode instruments only what the static analysis flagged —
    the paper's "cost of the runtime checks is limited by a selective
    instrumentation".  [Exhaustive] mode instruments every collective and
    every function return (the Marmot/MUST-style dynamic-only baseline used
    by the overhead ablation).

    Known limitation (shared with the original tool): the [CC] agreement
    is itself a collective rendezvous.  If a diverging rank is blocked in
    a point-to-point receive whose matching send sits {e behind} another
    rank's CC, the CC cannot complete and the program still deadlocks —
    the checks convert collective-sequence divergence into clean aborts,
    not arbitrary P2P ordering cycles. *)

open Minilang

type mode = Selective | Exhaustive

type site_actions = {
  cc : (int * string) option;  (** (colour, collective name). *)
  counters : int list;  (** Counter region ids wrapping the site. *)
}

(* Keyed by statement identity: AST statements are unique in a program,
   and the CFG references them without copying. *)
let add_action actions stmt f =
  let a =
    Option.value ~default:{ cc = None; counters = [] }
      (Ast.Stmt_tbl.find_opt actions stmt)
  in
  Ast.Stmt_tbl.replace actions stmt (f a)

let stmt_of_node g id =
  match Cfg.Graph.kind g id with
  | Cfg.Graph.Collective { stmt; _ } | Cfg.Graph.Call_site { stmt; _ } -> stmt
  | _ -> invalid_arg "Instrument.stmt_of_node: not a collective or call node"

let collect_actions ?(call_colors = []) (fr : Driver.func_report) mode =
  let g = fr.Driver.graph in
  let actions = Ast.Stmt_tbl.create 16 in
  let coll_info id =
    match Cfg.Graph.kind g id with
    | Cfg.Graph.Collective { coll; _ } ->
        Some (Ast.collective_color coll, Ast.collective_name coll)
    | Cfg.Graph.Call_site { fname; _ } -> (
        (* Interprocedural pseudo-collective: only calls with an assigned
           colour (collective-bearing callees) get a CC. *)
        match List.assoc_opt fname call_colors with
        | Some color -> Some (color, Callgraph.call_site_name fname)
        | None -> None)
    | _ -> None
  in
  (match mode with
  | Selective ->
      (* The CC agreement is itself a process-wide rendezvous, so once a
         function has any flagged phase-3 class, every collective of the
         function gets a CC — otherwise CC calls of one rank would meet
         plain collectives of another.  Functions with no flagged class
         stay uninstrumented: that is the selectivity. *)
      if fr.Driver.cc_sites <> [] then begin
        let cc_nodes =
          Cfg.Graph.collective_nodes g
          @ (if call_colors = [] then []
             else
               Cfg.Graph.filter_nodes g (function
                 | Cfg.Graph.Call_site _ -> true
                 | _ -> false))
        in
        List.iter
          (fun id ->
            match coll_info id with
            | Some info ->
                add_action actions (stmt_of_node g id) (fun a ->
                    { a with cc = Some info })
            | None -> ())
          cc_nodes
      end;
      List.iter
        (fun id ->
          add_action actions (stmt_of_node g id) (fun a ->
              { a with counters = id :: a.counters }))
        fr.Driver.phase1.Monothread.s_mt;
      List.iter
        (fun (gid, members) ->
          List.iter
            (fun id ->
              add_action actions (stmt_of_node g id) (fun a ->
                  { a with counters = gid :: a.counters }))
            members)
        (Concurrency.counter_groups fr.Driver.phase2)
  | Exhaustive ->
      List.iter
        (fun id ->
          match coll_info id with
          | Some info ->
              add_action actions (stmt_of_node g id) (fun a ->
                  { cc = Some info; counters = id :: a.counters })
          | None -> ())
        (Cfg.Graph.collective_nodes g));
  actions

(* Return CCs: on every function in exhaustive mode, on the functions with
   some CC-checked site in selective mode. *)
let needs_return_cc mode actions =
  (match mode with Exhaustive -> true | Selective -> false)
  || Ast.Stmt_tbl.fold (fun _ a acc -> acc || a.cc <> None) actions false

let rec ends_with_return = function
  | [] -> false
  | [ s ] -> ( match s.Ast.sdesc with Ast.Return -> true | _ -> false)
  | _ :: rest -> ends_with_return rest

let cc_return_stmt loc =
  (* "As multiple threads may call CC before return statements, this
     function is wrapped into a single pragma." *)
  Ast.mk ~loc
    (Ast.Omp_single
       { nowait = false; body = [ Ast.mk ~loc (Ast.Check Ast.Cc_return) ] })

let instrument_func ?call_colors (fr : Driver.func_report) mode (func : Ast.func) =
  let actions = collect_actions ?call_colors fr mode in
  let needs_return_cc = needs_return_cc mode actions in
  let rec on_block block = List.concat_map on_stmt block
  and on_stmt s =
    let sdesc =
      match s.Ast.sdesc with
      | Ast.If (c, bt, bf) -> Ast.If (c, on_block bt, on_block bf)
      | Ast.While (c, b) -> Ast.While (c, on_block b)
      | Ast.For (x, lo, hi, b) -> Ast.For (x, lo, hi, on_block b)
      | Ast.Omp_parallel { num_threads; body } ->
          Ast.Omp_parallel { num_threads; body = on_block body }
      | Ast.Omp_single { nowait; body } ->
          Ast.Omp_single { nowait; body = on_block body }
      | Ast.Omp_master body -> Ast.Omp_master (on_block body)
      | Ast.Omp_critical (name, body) -> Ast.Omp_critical (name, on_block body)
      | Ast.Omp_for r -> Ast.Omp_for { r with body = on_block r.body }
      | Ast.Omp_sections { nowait; sections } ->
          Ast.Omp_sections { nowait; sections = List.map on_block sections }
      | ( Ast.Decl _ | Ast.Assign _ | Ast.Return | Ast.Call _ | Ast.Compute _
        | Ast.Print _ | Ast.Coll _ | Ast.Send _ | Ast.Recv _ | Ast.Istart _
        | Ast.Wait _ | Ast.Test _ | Ast.Omp_barrier | Ast.Check _ ) as d ->
          d
    in
    let s' = { s with Ast.sdesc } in
    match s.Ast.sdesc with
    | Ast.Return when needs_return_cc -> [ cc_return_stmt s.Ast.sloc; s' ]
    | _ -> (
        match Ast.Stmt_tbl.find_opt actions s with
        | None -> [ s' ]
        | Some a ->
            let loc = s.Ast.sloc in
            let enters =
              List.map
                (fun region ->
                  Ast.mk ~loc (Ast.Check (Ast.Count_enter { region })))
                a.counters
            in
            let exits =
              List.rev_map
                (fun region ->
                  Ast.mk ~loc (Ast.Check (Ast.Count_exit { region })))
                a.counters
            in
            let cc =
              match a.cc with
              | None -> []
              | Some (color, coll_name) ->
                  [
                    Ast.mk ~loc
                      (Ast.Check (Ast.Cc_next_collective { color; coll_name }));
                  ]
            in
            enters @ cc @ [ s' ] @ exits)
  in
  let body = on_block func.Ast.body in
  let body =
    if needs_return_cc && not (ends_with_return body) then
      body @ [ cc_return_stmt func.Ast.floc ]
    else body
  in
  { func with Ast.body }

(** Instrument a whole program according to an analysis [report].  Raises
    [Invalid_argument] if the report was computed on a different program. *)
let instrument (report : Driver.report) mode =
  let program = report.Driver.program in
  if List.length program.Ast.funcs <> List.length report.Driver.funcs then
    invalid_arg "Instrument.instrument: report does not match program";
  let funcs =
    List.map2
      (fun func fr ->
        if not (String.equal func.Ast.fname fr.Driver.fname) then
          invalid_arg "Instrument.instrument: report does not match program";
        instrument_func ~call_colors:report.Driver.call_colors fr mode func)
      program.Ast.funcs report.Driver.funcs
  in
  { Ast.funcs }

(** Static count of inserted checks, for the code-generation overhead
    figure: (CC checks at collectives, counter pairs, CC return checks). *)
let check_counts (report : Driver.report) mode =
  let ccs = ref 0 and counters = ref 0 and returns = ref 0 in
  List.iter
    (fun fr ->
      let actions = collect_actions ~call_colors:report.Driver.call_colors fr mode in
      Ast.Stmt_tbl.iter
        (fun _ a ->
          if a.cc <> None then incr ccs;
          counters := !counters + List.length a.counters)
        actions;
      if needs_return_cc mode actions then begin
        (* One per return statement plus possibly one at the end. *)
        let func =
          List.find
            (fun f -> String.equal f.Ast.fname fr.Driver.fname)
            report.Driver.program.Ast.funcs
        in
        let return_count =
          Ast.fold_stmts
            (fun n s -> match s.Ast.sdesc with Ast.Return -> n + 1 | _ -> n)
            0 func.Ast.body
        in
        let end_check = if ends_with_return func.Ast.body then 0 else 1 in
        returns := !returns + return_count + end_check
      end)
    report.Driver.funcs;
  (!ccs, !counters, !returns)

(** Rewrites cached warning locations onto the fresh source layout (see
    the interface). *)

open Minilang

let reloc_kind reloc (k : Parcoach.Warning.kind) =
  match k with
  | Parcoach.Warning.Multithreaded_collective _
  | Parcoach.Warning.Level_insufficient _
  | Parcoach.Warning.Word_inconsistency _ ->
      k
  | Parcoach.Warning.Concurrent_collectives c ->
      Parcoach.Warning.Concurrent_collectives
        { c with loc1 = reloc c.loc1; loc2 = reloc c.loc2 }
  | Parcoach.Warning.Collective_mismatch m ->
      Parcoach.Warning.Collective_mismatch
        {
          m with
          sites = List.map reloc m.sites;
          conds = List.map reloc m.conds;
        }
  | Parcoach.Warning.Data_race r ->
      Parcoach.Warning.Data_race
        { r with loc1 = reloc r.loc1; loc2 = reloc r.loc2 }
  | Parcoach.Warning.Request_leak l ->
      Parcoach.Warning.Request_leak
        { l with started = List.map reloc l.started }
  | Parcoach.Warning.Request_double_wait d ->
      Parcoach.Warning.Request_double_wait
        { d with prior = List.map reloc d.prior }
  | Parcoach.Warning.Request_stale_buffer s ->
      Parcoach.Warning.Request_stale_buffer
        { s with started = List.map reloc s.started }
  | Parcoach.Warning.Request_completion_mismatch m ->
      Parcoach.Warning.Request_completion_mismatch
        {
          m with
          sites = List.map reloc m.sites;
          conds = List.map reloc m.conds;
        }

let relocate ~cached ~fresh (fr : Parcoach.Driver.func_report) =
  (* Both functions' statements, last first: the lists correspond 1:1
     (the functions are structurally equal), and walking them backwards
     with [replace] lets the first occurrence in source order win when
     statements share an identity (builder-made code) or a location. *)
  let rev_stmts (f : Ast.func) =
    Ast.fold_stmts (fun acc s -> s :: acc) [] f.Ast.body
  in
  let old_stmts = rev_stmts cached and new_stmts = rev_stmts fresh in
  (* The graph's statements become the fresh function's own: consumers
     that key by statement identity (the instrumentation) then find
     them in the fresh AST. *)
  let stmts = Ast.Stmt_tbl.create (List.length old_stmts) in
  let moved = ref (not (Loc.equal cached.Ast.floc fresh.Ast.floc)) in
  List.iter2
    (fun (o : Ast.stmt) (n : Ast.stmt) ->
      Ast.Stmt_tbl.replace stmts o n;
      if not (Loc.equal o.Ast.sloc n.Ast.sloc) then moved := true)
    old_stmts new_stmts;
  let stmt s = Option.value ~default:s (Ast.Stmt_tbl.find_opt stmts s) in
  if not !moved then
    {
      fr with
      Parcoach.Driver.graph =
        Cfg.Graph.map_stmts ~stmt ~loc:Fun.id fr.Parcoach.Driver.graph;
    }
  else begin
    let map = Hashtbl.create 64 in
    List.iter2
      (fun (o : Ast.stmt) (n : Ast.stmt) -> Hashtbl.replace map o.Ast.sloc n.Ast.sloc)
      old_stmts new_stmts;
    Hashtbl.replace map cached.Ast.floc fresh.Ast.floc;
    let reloc l = Option.value ~default:l (Hashtbl.find_opt map l) in
    let warnings =
      List.sort_uniq
        (fun a b ->
          let c = Parcoach.Warning.compare a b in
          if c <> 0 then c else Stdlib.compare a b)
        (List.map
           (fun (w : Parcoach.Warning.t) ->
             {
               w with
               Parcoach.Warning.loc = reloc w.Parcoach.Warning.loc;
               kind = reloc_kind reloc w.Parcoach.Warning.kind;
             })
           fr.Parcoach.Driver.warnings)
    in
    {
      fr with
      Parcoach.Driver.graph =
        Cfg.Graph.map_stmts ~stmt ~loc:reloc fr.Parcoach.Driver.graph;
      warnings;
    }
  end

(* The same AST: the graph is already over [fresh]. *)
let func_report ~cached ~fresh fr =
  if cached == fresh then fr else relocate ~cached ~fresh fr

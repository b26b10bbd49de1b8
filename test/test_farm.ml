(** Tests for the differential fuzzing farm ([lib/farm]).

    Property: every decision trace — arbitrary integers, arbitrary
    length, with or without an injected fault — decodes to a program
    that validates and whose pretty-printed text parses back to the
    identical AST (the generator is total over the valid space, which is
    what lets the delta debugger shrink traces freely).

    Pipeline: verdicts are deterministic across domain counts, the farm
    agrees with the CLI-equivalent serial baseline, the manifest is
    byte-stable, and a deliberately weakened checker is caught and
    minimized to a small reproducer. *)

let sim_small =
  { Farm.Oracle.default_sim with Farm.Oracle.seeds = [ 1; 2 ] }

let spec_small =
  {
    Farm.Pipeline.default_spec with
    Farm.Pipeline.families = 8;
    variants = 4;
    sim = sim_small;
  }

let nonblank_lines text =
  List.length
    (List.filter
       (fun l -> String.trim l <> "")
       (String.split_on_char '\n' text))

(* ------------------------------------------------------------------ *)
(* Generator properties                                                *)
(* ------------------------------------------------------------------ *)

let gen_trace = QCheck.Gen.(array_size (int_bound 80) (int_range (-3) 40))

let gen_case =
  QCheck.Gen.(
    let* trace = gen_trace in
    let* inject =
      oneof
        [
          return None;
          (let* bug = oneofl Benchsuite.Injector.all in
           let* site = int_bound 100 in
           return (Some (bug, site)));
        ]
    in
    return { Farm.Gen.trace; inject })

let case_print (c : Farm.Gen.case) = Farm.Gen.case_id c

let properties =
  [
    QCheck.Test.make ~count:300 ~name:"every case decodes to a valid program"
      (QCheck.make ~print:case_print gen_case)
      (fun case ->
        let p = Farm.Gen.program case in
        Minilang.Validate.is_valid (Minilang.Validate.check_program p));
    QCheck.Test.make ~count:300
      ~name:"pretty -> parse round-trips to the identical AST"
      (QCheck.make ~print:case_print gen_case)
      (fun case ->
        let p = Farm.Gen.program case in
        let text = Minilang.Pretty.program_to_string p in
        let p' = Minilang.Parser.parse_string ~file:"<farm>" text in
        Minilang.Ast.equal_program p p');
    QCheck.Test.make ~count:100
      ~name:"recorded traces replay to the same program"
      QCheck.(make ~print:string_of_int Gen.small_nat)
      (fun seed ->
        let rng = Random.State.make [| 0xfeed; seed |] in
        let trace = Farm.Gen.random_trace rng in
        let p = Farm.Gen.skeleton trace in
        Minilang.Validate.is_valid (Minilang.Validate.check_program p)
        && Minilang.Ast.equal_program p (Farm.Gen.skeleton trace));
  ]

(* ------------------------------------------------------------------ *)
(* Pipeline tests                                                      *)
(* ------------------------------------------------------------------ *)

let obs_list (r : Farm.Pipeline.result) =
  Array.to_list
    (Array.map (fun (v : Farm.Pipeline.verdict) -> v.Farm.Pipeline.obs)
       r.Farm.Pipeline.verdicts)

(* Instrumented text plus every statement location: the inserted checks
   take the location of the statement they guard. *)
let instrumented_view (report : Parcoach.Driver.report) =
  let p =
    Parcoach.Instrument.instrument report Parcoach.Instrument.Exhaustive
  in
  ( Minilang.Pretty.program_to_string p,
    List.concat_map
      (fun f ->
        List.map (fun s -> s.Minilang.Ast.sloc) (Minilang.Ast.stmts_of_func f))
      p.Minilang.Ast.funcs )

(* Analyze [text] cold, then re-parse [text'] (the same functions, at the
   same or shifted lines) and analyze it reusing the cold summaries
   relocated onto the fresh functions, as the farm and the daemon do. *)
let reused_and_fresh text text' =
  let parse t = Minilang.Parser.parse_string ~file:"<farm>" t in
  let options = Farm.Oracle.options in
  let cold = Parcoach.Driver.analyze ~options (parse text) in
  let program = parse text' in
  let summaries =
    List.combine cold.Parcoach.Driver.program.Minilang.Ast.funcs
      cold.Parcoach.Driver.funcs
  in
  let reuse (f : Minilang.Ast.func) =
    List.find_map
      (fun ((cached : Minilang.Ast.func), fr) ->
        if String.equal cached.Minilang.Ast.fname f.Minilang.Ast.fname then
          Some (Serve.Relocate.func_report ~cached ~fresh:f fr)
        else None)
      summaries
  in
  ( instrumented_view (Parcoach.Driver.analyze ~options ~reuse program),
    instrumented_view (Parcoach.Driver.analyze ~options program) )

let cc_verdicts (r : Farm.Pipeline.result) =
  Array.map
    (fun (v : Farm.Pipeline.verdict) -> v.Farm.Pipeline.obs.Farm.Oracle.cc)
    r.Farm.Pipeline.verdicts

let tests =
  [
    Alcotest.test_case "relocated summaries instrument like fresh analysis"
      `Quick (fun () ->
        let entries = Farm.Pipeline.corpus spec_small in
        Array.iter
          (fun (e : Farm.Pipeline.entry) ->
            let text = Minilang.Pretty.program_to_string e.Farm.Pipeline.program in
            List.iter
              (fun (layout, text') ->
                let reused, fresh = reused_and_fresh text text' in
                Alcotest.(check bool)
                  (Printf.sprintf "entry %d, %s lines" e.Farm.Pipeline.id layout)
                  true (reused = fresh))
              [ ("unchanged", text); ("shifted", "\n\n// moved\n" ^ text) ])
          entries);
    Alcotest.test_case "cc verdicts match the serial baseline (seed 16845392)"
      `Quick (fun () ->
        let spec = { Farm.Pipeline.default_spec with Farm.Pipeline.seed = 16845392 } in
        let serial = cc_verdicts (Farm.Pipeline.run_serial spec) in
        List.iter
          (fun jobs ->
            Array.iteri
              (fun i cc ->
                match cc with
                | None -> ()
                | Some _ ->
                    Alcotest.(check (option (list string)))
                      (Printf.sprintf "jobs %d, entry %d" jobs i)
                      serial.(i) cc)
              (cc_verdicts (Farm.Pipeline.run ~jobs spec)))
          [ 1; 2 ]);
    Alcotest.test_case "verdicts are domain-count invariant" `Quick (fun () ->
        let r1 = Farm.Pipeline.run ~jobs:1 ~shards:4 ~batch:4 spec_small in
        let r2 = Farm.Pipeline.run ~jobs:2 ~shards:4 ~batch:4 spec_small in
        let r3 = Farm.Pipeline.run ~jobs:1 ~shards:2 ~batch:7 spec_small in
        (* 200 is past OCaml's limit on live domains: the fan-out must
           clamp to the cores. *)
        let r4 = Farm.Pipeline.run ~jobs:200 ~shards:4 ~batch:4 spec_small in
        Alcotest.(check bool) "jobs 1 = jobs 2" true
          (obs_list r1 = obs_list r2);
        Alcotest.(check bool) "jobs 1 = jobs 200" true
          (obs_list r1 = obs_list r4);
        Alcotest.(check bool) "shard/batch invariant" true
          (obs_list r1 = obs_list r3));
    Alcotest.test_case "farm agrees with the serial baseline" `Quick
      (fun () ->
        let farm = Farm.Pipeline.run ~jobs:1 spec_small in
        let serial = Farm.Pipeline.run_serial spec_small in
        List.iter2
          (fun f s ->
            Alcotest.(check bool) "obs agree" true
              (Farm.Oracle.obs_agree f s))
          (obs_list farm) (obs_list serial);
        Alcotest.(check int) "clean corpus, no violations" 0
          (List.length farm.Farm.Pipeline.violations));
    Alcotest.test_case "manifest is byte-stable" `Quick (fun () ->
        let m () =
          Farm.Pipeline.manifest ~shards:8 spec_small
            (Farm.Pipeline.fingerprinted (Farm.Pipeline.corpus spec_small))
        in
        let a = m () and b = m () in
        Alcotest.(check string) "identical" a b;
        Alcotest.(check int) "one line per entry + header"
          (spec_small.Farm.Pipeline.families
           * spec_small.Farm.Pipeline.variants
          + 1)
          (nonblank_lines a));
    Alcotest.test_case "timings cover every pipeline stage" `Quick (fun () ->
        let tm = Parcoach.Timings.create () in
        let (_ : Farm.Pipeline.result) =
          Farm.Pipeline.run ~timings:tm ~jobs:1 spec_small
        in
        let phases = List.map fst (Parcoach.Timings.entries tm) in
        List.iter
          (fun phase ->
            Alcotest.(check bool) (phase ^ " recorded") true
              (List.mem phase phases))
          [
            "generate"; "fingerprint"; "validate"; "hash"; "compile";
            "simulate";
          ]);
    Alcotest.test_case "weakened checker is caught and minimized" `Quick
      (fun () ->
        let spec =
          {
            spec_small with
            Farm.Pipeline.families = 6;
            variants = 6;
            handicap = Some Farm.Oracle.Blind_mismatch;
          }
        in
        let entries =
          Farm.Pipeline.fingerprinted (Farm.Pipeline.corpus spec)
        in
        let result = Farm.Pipeline.run_entries ~jobs:1 spec entries in
        Alcotest.(check bool) "drill violations found" true
          (result.Farm.Pipeline.violations <> []);
        let repros =
          Farm.Pipeline.minimized_reproducers ~limit:1 spec result entries
        in
        List.iter
          (fun ( (_ : Farm.Pipeline.entry),
                 (v : Farm.Oracle.violation),
                 case,
                 program ) ->
            Alcotest.(check bool) "still violates" true
              (Farm.Pipeline.violates ~handicap:Farm.Oracle.Blind_mismatch
                 ~sim:spec.Farm.Pipeline.sim ~vkind:v.Farm.Oracle.vkind case);
            Alcotest.(check bool) "reproducer fits in 30 lines" true
              (nonblank_lines (Minilang.Pretty.program_to_string program)
              <= 30))
          repros);
  ]

let suite =
  [
    ("farm.gen", List.map QCheck_alcotest.to_alcotest properties);
    ("farm.pipeline", tests);
  ]

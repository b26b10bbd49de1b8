(** In-memory spans and counters recorded by the benchmark around its
    calls into each layer.  Recording is off in end-to-end runs; a traced
    run switches it on and dumps every span at exit.  Only the main
    domain records: spans wrap calls made by the benchmark, not code
    running inside the libraries' worker domains. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = {
  id : int;
  name : string;
  op : int;  (** Operation (or set-up repetition) the span belongs to. *)
  parent : int;  (** Enclosing span id; 0 at top level. *)
  start_ns : int;
  stop_ns : int;
}

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 1
let current = ref 0
let op = ref 0

(* Per-layer totals: name -> (sum, operations that recorded it, last
   such operation).  Fed by spans and by durations or counts the
   libraries report themselves; a layer reached several times in one
   operation (once per function, say) adds up within it. *)
let totals : (string, float * int * int) Hashtbl.t = Hashtbl.create 64

let add name v =
  if !enabled then
    let s, n, last =
      Option.value ~default:(0., 0, min_int) (Hashtbl.find_opt totals name)
    in
    Hashtbl.replace totals name (s +. v, (if last = !op then n else n + 1), !op)

(** Start a new operation (or set-up repetition): later spans and counts
    belong to it. *)
let next_op =
  let ids = ref 0 in
  fun () ->
    incr ids;
    op := !ids

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current in
    current := id;
    let start_ns = now_ns () in
    let finish () =
      let stop_ns = now_ns () in
      current := parent;
      spans := { id; name; op = !op; parent; start_ns; stop_ns } :: !spans;
      add name (float_of_int (stop_ns - start_ns))
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(** Layer of a phase the libraries time themselves
    ([Parcoach.Timings] names, also the daemon's [timings] object). *)
let layer_of_phase = function
  | "parse" -> Some "minilang.parse"
  | "validate" -> Some "minilang.validate"
  | "cfg" -> Some "cfg.build"
  | ("pword" | "phase1" | "phase2" | "phase3" | "races" | "requests" | "instrument")
    as phase ->
      Some ("parcoach." ^ phase)
  | "render" -> Some "parcoach.json_report"
  | "hash" -> Some "serve.hash"
  | "compile" -> Some "interp.lower"
  | "generate" -> Some "farm.gen"
  | "fingerprint" -> Some "farm.fingerprint"
  | "simulate" -> Some "interp.sim"
  | _ -> None

(** Record self-timed phases [(phase, ns)] under their layers. *)
let add_phases phases =
  List.iter
    (fun (phase, ns) ->
      match layer_of_phase phase with Some layer -> add layer ns | None -> ())
    phases

(** Total recorded under [name] per operation that reached it; 0 when
    none did. *)
let mean name =
  match Hashtbl.find_opt totals name with
  | Some (s, n, _) when n > 0 -> s /. float_of_int n
  | _ -> 0.

let sum name =
  match Hashtbl.find_opt totals name with Some (s, _, _) -> s | None -> 0.

let ratio num den =
  let d = sum den in
  if d > 0. then sum num /. d else 0.

(** Write every span as one JSON object per line. *)
let dump path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"op\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n"
        s.id s.name s.op s.parent s.start_ns s.stop_ns)
    (List.rev !spans);
  close_out oc

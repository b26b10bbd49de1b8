(** The hand-written known answers ([known_answers.json] beside this
    file) every operation's verdict is checked against. *)

module J = Serve.Json

type t = J.t

let load path =
  match J.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)

let path t keys =
  List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some t) keys

(** Expected warning counts per class for an [analyze-cold] input,
    without the zero entries, sorted by class. *)
let analyze t name =
  match path t [ "analyze"; name ] with
  | Some (J.Obj classes) ->
      Some
        (List.sort compare
           (List.filter_map
              (fun (cls, n) ->
                match J.to_int n with
                | Some n when n > 0 -> Some (cls, n)
                | _ -> None)
              classes))
  | _ -> None

(** Expected outcome class of a catalog instance's simulation. *)
let sim t name = Option.bind (path t [ "sim"; name ]) J.to_str

(** Expected streaming-overlay verdict ("match" or "divergence"). *)
let overlay t name = Option.bind (path t [ "overlay"; name ]) J.to_str

(** Outcome classes a reproducer's exploration must reach, sorted. *)
let explore t name mode =
  match path t [ "explore"; name; mode ] with
  | Some (J.List classes) ->
      Some (List.sort compare (List.filter_map J.to_str classes))
  | _ -> None

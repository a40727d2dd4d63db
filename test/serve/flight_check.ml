(* The flight bundles a daemon left under ROOT/flight, as both smokes
   check them: each bundle is its trace.json alone, which passes the
   span validator and names the dump reason; and the daemon root holds
   no heartbeat file. [validate] returns the number of bundles. *)

module J = Ormp_util.Json
module Spans = Ormp_telemetry.Spans

let ( let* ) = Result.bind

let bundle flight name =
  let dir = Filename.concat flight name in
  let fail fmt = Printf.ksprintf (fun m -> Error (Printf.sprintf "flight bundle %s: %s" name m)) fmt in
  let* () =
    match Sys.readdir dir with
    | [| "trace.json" |] -> Ok ()
    | files -> fail "holds %s, not trace.json alone" (String.concat ", " (Array.to_list files))
  in
  match J.of_string (In_channel.with_open_bin (Filename.concat dir "trace.json") In_channel.input_all) with
  | Error e -> fail "trace.json unparsable: %s" e
  | Ok j -> (
    match Spans.validate_json j with
    | Error e -> fail "trace.json invalid: %s" e
    | Ok _ -> (
      match Option.bind (Option.bind (J.member "otherData" j) (J.member "reason")) J.to_str with
      | Some reason when reason <> "" -> Ok ()
      | _ -> fail "trace.json names no dump reason"))

let validate root =
  if Sys.file_exists (Filename.concat root "heartbeat") then
    Error (Printf.sprintf "%s holds a heartbeat file" root)
  else
    let flight = Filename.concat root "flight" in
    let names = if Sys.file_exists flight then Sys.readdir flight else [||] in
    Array.fold_left
      (fun n name ->
        let* n = n in
        let* () = bundle flight name in
        Ok (n + 1))
      (Ok 0) names

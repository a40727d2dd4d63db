module Io = Ormp_workloads.Faults.Io

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Ok s
  | exception Sys_error msg -> Error msg

let write_channel ?io oc s =
  match io with None -> output_string oc s | Some f -> Io.write f oc s

let write_atomic ?io ~path content =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (match
     write_channel ?io oc content;
     flush oc
   with
  | () -> close_out oc
  | exception exn ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise exn);
  (* The rename is what makes the write atomic: readers either see the old
     complete file or the new complete file, never a prefix. *)
  Sys.rename tmp path

let crc_marker = "\n;crc "

let seal payload =
  Printf.sprintf "%s%s%d\n" payload crc_marker (Ormp_util.Crc32.string payload)

(* Last occurrence of [crc_marker] in [data], or -1. Searched from the end
   because a payload is free to contain the marker bytes itself. *)
let last_marker data =
  let m = String.length crc_marker and n = String.length data in
  let rec go i =
    if i < 0 then -1 else if String.sub data i m = crc_marker then i else go (i - 1)
  in
  go (n - m)

(* The trailer is exactly what [seal] writes: the marker, the CRC as
   [Decimal.write] spells it, one newline. *)
let unseal data =
  match last_marker data with
  | -1 -> Error "no CRC trailer"
  | i -> (
    let digits = i + String.length crc_marker and n = String.length data in
    match
      if data.[n - 1] <> '\n' then raise Ormp_util.Decimal.Not_canonical;
      Ormp_util.Decimal.parse data digits (n - 1)
    with
    | exception Ormp_util.Decimal.Not_canonical -> Error "malformed CRC trailer"
    | crc ->
      let payload = String.sub data 0 i in
      let actual = Ormp_util.Crc32.string payload in
      if actual <> crc then Error (Printf.sprintf "CRC mismatch: file %d, computed %d" crc actual)
      else Ok payload)

let save_sealed ?io path write x =
  write_atomic ?io ~path (seal (Ormp_util.Sexp.Writer.render write x))

let load_sealed path read =
  Result.bind (read_file path) (fun data ->
      Result.bind (unseal data) (fun payload -> Ormp_util.Sexp.Reader.run payload read))

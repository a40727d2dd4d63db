(* The trace-line codec as it was before lines were rendered in place:
   [event_line] through [Printf.sprintf], [parse_line] through
   [String.split_on_char]. Preserved verbatim as the reference oracle for
   the equivalence properties in [test_trace.ml] (same pattern as
   persist_legacy.ml): every journal line, every wire [Ev] payload and
   every parse must equal what these produce. Not linked into the
   library. Do not modernize. *)

module Event = Ormp_trace.Event

let event_line (ev : Event.t) =
  match ev with
  | Access { instr; addr; size; is_store } ->
    Printf.sprintf "A %d %d %d %d\n" instr addr size (if is_store then 1 else 0)
  | Alloc { site; addr; size; type_name } ->
    Printf.sprintf "+ %d %d %d %s\n" site addr size
      (match type_name with None -> "-" | Some t -> t)
  | Free { addr; site = None } -> Printf.sprintf "- %d\n" addr
  | Free { addr; site = Some site } -> Printf.sprintf "- %d %d\n" addr site

let parse_line line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "A"; instr; addr; size; st ] -> (
    match (int_of_string_opt instr, int_of_string_opt addr, int_of_string_opt size, st) with
    | Some instr, Some addr, Some size, ("0" | "1") ->
      Ok (Event.Access { instr; addr; size; is_store = st = "1" })
    | _ -> Error "malformed access")
  | "+" :: site :: addr :: size :: rest -> (
    let type_name =
      match rest with [] | [ "-" ] -> None | parts -> Some (String.concat " " parts)
    in
    match (int_of_string_opt site, int_of_string_opt addr, int_of_string_opt size) with
    | Some site, Some addr, Some size -> Ok (Event.Alloc { site; addr; size; type_name })
    | _ -> Error "malformed alloc")
  | [ "-"; addr ] -> (
    match int_of_string_opt addr with
    | Some addr -> Ok (Event.Free { addr; site = None })
    | None -> Error "malformed free")
  | [ "-"; addr; site ] -> (
    match (int_of_string_opt addr, int_of_string_opt site) with
    | Some addr, Some site -> Ok (Event.Free { addr; site = Some site })
    | _ -> Error "malformed free")
  | _ -> Error "unrecognized event"

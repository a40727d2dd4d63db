type entry = { name : string; size : int }
type placement = { entry : entry; address : int }

let default_base = 0x0804_8000

let assign ?(base = default_base) ?(align = 8) ?(gap = 0) entries =
  if align <= 0 then invalid_arg "Layout.assign: bad alignment";
  let round_up n = (n + align - 1) / align * align in
  let _, rev =
    List.fold_left
      (fun (cursor, acc) entry ->
        if entry.size <= 0 then invalid_arg "Layout.assign: entry size must be positive";
        let address = round_up cursor in
        (address + entry.size + gap, { entry; address } :: acc))
      (base, []) entries
  in
  List.rev rev

let segment_end = function
  | [] -> default_base
  | placements ->
    List.fold_left (fun acc p -> max acc (p.address + p.entry.size)) 0 placements

module W = Ormp_util.Sexp.Writer

let first_diff a b =
  let n = min (String.length a) (String.length b) in
  let i = ref 0 in
  while !i < n && a.[!i] = b.[!i] do
    incr i
  done;
  !i

let excerpt s i =
  let lo = max 0 (i - 40) in
  let hi = min (String.length s) (i + 40) in
  String.sub s lo (hi - lo)

let check ~what a b =
  if String.equal a b then Ok ()
  else
    let i = first_diff a b in
    Error
      (Printf.sprintf "%s profiles differ at byte %d (%d vs %d bytes): ...%s... vs ...%s..."
         what i (String.length a) (String.length b) (excerpt a i) (excerpt b i))

let rasg a b =
  let render = W.render Ormp_persist.Rasg_io.write in
  check ~what:"rasg" (render a) (render b)

let leap a b =
  let render = W.render Ormp_persist.Leap_io.write in
  check ~what:"leap" (render a) (render b)

let whomp (a : Ormp_whomp.Whomp.profile) (b : Ormp_whomp.Whomp.profile) =
  let render = W.render Ormp_persist.Whomp_io.write in
  match check ~what:"whomp" (render a) (render b) with
  | Ok () -> Ok ()
  | Error e ->
    (* Narrow the report to the first differing dimension grammar, when the
       profiles are at least shaped alike. *)
    let rec narrow = function
      | (na, ga) :: ra, (nb, gb) :: rb ->
        if na <> nb then Error (Printf.sprintf "%s (dimension order: %S vs %S)" e na nb)
        else if
          W.render Ormp_persist.Grammar_io.write (na, ga)
          <> W.render Ormp_persist.Grammar_io.write (nb, gb)
        then Error (Printf.sprintf "%s (first divergent dimension: %S)" e na)
        else narrow (ra, rb)
      | _ -> Error e
    in
    narrow (a.Ormp_whomp.Whomp.dims, b.Ormp_whomp.Whomp.dims)

(* Slicing-by-4 CRC-32 (the IEEE 802.3 / zlib polynomial, reflected form
   0xEDB88320). OCaml ints are at least 63 bits, so the 32-bit value is
   kept in the low bits of a plain [int]; all operations below stay within
   32 bits.

   [tables] holds four 256-entry tables back to back. Table 0 is the
   classic bytewise table; table k advances a byte's contribution through
   k more zero bytes, so four table lookups fold four input bytes into the
   register in one step. *)

let poly = 0xEDB88320

(* Built eagerly at module init: a [lazy] here gets forced from several
   domains at once (daemon + clients all encode frames), and a racy
   first force raises in OCaml 5. 1024 ints are cheaper than the guard. *)
let tables =
  let t = Array.make 1024 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then poly lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 3 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

let update_sub crc b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg "Crc32.update_sub";
  let t = tables in
  let c = ref ((crc lxor 0xFFFFFFFF) land 0xFFFFFFFF) in
  let i = ref off in
  let stop4 = off + (len land lnot 3) and stop = off + len in
  while !i < stop4 do
    let x =
      !c
      lxor (Char.code (Bytes.unsafe_get b !i)
           lor (Char.code (Bytes.unsafe_get b (!i + 1)) lsl 8)
           lor (Char.code (Bytes.unsafe_get b (!i + 2)) lsl 16)
           lor (Char.code (Bytes.unsafe_get b (!i + 3)) lsl 24))
    in
    c :=
      Array.unsafe_get t (768 + (x land 0xff))
      lxor Array.unsafe_get t (512 + ((x lsr 8) land 0xff))
      lxor Array.unsafe_get t (256 + ((x lsr 16) land 0xff))
      lxor Array.unsafe_get t (x lsr 24);
    i := !i + 4
  done;
  while !i < stop do
    c :=
      Array.unsafe_get t ((!c lxor Char.code (Bytes.unsafe_get b !i)) land 0xff) lxor (!c lsr 8);
    incr i
  done;
  !c lxor 0xFFFFFFFF

let update crc s = update_sub crc (Bytes.unsafe_of_string s) 0 (String.length s)
let string s = update 0 s

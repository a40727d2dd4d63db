(* lint:hot-path *)

(* "00" "01" ... "99": two digits per division. *)
let digit_pairs =
  String.init 200 (fun i -> Char.chr (48 + if i land 1 = 0 then i / 20 else i / 2 mod 10))

let max_length = String.length (string_of_int min_int)

(* Digits of the non-positive [m]: the first power of ten it does not
   reach. Up to 13 digits by a tree of comparisons (a loop with a
   multiply per digit made every profile save ~20% slower); wider values
   count on from 10^13. 10^18 is the largest power below [max_int], and
   every int has at most 19 digits. *)
let rec count_from m p d = if d = 19 || m > -p then d else count_from m (p * 10) (d + 1)

let count m =
  if m > -100_000_000 then
    if m > -10_000 then
      if m > -100 then if m > -10 then 1 else 2 else if m > -1_000 then 3 else 4
    else if m > -1_000_000 then if m > -100_000 then 5 else 6
    else if m > -10_000_000 then 7
    else 8
  else if m > -10_000_000_000 then if m > -1_000_000_000 then 9 else 10
  else if m > -100_000_000_000 then 11
  else if m > -1_000_000_000_000 then 12
  else count_from m 10_000_000_000_000 13

(* Digits are produced right to left from the non-positive value, so
   [min_int] needs no special case: each remainder [q * 100 - m] lies in
   [0, 99]. *)
let write b off n =
  let m = if n < 0 then n else -n in
  let stop = off + count m + Bool.to_int (n < 0) in
  if off < 0 || stop > Bytes.length b then invalid_arg "Decimal.write";
  if n < 0 then Bytes.unsafe_set b off '-';
  let i = ref stop and m = ref m in
  while !m <= -100 do
    let q = !m / 100 in
    let r = 2 * ((q * 100) - !m) in
    i := !i - 2;
    Bytes.unsafe_set b !i (String.unsafe_get digit_pairs r);
    Bytes.unsafe_set b (!i + 1) (String.unsafe_get digit_pairs (r + 1));
    m := q
  done;
  if !m <= -10 then begin
    let r = -2 * !m in
    Bytes.unsafe_set b (!i - 2) (String.unsafe_get digit_pairs r);
    Bytes.unsafe_set b (!i - 1) (String.unsafe_get digit_pairs (r + 1))
  end
  else Bytes.unsafe_set b (!i - 1) (Char.unsafe_chr (48 - !m));
  stop

exception Not_canonical

(* [min_int = 10 * min_div10 - min_mod10]. *)
let min_div10 = min_int / 10
let min_mod10 = -(min_int mod 10)

(* The digits [s.[i, e)] accumulated negatively onto [acc], so that
   [min_int] is reachable. *)
let rec digits s i e acc =
  if i = e then acc
  else
    let d = Char.code (String.unsafe_get s i) - 48 in
    if d < 0 || d > 9 || acc < min_div10 || (acc = min_div10 && d > min_mod10) then
      raise Not_canonical
    else digits s (i + 1) e ((acc * 10) - d)

let parse s a e =
  if a < 0 || e > String.length s then raise Not_canonical;
  let neg = a < e && String.unsafe_get s a = '-' in
  let d = if neg then a + 1 else a in
  if d >= e || (String.unsafe_get s d = '0' && (neg || e - d > 1)) then raise Not_canonical;
  let v = digits s d e 0 in
  if neg then v else if v = min_int then raise Not_canonical else -v

type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

let next t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* 62 usable non-negative bits; modulo bias is negligible for the bounds
     used in this code base (all far below 2^40). *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let int_in t lo hi =
  if lo > hi then invalid_arg "Prng.int_in: lo > hi";
  lo + int t (hi - lo + 1)

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  bound *. (v /. 9007199254740992.0 (* 2^53 *))

let chance t p = float t 1.0 < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Prng.choose: empty array";
  a.(int t (Array.length a))

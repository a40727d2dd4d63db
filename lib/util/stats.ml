let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
    let m = mean xs in
    let var = mean (List.map (fun x -> (x -. m) *. (x -. m)) xs) in
    sqrt var

let sorted xs = List.sort compare xs

let median xs =
  match sorted xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let percentile xs p =
  match sorted xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    let idx = max 0 (min (n - 1) (rank - 1)) in
    a.(idx)

let geomean = function
  | [] -> 0.0
  | xs ->
    let logs = List.map log xs in
    exp (mean logs)

let rec gcd a b =
  let a = abs a and b = abs b in
  if b = 0 then a else gcd b (a mod b)

(* A running gcd is most often a power of two that already divides the
   next step; [gcd] would spend two divisions to return it unchanged. The
   mask test also passes [g = 0] (with [d = 0] only) and [g = min_int]
   (with [d] 0 or [min_int] only), and [gcd] returns [g] for those too. *)
let[@inline] gcd_step g d = if g land (g - 1) = 0 && d land (g - 1) = 0 then g else gcd g d

let rec egcd a b =
  if b = 0 then
    if a >= 0 then (a, 1, 0) else (-a, -1, 0)
  else
    let g, x, y = egcd b (a mod b) in
    (g, y, x - (a / b * y))

let fdiv a b =
  if b <= 0 then invalid_arg "Stats.fdiv: b must be positive";
  if a >= 0 then a / b else -(((-a) + b - 1) / b)

let cdiv a b =
  if b <= 0 then invalid_arg "Stats.cdiv: b must be positive";
  if a >= 0 then (a + b - 1) / b else -((-a) / b)

type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }

let length t = t.len

let grow t v =
  let cap = Array.length t.data in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let nd = Array.make ncap v in
  Array.blit t.data 0 nd 0 t.len;
  t.data <- nd

let push t v =
  if t.len = Array.length t.data then grow t v;
  t.data.(t.len) <- v;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get: index out of bounds";
  t.data.(i)

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let fold_left f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let to_array t = Array.sub t.data 0 t.len

let clear t = t.len <- 0

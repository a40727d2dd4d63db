type t = {
  group : int;
  affinities : ((int * int) * int) list;
  order : int list;
}

let pair_key a b = if a <= b then (a, b) else (b, a)

(* Accesses closer than this count as affine. *)
let window = 8

let analyze (c : Collect.t) ~group =
  let aff = Hashtbl.create 256 in
  let bump k = Hashtbl.replace aff k (1 + Option.value ~default:0 (Hashtbl.find_opt aff k)) in
  let tuples = c.Collect.tuples in
  let n = Array.length tuples in
  for i = 0 to n - 1 do
    let a = tuples.(i) in
    if a.Ormp_core.Tuple.group = group then
      for j = i + 1 to min (n - 1) (i + window) do
        let b = tuples.(j) in
        if b.Ormp_core.Tuple.group = group && b.Ormp_core.Tuple.obj <> a.Ormp_core.Tuple.obj
        then bump (pair_key a.Ormp_core.Tuple.obj b.Ormp_core.Tuple.obj)
      done
  done;
  let affinities =
    Hashtbl.fold (fun k w acc -> (k, w) :: acc) aff []
    |> List.sort (fun (_, w1) (_, w2) -> compare w2 w1)
  in
  (* Greedy chain layout: walk pairs by weight; each pair joins, extends or
     merges clusters. Final order concatenates clusters by total weight,
     then any untouched objects in serial order. *)
  let population =
    List.fold_left
      (fun acc (l : Ormp_core.Omc.lifetime) -> if l.group = group then max acc (l.serial + 1) else acc)
      0 c.Collect.lifetimes
  in
  let cluster_of = Hashtbl.create 64 in
  let clusters : (int, int list ref) Hashtbl.t = Hashtbl.create 64 in
  let next_cluster = ref 0 in
  List.iter
    (fun ((a, b), _) ->
      match (Hashtbl.find_opt cluster_of a, Hashtbl.find_opt cluster_of b) with
      | None, None ->
        let id = !next_cluster in
        incr next_cluster;
        Hashtbl.replace clusters id (ref [ b; a ]);
        Hashtbl.replace cluster_of a id;
        Hashtbl.replace cluster_of b id
      | Some ca, None ->
        (Hashtbl.find clusters ca) := b :: !(Hashtbl.find clusters ca);
        Hashtbl.replace cluster_of b ca
      | None, Some cb ->
        (Hashtbl.find clusters cb) := a :: !(Hashtbl.find clusters cb);
        Hashtbl.replace cluster_of a cb
      | Some ca, Some cb when ca <> cb ->
        let la = Hashtbl.find clusters ca and lb = Hashtbl.find clusters cb in
        la := !lb @ !la;
        List.iter (fun x -> Hashtbl.replace cluster_of x ca) !lb;
        Hashtbl.remove clusters cb
      | Some _, Some _ -> ())
    affinities;
  let clustered =
    Hashtbl.fold (fun _ l acc -> List.rev !l :: acc) clusters []
    |> List.sort (fun a b -> compare (List.length b) (List.length a))
    |> List.concat
  in
  let seen = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace seen s ()) clustered;
  let rest = List.filter (fun s -> not (Hashtbl.mem seen s)) (List.init population Fun.id) in
  { group; affinities; order = clustered @ rest }

type layout = (int * int, int) Hashtbl.t

let align16 n = (n + 15) / 16 * 16

let base_address = 0x1000_0000

let sequential_layout (c : Collect.t) =
  let layout = Hashtbl.create 256 in
  let cursor = ref base_address in
  List.iter
    (fun (l : Ormp_core.Omc.lifetime) ->
      Hashtbl.replace layout (l.group, l.serial) !cursor;
      cursor := align16 (!cursor + l.size))
    c.Collect.lifetimes;
  layout

let clustered_layout (c : Collect.t) proposals =
  let layout = Hashtbl.create 256 in
  let cursor = ref base_address in
  let place group serial =
    if not (Hashtbl.mem layout (group, serial)) then begin
      match Collect.size_of c ~group ~obj:serial with
      | size ->
        Hashtbl.replace layout (group, serial) !cursor;
        cursor := align16 (!cursor + size)
      | exception Not_found -> ()
    end
  in
  List.iter (fun t -> List.iter (place t.group) t.order) proposals;
  List.iter
    (fun (l : Ormp_core.Omc.lifetime) -> place l.group l.serial)
    c.Collect.lifetimes;
  layout

let replay_miss_rate ?(cache = Ormp_cachesim.Cache.l1d) (c : Collect.t) layout =
  let sim = Ormp_cachesim.Cache.create cache in
  Array.iter
    (fun (tu : Ormp_core.Tuple.t) ->
      match Hashtbl.find_opt layout (tu.group, tu.obj) with
      | Some base -> ignore (Ormp_cachesim.Cache.access sim ~addr:(base + tu.offset) ~size:8)
      | None -> ())
    c.Collect.tuples;
  Ormp_cachesim.Cache.miss_rate sim

(* Machine-readable run log for the benchmark harness: the section wall
   times plus one named JSON block per reporting section, written as
   BENCH_ormp.json with one top-level member per line (schema in
   README.md). Each section builds its own block; the log only orders and
   renders them. *)

module J = Ormp_util.Json

type t = {
  mode : string;  (** "fast" or "paper" *)
  mutable sections : (string * float) list;  (** reverse execution order *)
  mutable blocks : (string * J.t) list;
}

let create ~mode = { mode; sections = []; blocks = [] }

let add_section t name wall_s = t.sections <- (name, wall_s) :: t.sections

(* Adds the top-level member [key]. List members accumulate: Table 1 and
   the scaling sweep both contribute [dilation] rows. *)
let add t key v =
  match (List.assoc_opt key t.blocks, v) with
  | Some (J.List old), J.List rows ->
    t.blocks <-
      List.map (fun (k, b) -> if k = key then (k, J.List (old @ rows)) else (k, b)) t.blocks
  | _ -> t.blocks <- t.blocks @ [ (key, v) ]

(* The file's member order, whatever order the sections ran in; a block
   missing here goes last. *)
let layout =
  [
    "hotpath"; "micro"; "recovery"; "telemetry"; "scaling"; "modelcheck"; "serve"; "observe";
    "suites"; "dilation";
  ]

let members t =
  let rank (k, _) = Option.value ~default:max_int (List.find_index (( = ) k) layout) in
  ("mode", J.String t.mode)
  :: ( "sections",
       J.List
         (List.rev_map
            (fun (name, s) -> J.Obj [ ("name", J.String name); ("wall_s", J.Float s) ])
            t.sections) )
  :: List.stable_sort (fun a b -> compare (rank a) (rank b)) t.blocks

let write t path =
  let line (k, v) = Printf.sprintf "  %s: %s" (J.to_string (J.String k)) (J.to_string v) in
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc "{\n%s\n}\n" (String.concat ",\n" (List.map line (members t))));
  Printf.printf "[wrote %s]\n%!" path

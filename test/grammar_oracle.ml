(* The listing-level oracle for Sequitur grammars: the algorithm's two
   defining constraints plus structural sanity, checked on a
   [Sequitur.rules] listing alone, so tests can hand-corrupt a grammar.

   [check ?input_length rules] is [Error] for a duplicate, dangling or
   cyclic rule, a missing start rule, a rule used fewer than twice
   (utility), a non-start rule shorter than a digram, or — when
   [input_length] is given — an expansion of another length. Otherwise
   it is [Ok n], where [n] counts the repeated digrams: a pair of
   adjacent symbols met again after its first occurrence, except the
   overlapping occurrence a run of equal symbols produces ("aaa" holds
   aa at positions 0 and 1, which share the middle symbol; the classic
   algorithm leaves those alone).

   Sequitur's output can hold repeated digrams, and tests pin how many.
   The cause is the overlap rule. In a run [a a a], [check] declines the
   second [a a] because it overlaps the first, and never binds it. If
   the first occurrence later loses its digram, nothing re-checks the
   survivor, so later copies of [a a] never match it. The stream
   1 2 2 2 1 2 3 2 2 leaves R0 -> R1 2 2 R1 3 2 2 in both the arena and
   [Sequitur_legacy]. *)

type rules = (int * [ `T of int | `N of int ] list) list

let check ?input_length (rules : rules) =
  let ( let* ) = Result.bind in
  let errf fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let* n =
    Ormp_sequitur.Sequitur.expansion_length
      ~bound:(Option.value input_length ~default:max_int)
      rules
  in
  let refs = Hashtbl.create 64 in
  List.iter
    (fun (_, rhs) ->
      List.iter
        (function
          | `N r -> Hashtbl.replace refs r (1 + Option.value ~default:0 (Hashtbl.find_opt refs r))
          | `T _ -> ())
        rhs)
    rules;
  let* () =
    List.fold_left
      (fun acc (id, rhs) ->
        let* () = acc in
        let uses = Option.value ~default:0 (Hashtbl.find_opt refs id) in
        if id <> 0 && uses < 2 then errf "rule R%d used %d time(s), utility requires 2" id uses
        else if id <> 0 && List.length rhs < 2 then
          errf "rule R%d has %d symbol(s), rules describe digrams or longer" id
            (List.length rhs)
        else Ok ())
      (Ok ()) rules
  in
  let digrams = Hashtbl.create 256 in
  let repeated = ref 0 in
  List.iter
    (fun (id, rhs) ->
      let arr = Array.of_list rhs in
      for p = 0 to Array.length arr - 2 do
        let d = (arr.(p), arr.(p + 1)) in
        match Hashtbl.find_opt digrams d with
        | Some (r0, p0) when not (r0 = id && p = p0 + 1) -> incr repeated
        | _ -> Hashtbl.replace digrams d (id, p)
      done)
    rules;
  match input_length with
  | Some len when len <> n -> errf "expansion length %d, input length %d" n len
  | _ -> Ok !repeated

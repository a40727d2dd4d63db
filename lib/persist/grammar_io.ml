module W = Ormp_util.Sexp.Writer
module R = Ormp_util.Sexp.Reader
module Seq_c = Ormp_sequitur.Sequitur

(* One grammar as [(grammar (dim <name>) (rule <id> <sym>...)...)]:
   terminals are bare ints, non-terminals [R<id>] atoms. Rules stream
   straight from {!Ormp_sequitur.Sequitur.visit_rules} into the writer —
   ascending-id order, no intermediate listing, nothing allocated per
   symbol. *)
let write w (name, g) =
  W.nested w "grammar";
  W.flat w "dim";
  W.atom w name;
  W.close w;
  Seq_c.visit_rules g
    ~rule:(fun id ->
      W.flat w "rule";
      W.int w id)
    ~terminal:(fun v -> W.int w v)
    ~nonterminal:(fun id -> W.prefixed w 'R' id)
    ~rule_end:(fun _ -> W.close w);
  W.close w

let read_rule r =
  R.flat r "rule";
  let id = R.int r in
  let rhs = ref [] in
  while R.more r do
    rhs := (if R.next_is r 'R' then `N (R.prefixed r 'R') else `T (R.int r)) :: !rhs
  done;
  R.close r;
  (id, List.rev !rhs)

(* {!Ormp_sequitur.Sequitur.of_rules} measures the listing against the
   count its file records before anything expands, so a listing that
   doubles at every rule fails in O(listing), and refuses any listing
   other than the one the rebuild holds. *)
let read r ~length ~exact =
  R.nested r "grammar";
  R.flat r "dim";
  let dim = R.atom r in
  R.close r;
  let rules = R.repeated r "rule" read_rule in
  R.close r;
  match Seq_c.of_rules ~bound:length rules with
  | Ok g when exact && Seq_c.input_length g <> length ->
    R.fail r
      (Printf.sprintf "grammar %s: expands to %d symbols, not %d" dim (Seq_c.input_length g)
         length)
  | Ok g -> (dim, g)
  | Error e -> R.fail r (Printf.sprintf "grammar %s: %s" dim e)

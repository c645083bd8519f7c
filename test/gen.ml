(* Random generators shared by the property-based tests.

   The domains are deliberately tiny (ints 0..4, four strings) so random
   tuples collide often: equality paths of Pareto / prioritized accumulation
   and duplicate handling get exercised constantly. *)

open Pref_relation
open Preferences
module G = QCheck.Gen

let schema =
  Schema.make
    [
      ("a", Value.TInt);
      ("b", Value.TInt);
      ("c", Value.TStr);
      ("d", Value.TFloat);
    ]

let int_values = List.init 5 (fun i -> Value.Int i)
let str_values = List.map (fun s -> Value.Str s) [ "x"; "y"; "z"; "w" ]
let float_values = List.map (fun f -> Value.Float f) [ 0.0; 0.5; 1.0; 2.5 ]

let values_of_attr = function
  | "a" | "b" -> int_values
  | "c" -> str_values
  | "d" -> float_values
  | a -> invalid_arg ("Gen.values_of_attr: " ^ a)

let value_on attr = G.oneofl (values_of_attr attr)

let tuple =
  G.map
    (fun (a, b, c, d) -> Tuple.make [ a; b; c; d ])
    (G.quad (G.oneofl int_values) (G.oneofl int_values) (G.oneofl str_values)
       (G.oneofl float_values))

let rows = G.list_size (G.int_range 0 24) tuple
let nonempty_rows = G.list_size (G.int_range 1 24) tuple

let subset_of values =
  let n = List.length values in
  G.map
    (fun mask -> List.filteri (fun i _ -> (mask lsr i) land 1 = 1) values)
    (G.int_range 0 ((1 lsl n) - 1))

let pow3 n = int_of_float (Float.pow 3.0 (float_of_int n))

(* Two disjoint subsets of the attribute's values: each value independently
   lands in the first set, the second set, or neither (base-3 digits). *)
let two_disjoint_subsets attr =
  let values = values_of_attr attr in
  let n = List.length values in
  G.map
    (fun bits ->
      let digit i = bits / pow3 i mod 3 in
      let pick which = List.filteri (fun i _ -> digit i = which) values in
      (pick 1, pick 2))
    (G.int_range 0 (pow3 n - 1))

let named_scores =
  [
    ("mod2", fun v -> match Value.as_float v with Some f -> Float.rem f 2.0 | None -> -1.0);
    ("negate", fun v -> match Value.as_float v with Some f -> -.f | None -> -100.0);
    ("ident", fun v -> match Value.as_float v with Some f -> f | None -> -100.0);
  ]

let score_pref_on attr =
  G.map
    (fun (name, f) -> Pref.score attr ~name f)
    (G.oneofl named_scores)

let explicit_pref_on attr =
  (* A random acyclic edge list: order the attribute's values and add edges
     only from later (worse) to earlier (better) values. *)
  let values = Array.of_list (values_of_attr attr) in
  let n = Array.length values in
  G.map
    (fun mask ->
      let edges = ref [] in
      let k = ref 0 in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if (mask lsr !k) land 1 = 1 then
            edges := (values.(j), values.(i)) :: !edges;
          incr k
        done
      done;
      match !edges with
      | [] -> Pref.pos attr [ values.(0) ] (* avoid empty explicit graphs *)
      | es -> Pref.explicit attr es)
    (G.int_range 1 ((1 lsl (n * (n - 1) / 2)) - 1))

let two_graphs_pref_on attr =
  (* one chain edge in the POS graph when possible, the rest as singles *)
  G.map
    (fun (s1, s2) ->
      match s1 with
      | worse :: better :: rest ->
        Pref.two_graphs ~attr
          ~pos_edges:[ (worse, better) ]
          ~pos_singles:rest ~neg_singles:s2 ()
      | _ -> Pref.two_graphs ~attr ~pos_singles:s1 ~neg_singles:s2 ())
    (two_disjoint_subsets attr)

let base_pref_on attr =
  let values = values_of_attr attr in
  let numeric = attr <> "c" in
  let non_numeric =
    [
      G.map (fun s -> Pref.pos attr s) (subset_of values);
      G.map (fun s -> Pref.neg attr s) (subset_of values);
      G.map
        (fun (p, n) -> Pref.pos_neg attr ~pos:p ~neg:n)
        (two_disjoint_subsets attr);
      G.map
        (fun (p1, p2) -> Pref.pos_pos attr ~pos1:p1 ~pos2:p2)
        (two_disjoint_subsets attr);
      explicit_pref_on attr;
      two_graphs_pref_on attr;
    ]
  in
  let numeric_gens =
    [
      G.map (fun z -> Pref.around attr (float_of_int z)) (G.int_range 0 4);
      G.map2
        (fun l u ->
          Pref.between attr
            ~low:(float_of_int (min l u))
            ~up:(float_of_int (max l u)))
        (G.int_range 0 4) (G.int_range 0 4);
      G.return (Pref.lowest attr);
      G.return (Pref.highest attr);
      score_pref_on attr;
    ]
  in
  G.oneof (if numeric then non_numeric @ numeric_gens else non_numeric)

let any_attr = G.oneofl [ "a"; "b"; "c"; "d" ]
let numeric_attr = G.oneofl [ "a"; "b"; "d" ]

let base_pref = G.(any_attr >>= base_pref_on)

let combine_fns =
  [
    Pref.weighted_sum 1.0 1.0;
    Pref.weighted_sum 1.0 2.0;
    { Pref.cname = "min"; combine = Float.min };
  ]

let rec pref_sized n =
  if n <= 0 then base_pref
  else
    G.frequency
      [
        (3, base_pref);
        (2, G.map2 Pref.pareto (pref_sized (n / 2)) (pref_sized (n / 2)));
        (2, G.map2 Pref.prior (pref_sized (n / 2)) (pref_sized (n / 2)));
        (1, G.map Pref.dual (pref_sized (n - 1)));
        ( 1,
          G.(any_attr >>= fun a ->
              G.map2
                (fun p q -> Pref.inter p q)
                (base_pref_on a) (base_pref_on a)) );
        ( 1,
          G.(numeric_attr >>= fun a ->
              G.(numeric_attr >>= fun b ->
                  G.map3
                    (fun f p q -> Pref.rank f p q)
                    (G.oneofl combine_fns)
                    (scorable_on a) (scorable_on b))) );
        (1, G.map (fun a -> Pref.antichain [ a ]) any_attr);
      ]

and scorable_on attr =
  G.oneof
    [
      G.map (fun z -> Pref.around attr (float_of_int z)) (G.int_range 0 4);
      G.return (Pref.lowest attr);
      G.return (Pref.highest attr);
      score_pref_on attr;
    ]

let pref = pref_sized 4

let arb_of gen pp = QCheck.make gen ~print:(Fmt.str "%a" pp)

let arb_pref = arb_of pref Show.pp
let arb_tuple = arb_of tuple Tuple.pp
let arb_rows = arb_of rows (Fmt.Dump.list Tuple.pp)
let arb_nonempty_rows = arb_of nonempty_rows (Fmt.Dump.list Tuple.pp)

let arb_pref_rows =
  arb_of
    (G.pair pref rows)
    (Fmt.Dump.pair Show.pp (Fmt.Dump.list Tuple.pp))

let arb_pref2_rows =
  arb_of
    (G.triple pref pref rows)
    (fun ppf (p, q, rs) ->
      Fmt.pf ppf "(%a, %a, %a)" Show.pp p Show.pp q (Fmt.Dump.list Tuple.pp) rs)

let arb_pref3_rows =
  arb_of
    (G.quad pref pref pref rows)
    (fun ppf (p, q, r, rs) ->
      Fmt.pf ppf "(%a, %a, %a, %a)" Show.pp p Show.pp q Show.pp r
        (Fmt.Dump.list Tuple.pp) rs)

(* Preferences over disjoint attribute sets, for the decomposition
   theorems. *)
let disjoint_pref_pair =
  G.oneof
    [
      G.map2 (fun p q -> (p, q)) (base_pref_on "a") (base_pref_on "b");
      G.map2 (fun p q -> (p, q)) (base_pref_on "a") (base_pref_on "c");
      G.map2 (fun p q -> (p, q)) (base_pref_on "c") (base_pref_on "d");
      G.map2
        (fun p q -> (p, q))
        (G.map2 Pref.pareto (base_pref_on "a") (base_pref_on "b"))
        (base_pref_on "c");
      G.map2
        (fun p q -> (p, q))
        (base_pref_on "a")
        (G.map2 Pref.prior (base_pref_on "b") (base_pref_on "c"));
    ]

let arb_disjoint_prefs_rows =
  arb_of
    (G.pair disjoint_pref_pair rows)
    (fun ppf ((p, q), rs) ->
      Fmt.pf ppf "(%a, %a, %a)" Show.pp p Show.pp q (Fmt.Dump.list Tuple.pp) rs)

(* Alcotest testables *)

let relation_testable =
  Alcotest.testable Table_fmt.pp Relation.equal_as_sets

let tuple_testable = Alcotest.testable Tuple.pp Tuple.equal

let value_testable = Alcotest.testable Value.pp Value.equal

let rel rows = Relation.make schema rows

let quick name f = Alcotest.test_case name `Quick f
let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

(* The test binary switches the process-wide result cache off before any
   suite runs (see main.ml), so every oracle evaluates; this module is
   initialised earlier and records the state the library starts in.
   [with_cache f] runs [f] with the cache on and empty, then switches it
   off and empties it again. *)
let cache_enabled_at_start = Pref_bmo.Cache.is_enabled ()

let with_cache f =
  Pref_bmo.Cache.clear Pref_bmo.Cache.global;
  Pref_bmo.Cache.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Pref_bmo.Cache.set_enabled false;
      Pref_bmo.Cache.clear Pref_bmo.Cache.global)
    f

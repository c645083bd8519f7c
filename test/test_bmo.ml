open Pref_relation
open Preferences
open Pref_bmo

let check = Alcotest.(check bool)
let check_rel = Alcotest.check Gen.relation_testable

(* --- Example 8: BMO over EXPLICIT ---------------------------------- *)

let colour_schema = Schema.make [ ("color", Value.TStr) ]
let c s = Tuple.make [ Value.Str s ]
let v s = Value.Str s

let example1_pref =
  Pref.explicit "color"
    [ (v "green", v "yellow"); (v "green", v "red"); (v "yellow", v "white") ]

let test_example8 () =
  let r = Relation.make colour_schema (List.map c [ "yellow"; "red"; "green"; "black" ]) in
  let result = Query.sigma colour_schema example1_pref r in
  check_rel "sigma = {yellow, red}"
    (Relation.make colour_schema [ c "yellow"; c "red" ])
    result;
  (* red is a perfect match: it is maximal in the whole domain of wishes *)
  let perfect =
    Query.perfect_matches colour_schema example1_pref
      ~ideal:(fun t ->
        Quality.level example1_pref (Tuple.get t 0) = Some 1)
      r
  in
  check_rel "perfect match = {red}" (Relation.make colour_schema [ c "red" ]) perfect

(* --- Example 9: non-monotonicity ------------------------------------ *)

let cars_schema =
  Schema.make
    [
      ("fuel_economy", Value.TInt);
      ("insurance_rating", Value.TInt);
      ("nickname", Value.TStr);
    ]

let car (f, i, n) = Tuple.make [ Value.Int f; Value.Int i; Value.Str n ]

let frog = car (100, 3, "frog")
let cat = car (50, 3, "cat")
let shark = car (50, 10, "shark")
let turtle = car (100, 10, "turtle")

let p_example9 =
  Pref.pareto (Pref.highest "fuel_economy") (Pref.highest "insurance_rating")

let test_example9 () =
  let q cars = Query.sigma cars_schema p_example9 (Relation.make cars_schema cars) in
  check_rel "two cars" (Relation.make cars_schema [ frog ]) (q [ frog; cat ]);
  check_rel "three cars"
    (Relation.make cars_schema [ frog; shark ])
    (q [ frog; cat; shark ]);
  check_rel "four cars"
    (Relation.make cars_schema [ turtle ])
    (q [ frog; cat; shark; turtle ])

(* --- Example 10: grouped prioritized evaluation ---------------------- *)

let make_schema =
  Schema.make [ ("make", Value.TStr); ("price", Value.TInt); ("oid", Value.TInt) ]

let offer (m, p, o) = Tuple.make [ Value.Str m; Value.Int p; Value.Int o ]

let offers =
  List.map offer
    [ ("Audi", 40000, 1); ("BMW", 35000, 2); ("VW", 20000, 3); ("BMW", 50000, 4) ]

let test_example10 () =
  let rel = Relation.make make_schema offers in
  let p1 = Pref.antichain [ "make" ] and p2 = Pref.around "price" 40000. in
  let result = Query.sigma make_schema (Pref.prior p1 p2) rel in
  let expected =
    Relation.make make_schema
      (List.map offer [ ("Audi", 40000, 1); ("BMW", 35000, 2); ("VW", 20000, 3) ])
  in
  check_rel "one offer per make around 40000" expected result;
  (* the same through the groupby evaluation of Proposition 10's right side *)
  check_rel "groupby form"
    expected
    (fst
       (Query.sigma_groupby_within ~deadline:Engine.no_deadline
          { Engine.default with cache = false }
          make_schema p2 ~by:[ "make" ] rel));
  (* and Definition 16's declarative form *)
  check_rel "antichain form" expected
    (Groupby.query_via_antichain make_schema p2 ~by:[ "make" ] rel)

(* --- Example 11: Pareto of dual chains ------------------------------- *)

let test_example11 () =
  let schema = Schema.make [ ("a", Value.TInt) ] in
  let t n = Tuple.make [ Value.Int n ] in
  let r = Relation.make schema [ t 3; t 6; t 9 ] in
  let p1 = Pref.lowest "a" and p2 = Pref.highest "a" in
  let pareto = Pref.pareto p1 p2 in
  check_rel "sigma[P1 (x) P2](R) = R" r (Query.sigma schema pareto r);
  (* the YY term contains exactly {6} *)
  let yy = Decompose.yy schema (Pref.prior p1 p2) (Pref.prior p2 p1) r in
  Alcotest.(check int) "|YY| = 1" 1 (List.length yy);
  Alcotest.check Gen.tuple_testable "YY = {6}" (t 6) (List.hd yy);
  (* and the decomposition-based evaluator agrees *)
  check_rel "decompose agrees" r (Decompose.eval schema pareto r)

(* --- Algorithms agree on random inputs ------------------------------- *)

let count = 300

let prop_bnl_agrees =
  QCheck.Test.make ~count ~name:"BNL = naive on random preferences"
    Gen.arb_pref_rows
    (fun (p, rows) ->
      let dom = Dominance.of_pref Gen.schema p in
      let a = Naive.maxima dom rows and b = Bnl.maxima dom rows in
      List.sort Tuple.compare a = List.sort Tuple.compare b)

let prop_groupby_forms_agree =
  QCheck.Test.make ~count:150
    ~name:"groupby = sigma[A<-> & P] (definition 16)"
    Gen.arb_pref_rows
    (fun (p, rows) ->
      let rel = Gen.rel rows in
      let by = [ "a" ] in
      Relation.equal_as_sets
        (Groupby.query Gen.schema p ~by rel)
        (Groupby.query_via_antichain Gen.schema p ~by rel))

let prop_equiv_implies_same_bmo =
  (* Proposition 7: equivalent preferences give identical BMO results. *)
  QCheck.Test.make ~count:150 ~name:"proposition 7 via the rewriter"
    Gen.arb_pref_rows
    (fun (p, rows) ->
      let rel = Gen.rel rows in
      let q = Rewrite.simplify p in
      Relation.equal_as_sets
        (Query.sigma Gen.schema p rel)
        (Query.sigma Gen.schema q rel))

let prop_result_nonempty =
  QCheck.Test.make ~count:150 ~name:"BMO never returns empty on non-empty R"
    Gen.arb_pref_rows
    (fun (p, rows) ->
      rows = [] || not (Relation.is_empty (Query.sigma Gen.schema p (Gen.rel rows))))

let prop_result_subset =
  QCheck.Test.make ~count:150 ~name:"BMO result is a subset of R"
    Gen.arb_pref_rows
    (fun (p, rows) ->
      let rel = Gen.rel rows in
      List.for_all (Relation.mem rel) (Relation.rows (Query.sigma Gen.schema p rel)))

let prop_no_dominated_results =
  QCheck.Test.make ~count:150 ~name:"no result tuple is dominated"
    Gen.arb_pref_rows
    (fun (p, rows) ->
      let rel = Gen.rel rows in
      let dom = Dominance.of_pref Gen.schema p in
      let res = Relation.rows (Query.sigma Gen.schema p rel) in
      List.for_all (fun t -> not (List.exists (fun u -> dom u t) rows)) res)

(* --- SFS and D&C on numeric Pareto ----------------------------------- *)

let num_schema = Schema.make [ ("x", Value.TFloat); ("y", Value.TFloat); ("z", Value.TFloat) ]

let arb_points =
  QCheck.make
    ~print:(Fmt.str "%a" (Fmt.Dump.list Tuple.pp))
    QCheck.Gen.(
      list_size (int_range 0 60)
        (map
           (fun (a, b, c) ->
             Tuple.make
               [
                 Value.Float (float_of_int a);
                 Value.Float (float_of_int b);
                 Value.Float (float_of_int c);
               ])
           (triple (int_range 0 6) (int_range 0 6) (int_range 0 6))))

let skyline_pref =
  Pref.pareto_all [ Pref.highest "x"; Pref.highest "y"; Pref.highest "z" ]

let prop_sfs_agrees =
  QCheck.Test.make ~count ~name:"SFS = naive on numeric Pareto" arb_points
    (fun rows ->
      let dom = Dominance.of_pref num_schema skyline_pref in
      let key = Sfs.sum_key num_schema [ "x"; "y"; "z" ] ~maximize:true in
      List.sort Tuple.compare (Naive.maxima dom rows)
      = List.sort Tuple.compare (Sfs.maxima ~key dom rows))

let prop_dnc_agrees =
  QCheck.Test.make ~count ~name:"D&C = naive on numeric Pareto" arb_points
    (fun rows ->
      let dom = Dominance.of_pref num_schema skyline_pref in
      let dims = Dnc.dims_of num_schema [ "x"; "y"; "z" ] ~maximize:true in
      List.sort Tuple.compare (Naive.maxima dom rows)
      = List.sort Tuple.compare (Dnc.maxima ~dims rows))

let test_dnc_minimize () =
  let rel =
    Relation.make num_schema
      (List.map
         (fun (a, b, c) ->
           Tuple.make [ Value.Float a; Value.Float b; Value.Float c ])
         [ (1., 1., 1.); (2., 2., 2.); (1., 3., 1.) ])
  in
  let p =
    Pref.pareto_all [ Pref.lowest "x"; Pref.lowest "y"; Pref.lowest "z" ]
  in
  let result =
    Planner.execute num_schema p rel
      (Planner.Plan_dnc { attrs = [ "x"; "y"; "z" ]; maximize = false })
  in
  Alcotest.(check int) "only the all-1 point survives" 1 (Relation.cardinality result)

let suite =
  [
    Gen.quick "example 8: BMO and perfect match" test_example8;
    Gen.quick "example 9: non-monotonicity" test_example9;
    Gen.quick "example 10: grouped evaluation" test_example10;
    Gen.quick "example 11: pareto of dual chains" test_example11;
    Gen.quick "D&C minimize" test_dnc_minimize;
  ]
  @ Gen.qsuite
      [
        prop_bnl_agrees;
        prop_groupby_forms_agree;
        prop_equiv_implies_same_bmo;
        prop_result_nonempty;
        prop_result_subset;
        prop_no_dominated_results;
        prop_sfs_agrees;
        prop_dnc_agrees;
      ]

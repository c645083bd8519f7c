(* Benchmark & reproduction harness.

   The paper ("Foundations of Preferences in Database Systems") contains no
   numbered tables or performance figures; its evaluation artifacts are
   eleven worked examples with expected better-than graphs / query results,
   thirteen propositions, and the quantitative claims discussed in §5.5/§6
   (BMO result sizes of "a few to a few dozen" on car databases [KFH01],
   and the skyline-algorithm behaviour of [BKS01]/[KLP75] it builds on).
   Each section below regenerates one of those artifacts and checks it
   against the paper; see DESIGN.md §3 for the experiment index and
   EXPERIMENTS.md for recorded results.

   Run with:  dune exec bench/main.exe            (full run)
              dune exec bench/main.exe -- --quick (smaller sweeps)
              dune exec bench/main.exe -- --smoke (~1 min subset)  *)

open Pref_relation
open Preferences
open Pref_bmo

let smoke = Array.exists (fun a -> a = "--smoke") Sys.argv
let quick = smoke || Array.exists (fun a -> a = "--quick") Sys.argv

let failures = ref 0
let checks = ref 0
let skips = ref 0

let check name ok =
  incr checks;
  if not ok then begin
    incr failures;
    Fmt.pr "  [FAIL] %s@." name
  end
  else Fmt.pr "  [ok]   %s@." name

(* a gate whose precondition the host does not meet (e.g. too few cores)
   must still leave a visible mark in CI logs *)
let skip name reason =
  incr skips;
  Fmt.pr "  [SKIP] %s (%s)@." name reason

let section title =
  Fmt.pr "@.=== %s ===@." title

let hr () = Fmt.pr "-----------------------------------------------------------@."

(* ------------------------------------------------------------------ *)
(* Bechamel helpers                                                    *)

let bechamel_run tests =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let quota = if quick then 0.15 else 0.4 in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None ()
  in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"" tests) in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      match Analyze.OLS.estimates ols with
      | Some [ ns ] -> (name, ns) :: acc
      | _ -> acc)
    results []
  |> List.sort compare

let pp_ns ppf ns =
  if ns >= 1e9 then Fmt.pf ppf "%8.2f s " (ns /. 1e9)
  else if ns >= 1e6 then Fmt.pf ppf "%8.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Fmt.pf ppf "%8.2f us" (ns /. 1e3)
  else Fmt.pf ppf "%8.2f ns" ns

(* monotonic wall-clock milliseconds via the telemetry layer (replaces the
   old CPU-time [Sys.time] deltas) *)
let wall f = Pref_obs.Span.timed f

let median xs = List.nth (List.sort Float.compare xs) (List.length xs / 2)

(* ------------------------------------------------------------------ *)
(* E1 — Example 1: EXPLICIT colour preference                          *)

let v s = Value.Str s
let vi n = Value.Int n

let e1 () =
  section "E1  Example 1: EXPLICIT(Color) better-than graph";
  let p =
    Pref.explicit "color"
      [ (v "green", v "yellow"); (v "green", v "red"); (v "yellow", v "white") ]
  in
  let expected =
    [ ("white", 1); ("red", 1); ("yellow", 2); ("green", 3); ("brown", 4); ("black", 4) ]
  in
  List.iter
    (fun (c, l) ->
      Fmt.pr "  %-8s level %d (paper: %d)@." c
        (Option.get (Quality.level p (v c)))
        l)
    expected;
  check "levels match the paper's figure"
    (List.for_all (fun (c, l) -> Quality.level p (v c) = Some l) expected)

(* ------------------------------------------------------------------ *)
(* E2/E4 — Examples 2 and 4: Pareto and prioritized graphs             *)

let schema3 =
  Schema.make [ ("a1", Value.TInt); ("a2", Value.TInt); ("a3", Value.TInt) ]

let vals_e2 =
  [ (-5, 3, 4); (-5, 4, 4); (5, 1, 8); (5, 6, 6); (-6, 0, 6); (-6, 0, 4); (6, 2, 7) ]

let mk3 (a, b, c) = Tuple.make [ vi a; vi b; vi c ]
let r3 = Relation.make schema3 (List.map mk3 vals_e2)
let val3 i = mk3 (List.nth vals_e2 (i - 1))

let p1 = Pref.around "a1" 0.
let p2 = Pref.lowest "a2"
let p3 = Pref.highest "a3"

let graph_levels schema p rel =
  let g = Show.better_than_graph schema p rel in
  fun t -> Pref_order.Graph.level_of g t

let show_levels name schema p rel vals expected =
  Fmt.pr "  %s@." name;
  let level = graph_levels schema p rel in
  let ok = ref true in
  List.iter
    (fun (i, l) ->
      let got = level (vals i) in
      if got <> l then ok := false;
      Fmt.pr "    val%d: level %d (paper: %d)@." i got l)
    expected;
  !ok

let e2 () =
  section "E2  Example 2: Pareto accumulation (P1 (x) P2) (x) P3";
  let p4 = Pref.pareto (Pref.pareto p1 p2) p3 in
  let ok =
    show_levels "better-than graph of P4 over R" schema3 p4 r3 val3
      [ (1, 1); (3, 1); (5, 1); (2, 2); (4, 2); (6, 2); (7, 2) ]
  in
  check "Pareto-optimal set = {val1, val3, val5}, rest at level 2" ok

let e4 () =
  section "E4  Example 4: prioritized accumulation P8 = P1 & P2, P9 = (P1 (x) P2) & P3";
  let ok8 =
    show_levels "P8 graph" schema3 (Pref.prior p1 p2) r3 val3
      [ (1, 1); (3, 1); (2, 2); (4, 2); (5, 3); (6, 3); (7, 3) ]
  in
  let ok9 =
    show_levels "P9 graph" schema3
      (Pref.prior (Pref.pareto p1 p2) p3)
      r3 val3
      [ (1, 1); (3, 1); (5, 1); (2, 2); (4, 2); (7, 2); (6, 2) ]
  in
  check "P8 graph matches (3 levels)" ok8;
  check "P9 graph matches (2 levels)" ok9

(* ------------------------------------------------------------------ *)
(* E3 — Example 3: Pareto on a shared attribute                        *)

let e3 () =
  section "E3  Example 3: Pareto on the shared attribute Color";
  let colour_schema = Schema.make [ ("color", Value.TStr) ] in
  let c s = Tuple.make [ v s ] in
  let rel =
    Relation.make colour_schema
      (List.map c [ "red"; "green"; "yellow"; "blue"; "black"; "purple" ])
  in
  let p5 = Pref.pos "color" [ v "green"; v "yellow" ] in
  let p6 = Pref.neg "color" [ v "red"; v "green"; v "blue"; v "purple" ] in
  let p7 = Pref.pareto p5 p6 in
  let level = graph_levels colour_schema p7 rel in
  let expected =
    [ ("yellow", 1); ("green", 1); ("black", 1); ("red", 2); ("blue", 2); ("purple", 2) ]
  in
  List.iter
    (fun (col, l) -> Fmt.pr "  %-7s level %d (paper: %d)@." col (level (c col)) l)
    expected;
  check "non-discriminating compromise levels"
    (List.for_all (fun (col, l) -> level (c col) = l) expected)

(* ------------------------------------------------------------------ *)
(* E5 — Example 5: rank(F) with a weighted sum                          *)

let e5 () =
  section "E5  Example 5: numerical accumulation rank(F), F = x1 + 2*x2";
  let schema2 = Schema.make [ ("a1", Value.TInt); ("a2", Value.TInt) ] in
  let mk2 (a, b) = Tuple.make [ vi a; vi b ] in
  let vals2 = [ (-5, 3); (-5, 4); (5, 1); (5, 6); (-6, 0); (-6, 0) ] in
  let rel = Relation.distinct (Relation.make schema2 (List.map mk2 vals2)) in
  let f1 = Pref.score "a1" ~name:"dist0" (fun x -> Pref.distance_around x 0.) in
  let f2 = Pref.score "a2" ~name:"dist-2" (fun x -> Pref.distance_around x (-2.)) in
  let p = Pref.rank (Pref.weighted_sum 1. 2.) f1 f2 in
  let score =
    Option.get (Pref.score_via (fun t a -> Tuple.get_by_name schema2 t a) p)
  in
  let expected_scores = [ 15.; 17.; 11.; 21.; 10.; 10. ] in
  List.iteri
    (fun i s ->
      Fmt.pr "  F-val%d = %g (paper: %g)@." (i + 1)
        (score (mk2 (List.nth vals2 i)))
        s)
    expected_scores;
  let level = graph_levels schema2 p rel in
  let expected_levels = [ (4, 1); (2, 2); (1, 3); (3, 4); (5, 5) ] in
  check "F-values match"
    (List.for_all2
       (fun (pair : int * int) s -> score (mk2 pair) = s)
       vals2 expected_scores);
  check "5-level graph val4 -> val2 -> val1 -> val3 -> {val5, val6}"
    (List.for_all
       (fun (i, l) -> level (mk2 (List.nth vals2 (i - 1))) = l)
       expected_levels)

(* ------------------------------------------------------------------ *)
(* E6 — Example 6: the preference-engineering scenario                  *)

let e6 () =
  section "E6  Example 6: preference engineering (Julia, Leslie, Michael)";
  let cars = Pref_workload.Cars.relation ~seed:2002 ~n:(if quick then 200 else 1000) () in
  let schema = Relation.schema cars in
  let p1 = Pref.pos_pos "category" ~pos1:[ v "cabriolet" ] ~pos2:[ v "roadster" ] in
  let p2 = Pref.pos "transmission" [ v "automatic" ] in
  let p3 = Pref.around "horsepower" 100. in
  let p4 = Pref.lowest "price" in
  let p5 = Pref.neg "color" [ v "gray" ] in
  let p6 = Pref.highest "year" in
  let p7 = Pref.highest "commission" in
  let q1 = Pref.prior p5 (Pref.prior (Pref.pareto_all [ p1; p2; p3 ]) p4) in
  let q2 = Pref.prior (Pref.prior q1 p6) p7 in
  let p8 = Pref.pos_neg "color" ~pos:[ v "blue" ] ~neg:[ v "gray"; v "red" ] in
  let q1s = Pref.prior (Pref.pareto_all [ p5; p8; p4 ]) (Pref.pareto_all [ p1; p2; p3 ]) in
  let q2s = Pref.prior (Pref.prior q1s p6) p7 in
  let run name q =
    let r = Query.sigma schema q cars in
    Fmt.pr "  %-4s -> %3d of %d cars@." name (Relation.cardinality r)
      (Relation.cardinality cars);
    r
  in
  let rq1 = run "Q1" q1 in
  let rq2 = run "Q2" q2 in
  let rq1s = run "Q1*" q1s in
  let rq2s = run "Q2*" q2s in
  check "no query crashes or returns empty despite conflicting preferences"
    (List.for_all
       (fun r -> not (Relation.is_empty r))
       [ rq1; rq2; rq1s; rq2s ]);
  check "vendor refinement Q2 never grows Q1 (filter chain, prop 13c)"
    (Relation.cardinality rq2 <= Relation.cardinality rq1
    && Relation.cardinality rq2s <= Relation.cardinality rq1s)

(* ------------------------------------------------------------------ *)
(* E7 — Example 7: the non-discrimination theorem on Car-DB            *)

let e7 () =
  section "E7  Example 7: non-discrimination theorem on Car-DB";
  let schema = Schema.make [ ("price", Value.TInt); ("mileage", Value.TInt) ] in
  let mk (p, m) = Tuple.make [ vi p; vi m ] in
  let car_db =
    [ (40000, 15000); (35000, 30000); (20000, 10000); (15000, 35000); (15000, 30000) ]
  in
  let rel = Relation.make schema (List.map mk car_db) in
  let p1 = Pref.lowest "price" and p2 = Pref.lowest "mileage" in
  let pareto = Pref.pareto p1 p2 in
  let level = graph_levels schema pareto rel in
  Fmt.pr "  P1 (x) P2 levels: val3=%d val5=%d val1=%d val2=%d val4=%d@."
    (level (mk (20000, 10000)))
    (level (mk (15000, 30000)))
    (level (mk (40000, 15000)))
    (level (mk (35000, 30000)))
    (level (mk (15000, 35000)));
  check "maxima are {val3, val5}"
    (Relation.equal_as_sets
       (Query.sigma schema pareto rel)
       (Relation.make schema [ mk (20000, 10000); mk (15000, 30000) ]));
  check "P1 (x) P2 == (P1 & P2) <> (P2 & P1) on Car-DB"
    (Equiv.agree schema (Relation.rows rel) pareto
       (Pref.inter (Pref.prior p1 p2) (Pref.prior p2 p1)))

(* ------------------------------------------------------------------ *)
(* E8 — Example 8: BMO over EXPLICIT                                   *)

let e8 () =
  section "E8  Example 8: BMO query over the EXPLICIT preference";
  let schema = Schema.make [ ("color", Value.TStr) ] in
  let c s = Tuple.make [ v s ] in
  let p =
    Pref.explicit "color"
      [ (v "green", v "yellow"); (v "green", v "red"); (v "yellow", v "white") ]
  in
  let rel = Relation.make schema (List.map c [ "yellow"; "red"; "green"; "black" ]) in
  let result = Query.sigma schema p rel in
  Fmt.pr "  sigma[P]({yellow, red, green, black}) = {%a}@."
    Fmt.(list ~sep:(any ", ") Tuple.pp)
    (Relation.rows result);
  check "result = {yellow, red}"
    (Relation.equal_as_sets result (Relation.make schema [ c "yellow"; c "red" ]));
  check "red is a perfect match"
    (Relation.equal_as_sets
       (Query.perfect_matches schema p
          ~ideal:(fun t -> Quality.level p (Tuple.get t 0) = Some 1)
          rel)
       (Relation.make schema [ c "red" ]))

(* ------------------------------------------------------------------ *)
(* E9 — Example 9: non-monotonicity                                    *)

let e9 () =
  section "E9  Example 9: non-monotonicity of BMO query results";
  let schema =
    Schema.make
      [ ("fuel_economy", Value.TInt); ("insurance_rating", Value.TInt);
        ("nickname", Value.TStr) ]
  in
  let car (f, i, n) = Tuple.make [ vi f; vi i; v n ] in
  let p =
    Pref.pareto (Pref.highest "fuel_economy") (Pref.highest "insurance_rating")
  in
  let states =
    [
      ([ (100, 3, "frog"); (50, 3, "cat") ], [ "frog" ]);
      ([ (100, 3, "frog"); (50, 3, "cat"); (50, 10, "shark") ], [ "frog"; "shark" ]);
      ( [ (100, 3, "frog"); (50, 3, "cat"); (50, 10, "shark"); (100, 10, "turtle") ],
        [ "turtle" ] );
    ]
  in
  let ok =
    List.for_all
      (fun (cars, expected) ->
        let rel = Relation.make schema (List.map car cars) in
        let result = Query.sigma schema p rel in
        let names =
          List.map
            (fun t -> Value.to_string (Tuple.get t 2))
            (Relation.rows result)
        in
        Fmt.pr "  |Cars| = %d  ->  sigma = {%s}@." (List.length cars)
          (String.concat ", " names);
        List.sort compare names = List.sort compare expected)
      states
  in
  check "result sizes 1 -> 2 -> 1 while the database only grows" ok

(* ------------------------------------------------------------------ *)
(* E10 — Example 10: grouped prioritized evaluation                    *)

let e10 () =
  section "E10 Example 10: sigma[P1 & P2] via grouping (proposition 10)";
  let schema =
    Schema.make [ ("make", Value.TStr); ("price", Value.TInt); ("oid", Value.TInt) ]
  in
  let offer (m, p, o) = Tuple.make [ v m; vi p; vi o ] in
  let rel =
    Relation.make schema
      (List.map offer
         [ ("Audi", 40000, 1); ("BMW", 35000, 2); ("VW", 20000, 3); ("BMW", 50000, 4) ])
  in
  let p = Pref.prior (Pref.antichain [ "make" ]) (Pref.around "price" 40000.) in
  let result = Query.sigma schema p rel in
  Fmt.pr "  'for each make, an offer around 40000':@.";
  List.iter (fun t -> Fmt.pr "    %a@." Tuple.pp t) (Relation.rows result);
  let expected =
    Relation.make schema
      (List.map offer [ ("Audi", 40000, 1); ("BMW", 35000, 2); ("VW", 20000, 3) ])
  in
  check "result = {(Audi,40000,1), (BMW,35000,2), (VW,20000,3)}"
    (Relation.equal_as_sets result expected);
  check "groupby evaluation agrees with the declarative form"
    (Relation.equal_as_sets
       (Groupby.query schema (Pref.around "price" 40000.) ~by:[ "make" ] rel)
       (Groupby.query_via_antichain schema (Pref.around "price" 40000.)
          ~by:[ "make" ] rel))

(* ------------------------------------------------------------------ *)
(* E11 — Example 11: Pareto of dual chains and the YY term             *)

let e11 () =
  section "E11 Example 11: sigma[LOWEST (x) HIGHEST](R) = R, YY = {6}";
  let schema = Schema.make [ ("a", Value.TInt) ] in
  let t n = Tuple.make [ vi n ] in
  let rel = Relation.make schema [ t 3; t 6; t 9 ] in
  let p1 = Pref.lowest "a" and p2 = Pref.highest "a" in
  let result = Query.sigma schema (Pref.pareto p1 p2) rel in
  let yy = Decompose.yy schema (Pref.prior p1 p2) (Pref.prior p2 p1) rel in
  Fmt.pr "  sigma = {%a},  YY = {%a}@."
    Fmt.(list ~sep:(any ", ") Tuple.pp)
    (Relation.rows result)
    Fmt.(list ~sep:(any ", ") Tuple.pp)
    yy;
  check "sigma = R" (Relation.equal_as_sets result rel);
  check "YY = {6}" (match yy with [ x ] -> Tuple.equal x (t 6) | _ -> false);
  check "rewriter collapses P (x) P^d to the anti-chain"
    (Pref.equal
       (Rewrite.simplify (Pref.pareto p1 (Pref.dual p1)))
       (Pref.antichain [ "a" ]))

(* ------------------------------------------------------------------ *)
(* P — Propositions re-verified on a large concrete instance           *)

let p_laws () =
  section "P   Propositions 2-13 re-verified on a used-car instance";
  let cars = Pref_workload.Cars.relation ~seed:17 ~n:(if quick then 60 else 150) () in
  let schema = Relation.schema cars in
  let rows = Relation.rows cars in
  let p1 = Pref.around "price" 15000. in
  let p2 = Pref.lowest "mileage" in
  let p3 = Pref.pos "color" [ v "red"; v "blue" ] in
  check "prop 2: commutativity/associativity"
    (Laws.pareto_commutative schema rows p1 p2
    && Laws.pareto_associative schema rows p1 p2 p3
    && Laws.prior_associative schema rows p1 p2 p3);
  check "prop 3: dual/idempotence/anti-chain laws"
    (Laws.dual_involution schema rows (Pref.pareto p1 p3)
    && Laws.highest_is_dual_lowest schema rows "price"
    && Laws.prior_idempotent schema rows p1
    && Laws.pareto_idempotent schema rows p2
    && Laws.inter_dual_is_antichain schema rows p1
    && Laws.pareto_dual_is_antichain schema rows p2);
  check "prop 4: discrimination theorem"
    (Laws.discrimination_shared schema rows p1 (Pref.between "price" ~low:0. ~up:9000.)
    && Laws.discrimination_disjoint schema rows p1 p2);
  check "prop 5: non-discrimination theorem"
    (Laws.non_discrimination schema rows p1 p2
    && Laws.non_discrimination schema rows (Pref.pareto p1 p3) p2);
  check "prop 6: pareto = intersection on shared attributes"
    (Laws.pareto_is_inter_on_shared schema rows p1
       (Pref.between "price" ~low:10000. ~up:20000.));
  let rel = cars in
  let naive p = Naive.query schema p rel in
  let sets_equal a b =
    Relation.equal_as_sets (Relation.distinct a) (Relation.distinct b)
  in
  check "prop 8: sigma[P1+P2] = sigma[P1] inter sigma[P2]"
    (sets_equal
       (naive (Pref.dunion p1 p2))
       (Relation.inter (naive p1) (naive p2)));
  check "prop 9: sigma[P1<>P2] = union + YY"
    (let q1 = p1 and q2 = Pref.between "price" ~low:10000. ~up:20000. in
     sets_equal
       (naive (Pref.inter q1 q2))
       (Relation.union
          (Relation.union (naive q1) (naive q2))
          (Decompose.yy_relation schema q1 q2 rel)));
  check "prop 10: prioritized evaluation via grouping"
    (sets_equal
       (naive (Pref.prior p1 p2))
       (Relation.inter (naive p1) (Groupby.query schema p2 ~by:[ "price" ] rel)));
  check "prop 11: cascade of queries when P1 is a chain"
    (sets_equal (naive (Pref.prior p2 p1)) (Decompose.cascade schema p2 p1 rel));
  check "prop 12: the pareto decomposition theorem"
    (sets_equal (naive (Pref.pareto p1 p2)) (Decompose.eval schema (Pref.pareto p1 p2) rel));
  check "prop 13: filter-effect inequalities"
    (let attrs = Pref.attrs (Pref.prior p1 p2) in
     let s q = Stats.result_size_on schema q ~attrs rel in
     s (Pref.prior p1 p2) <= s p1
     && s (Pref.pareto p1 p2) >= s (Pref.prior p1 p2)
     && s (Pref.pareto p1 p2) >= s (Pref.prior p2 p1))

(* ------------------------------------------------------------------ *)
(* B1 — BMO result sizes on car databases ([KFH01] claim)              *)

let b1 () =
  section "B1  BMO result sizes on used-car databases (expected: a few to a few dozen)";
  let sizes = if quick then [ 1000 ] else [ 1000; 10_000; 50_000 ] in
  Fmt.pr "  %-8s %-36s %-6s %s@." "n" "preference (shopping-style per [KFH01])" "size"
    "in band";
  hr ();
  let all_in_band = ref true in
  List.iter
    (fun n ->
      let cars = Pref_workload.Cars.relation ~seed:3 ~n () in
      let schema = Relation.schema cars in
      (* shopping-style queries: categorical wishes, AROUND targets,
         moderate Pareto width — the query profile of the Preference SQL
         deployments the claim comes from *)
      let shopping =
        [
          ( "price (x) mileage",
            Pref.pareto (Pref.lowest "price") (Pref.lowest "mileage") );
          ( "around(price) (x) around(hp)",
            Pref.pareto (Pref.around "price" 15000.) (Pref.around "horsepower" 100.) );
          ( "color & (price (x) mileage)",
            Pref.prior
              (Pref.pos "color" [ v "red"; v "blue" ])
              (Pref.pareto (Pref.lowest "price") (Pref.lowest "mileage")) );
          ( "(category (x) hp-around) & price",
            Pref.prior
              (Pref.pareto
                 (Pref.pos_pos "category" ~pos1:[ v "cabriolet" ] ~pos2:[ v "roadster" ])
                 (Pref.around "horsepower" 100.))
              (Pref.lowest "price") );
        ]
      in
      List.iter
        (fun (name, p) ->
          let size =
            Relation.cardinality
              (Planner.execute schema p cars Planner.Plan_bnl)
          in
          if size > 100 then all_in_band := false;
          Fmt.pr "  %-8d %-36s %-6d yes@." n name size)
        shopping;
      (* contrast rows: pure d-way numeric skylines blow up with d — the
         dimensionality behaviour of [BKS01], not a shopping query *)
      List.iter
        (fun (name, p) ->
          let size =
            Relation.cardinality
              (Planner.execute schema p cars Planner.Plan_bnl)
          in
          Fmt.pr "  %-8d %-36s %-6d (skyline contrast row)@." n name size)
        [
          ( "3-way numeric skyline",
            Pref.pareto_all
              [ Pref.lowest "price"; Pref.lowest "mileage"; Pref.highest "horsepower" ] );
          ( "4-way numeric skyline",
            Pref.pareto_all
              [ Pref.lowest "price"; Pref.lowest "mileage"; Pref.highest "year";
                Pref.highest "horsepower" ] );
        ])
    sizes;
  Fmt.pr "  analytic expectation (independent-uniform model, Estimate):@.";
  List.iter
    (fun n ->
      Fmt.pr "    n = %-7d E[skyline d=2] = %-8.1f E[d=3] = %-8.1f E[d=4] = %.1f@."
        n
        (Estimate.expected_skyline_size ~n ~dims:2)
        (Estimate.expected_skyline_size ~n ~dims:3)
        (Estimate.expected_skyline_size ~n ~dims:4))
    sizes;
  check
    "shopping-style result sizes stay in the band (<= ~100) while n grows 50x"
    !all_in_band

(* ------------------------------------------------------------------ *)
(* B2 — the AND/OR-like filter effect (§5.5)                            *)

let b2 () =
  section "B2  Filter effect: P1&P2 (AND-like) vs P1 vs P1 (x) P2 (OR-like)";
  let cars = Pref_workload.Cars.relation ~seed:29 ~n:(if quick then 2000 else 10_000) () in
  let schema = Relation.schema cars in
  let p1 = Pref.lowest "price" and p2 = Pref.lowest "mileage" in
  let attrs = Pref.attrs (Pref.pareto p1 p2) in
  let s q = Stats.result_size_on schema q ~attrs cars in
  let sp1 = s p1
  and sand = s (Pref.prior p1 p2)
  and sor = s (Pref.pareto p1 p2) in
  Fmt.pr "  size(P1&P2) = %-5d  size(P1) = %-5d  size(P1 (x) P2) = %d@." sand sp1 sor;
  (* §5.5 asserts P1 ⊗ P2 <== P1 & P2 ==> P1; it deliberately relates P1 and
     P1 ⊗ P2 only through the prioritization, so that is all we check. *)
  check "P1&P2 => P1 (AND-like) and P1&P2 => P1 (x) P2 (OR-like)"
    (sand <= sp1 && sand <= sor)

(* ------------------------------------------------------------------ *)
(* B3 — algorithm sweep (the [BKS01]/[KLP75] shape)                     *)

let skyline_pref dims =
  Pref.pareto_all (List.map Pref.highest (Pref_workload.Synthetic.dim_names dims))

let b3_wall () =
  section "B3a Skyline algorithms: wall-clock sweep (shape of [BKS01] figs)";
  let ns = if quick then [ 1000; 4000 ] else [ 1000; 4000; 16000 ] in
  let dims_list = [ 2; 4 ] in
  let families =
    Pref_workload.Synthetic.[ Independent; Correlated; Anti_correlated ]
  in
  Fmt.pr "  %-16s %-4s %-7s %-9s %-12s %-12s %-12s %s@." "family" "d"
    "n" "skyline" "naive" "bnl" "sfs" "dnc";
  hr ();
  let naive_beaten = ref true in
  List.iter
    (fun family ->
      List.iter
        (fun dims ->
          List.iter
            (fun n ->
              let rel = Pref_workload.Synthetic.relation ~seed:7 ~n ~dims family in
              let schema = Relation.schema rel in
              let attrs = Pref_workload.Synthetic.dim_names dims in
              let p = skyline_pref dims in
              let dom = Dominance.of_pref schema p in
              let rows = Relation.rows rel in
              let run_naive = n <= 4000 in
              let r_bnl, t_bnl = wall (fun () -> Bnl.maxima dom rows) in
              let key = Sfs.sum_key schema attrs ~maximize:true in
              let r_sfs, t_sfs = wall (fun () -> Sfs.maxima ~key dom rows) in
              let dims_fn = Dnc.dims_of schema attrs ~maximize:true in
              let r_dnc, t_dnc = wall (fun () -> Dnc.maxima ~dims:dims_fn rows) in
              let t_naive_str, naive_ok =
                if run_naive then begin
                  let r_naive, t_naive = wall (fun () -> Naive.maxima dom rows) in
                  let best_other = Float.min t_bnl (Float.min t_sfs t_dnc) in
                  if best_other >= t_naive && n >= 4000 then
                    naive_beaten := false;
                  ( Printf.sprintf "%9.1f ms" t_naive,
                    List.length r_naive = List.length r_bnl )
                end
                else ("        -", true)
              in
              let agree =
                naive_ok
                && List.length r_bnl = List.length r_sfs
                && List.length r_bnl = List.length r_dnc
              in
              if not agree then naive_beaten := false;
              Fmt.pr
                "  %-16s %-4d %-7d %-9d %s %9.1f ms %9.1f ms %9.1f ms%s@."
                (Pref_workload.Synthetic.correlation_to_string family)
                dims n (List.length r_bnl) t_naive_str t_bnl t_sfs t_dnc
                (if agree then "" else "  [DISAGREE]"))
            ns)
        dims_list)
    families;
  check
    "the best window/divide&conquer algorithm beats naive at n >= 4000, all \
     agree"
    !naive_beaten

let b3_bechamel () =
  section "B3b Skyline algorithms: bechamel micro-benchmarks (n = 2000, d = 3)";
  let open Bechamel in
  let tests =
    List.concat_map
      (fun family ->
        let rel = Pref_workload.Synthetic.relation ~seed:7 ~n:2000 ~dims:3 family in
        let schema = Relation.schema rel in
        let attrs = Pref_workload.Synthetic.dim_names 3 in
        let p = skyline_pref 3 in
        let dom = Dominance.of_pref schema p in
        let rows = Relation.rows rel in
        let key = Sfs.sum_key schema attrs ~maximize:true in
        let dims_fn = Dnc.dims_of schema attrs ~maximize:true in
        let fam = Pref_workload.Synthetic.correlation_to_string family in
        [
          Test.make
            ~name:(fam ^ "/naive")
            (Staged.stage (fun () -> ignore (Naive.maxima dom rows)));
          Test.make
            ~name:(fam ^ "/bnl")
            (Staged.stage (fun () -> ignore (Bnl.maxima dom rows)));
          Test.make
            ~name:(fam ^ "/sfs")
            (Staged.stage (fun () -> ignore (Sfs.maxima ~key dom rows)));
          Test.make
            ~name:(fam ^ "/dnc")
            (Staged.stage (fun () -> ignore (Dnc.maxima ~dims:dims_fn rows)));
        ])
      Pref_workload.Synthetic.[ Independent; Correlated; Anti_correlated ]
  in
  let results = bechamel_run tests in
  List.iter (fun (name, ns) -> Fmt.pr "  %-28s %a/run@." name pp_ns ns) results;
  check "bechamel produced estimates for all 12 benchmarks"
    (List.length results = 12)

(* ------------------------------------------------------------------ *)
(* B4 — decomposition-based Pareto evaluation (prop 12 as an algorithm) *)

let b4 () =
  section "B4  Decomposition-based evaluation (prop 12) vs direct BNL";
  let ns = if quick then [ 200; 400 ] else [ 200; 400; 800; 1600 ] in
  Fmt.pr "  %-7s %-12s %-12s %s@." "n" "bnl" "decompose" "equal";
  hr ();
  let all_equal = ref true in
  List.iter
    (fun n ->
      let cars = Pref_workload.Cars.relation ~seed:13 ~n () in
      let schema = Relation.schema cars in
      let p = Pref.pareto (Pref.lowest "price") (Pref.lowest "mileage") in
      let r1, t1 =
        wall (fun () -> Planner.execute schema p cars Planner.Plan_bnl)
      in
      let r2, t2 = wall (fun () -> Decompose.eval schema p cars) in
      let eq = Relation.equal_as_sets (Relation.distinct r1) r2 in
      if not eq then all_equal := false;
      Fmt.pr "  %-7d %9.1f ms %9.1f ms %b@." n t1 t2 eq)
    ns;
  check "decomposition plan computes the same BMO result" !all_equal

(* ------------------------------------------------------------------ *)
(* B5 — the ranked query model: TA vs full scan (§6.2)                  *)

let b5 () =
  section "B5  Ranked model: threshold algorithm vs full scan (k-best)";
  let n = if quick then 5_000 else 20_000 in
  let hotels = Pref_workload.Hotels.relation ~seed:31 ~n () in
  let schema = Relation.schema hotels in
  let p =
    Pref.rank (Pref.weighted_sum 1. 1.)
      (Pref.score "rating" ~name:"rating" (fun x ->
           Option.value (Value.as_float x) ~default:Float.neg_infinity))
      (Pref.score "price" ~name:"-price/100" (fun x ->
           match Value.as_float x with
           | Some f -> -.f /. 100.
           | None -> Float.neg_infinity))
  in
  Fmt.pr "  n = %d objects@." n;
  Fmt.pr "  %-5s %-10s %-10s %s@." "k" "examined" "depth" "fraction";
  hr ();
  let frugal = ref true in
  List.iter
    (fun k ->
      let res = Topk.ta_rank schema p ~k hotels in
      let scan = Topk.kbest schema p ~k hotels in
      let ta_scores = List.map fst res.Topk.results in
      let score =
        Option.get (Pref.score_via (fun t a -> Tuple.get_by_name schema t a) p)
      in
      let scan_scores = List.map score (Relation.rows scan) in
      let same =
        List.length ta_scores = List.length scan_scores
        && List.for_all2 (fun a b -> Float.abs (a -. b) < 1e-9) ta_scores scan_scores
      in
      if not same then frugal := false;
      if res.Topk.examined > n / 2 then frugal := false;
      Fmt.pr "  %-5d %-10d %-10d %.3f%s@." k res.Topk.examined res.Topk.depth
        (float_of_int res.Topk.examined /. float_of_int n)
        (if same then "" else "  [WRONG SCORES]"))
    [ 1; 10; 100 ];
  check "TA matches the scan and examines a fraction of the objects" !frugal;
  let open Bechamel in
  let tests =
    [
      Test.make ~name:"ta/k=10"
        (Staged.stage (fun () -> ignore (Topk.ta_rank schema p ~k:10 hotels)));
      Test.make ~name:"scan/k=10"
        (Staged.stage (fun () -> ignore (Topk.kbest schema p ~k:10 hotels)));
    ]
  in
  let results = bechamel_run tests in
  List.iter (fun (name, ns) -> Fmt.pr "  %-28s %a/run@." name pp_ns ns) results;
  check "bechamel produced top-k estimates" (List.length results = 2)

(* ------------------------------------------------------------------ *)
(* B7 — ablation: compiled vs interpreted preference semantics           *)

let b7 () =
  section "B7  Ablation: Pref.compile vs interpreted Pref.lt";
  let cars = Pref_workload.Cars.relation ~seed:41 ~n:(if quick then 400 else 1000) () in
  let schema = Relation.schema cars in
  let p =
    Pref.prior
      (Pref.pareto
         (Pref.pos_neg "color" ~pos:[ v "red" ] ~neg:[ v "gray" ])
         (Pref.around "price" 15000.))
      (Pref.lowest "mileage")
  in
  let rows = Relation.rows cars in
  let interpreted () =
    Naive.maxima (fun a b -> Pref.lt schema p b a) rows
  in
  let compiled () = Naive.maxima (Dominance.of_pref schema p) rows in
  let r1, t_int = wall interpreted in
  let r2, t_cmp = wall compiled in
  Fmt.pr "  interpreted: %8.1f ms   compiled: %8.1f ms   speedup: %.1fx@."
    t_int t_cmp
    (t_int /. Float.max 0.001 t_cmp);
  check "compiled and interpreted agree"
    (List.length r1 = List.length r2 && List.for_all2 Tuple.equal r1 r2);
  check "compilation does not lose to interpretation" (t_cmp <= t_int *. 1.2);
  let open Bechamel in
  let results =
    bechamel_run
      [
        Test.make ~name:"interpreted" (Staged.stage (fun () -> ignore (interpreted ())));
        Test.make ~name:"compiled" (Staged.stage (fun () -> ignore (compiled ())));
      ]
  in
  List.iter (fun (name, ns) -> Fmt.pr "  %-28s %a/run@." name pp_ns ns) results;
  check "bechamel produced ablation estimates" (List.length results = 2)

(* ------------------------------------------------------------------ *)
(* B8 — telemetry overhead on the BNL hot path                          *)

let b8 () =
  section "B8  Telemetry: disabled-mode overhead on the BNL hot path";
  let rel =
    Pref_workload.Synthetic.relation ~seed:7 ~n:2000 ~dims:3
      Pref_workload.Synthetic.Independent
  in
  let schema = Relation.schema rel in
  let p = skyline_pref 3 in
  let dom = Dominance.of_pref schema p in
  let rows = Relation.rows rel in
  let open Bechamel in
  let results =
    bechamel_run
      [
        Test.make ~name:"raw-maxima"
          (Staged.stage (fun () -> ignore (Bnl.maxima dom rows)));
        Test.make ~name:"query-obs-off"
          (Staged.stage (fun () ->
               ignore (Planner.execute schema p rel Planner.Plan_bnl)));
        Test.make ~name:"query-obs-on"
          (Staged.stage (fun () ->
               Pref_obs.Control.with_enabled true (fun () ->
                   ignore (Planner.execute schema p rel Planner.Plan_bnl))));
      ]
  in
  List.iter (fun (name, ns) -> Fmt.pr "  %-28s %a/run@." name pp_ns ns) results;
  let find suffix =
    List.fold_left
      (fun acc (name, ns) ->
        let n = String.length suffix in
        if
          String.length name >= n
          && String.sub name (String.length name - n) n = suffix
        then Some ns
        else acc)
      None results
  in
  (match find "raw-maxima", find "query-obs-off", find "query-obs-on" with
  | Some raw, Some off, Some on ->
    Fmt.pr "  obs-off vs raw: %+.1f%%   obs-on vs obs-off: %+.1f%%@."
      (100. *. ((off /. raw) -. 1.))
      (100. *. ((on /. off) -. 1.));
    (* the disabled path must be the seed hot path plus noise; the raw
       variant excludes per-call preference compilation, so allow a
       generous band before calling it a regression *)
    check "telemetry off: BNL within noise of the uninstrumented pass"
      (off <= raw *. 1.30)
  | _ -> check "bechamel produced all three obs estimates" false);
  (* exercise the enabled path once more so BENCH_JSON carries a populated
     metrics registry *)
  Pref_obs.Control.with_enabled true (fun () ->
      ignore (Planner.execute schema p rel Planner.Plan_bnl);
      ignore
        (Query.sigma_within ~deadline:Engine.no_deadline
           { Engine.default with algorithm = Engine.Alg_auto }
           schema p rel))

(* ------------------------------------------------------------------ *)
(* B6 — the cost-based planner (§7 optimizer roadmap, extension)        *)

let b6 () =
  section "B6  Cost-based planner: chosen plan vs always-BNL";
  let cases =
    [
      ( "anti-correlated skyline",
        (fun () ->
          Pref_workload.Synthetic.relation ~seed:7
            ~n:(if quick then 1500 else 4000)
            ~dims:3 Pref_workload.Synthetic.Anti_correlated),
        skyline_pref 3 );
      ( "independent skyline",
        (fun () ->
          Pref_workload.Synthetic.relation ~seed:7
            ~n:(if quick then 1500 else 4000)
            ~dims:3 Pref_workload.Synthetic.Independent),
        skyline_pref 3 );
      ( "chain-headed prioritization",
        (fun () -> Pref_workload.Cars.relation ~seed:4 ~n:(if quick then 1500 else 4000) ()),
        Pref.prior (Pref.lowest "price")
          (Pref.pos "color" [ v "red"; v "blue" ]) );
    ]
  in
  Fmt.pr "  %-28s %-22s %-12s %s@." "workload" "chosen plan" "planner" "bnl";
  hr ();
  let all_correct = ref true in
  let planner_wins_anti = ref false in
  let auto = { Engine.default with algorithm = Engine.Alg_auto } in
  List.iter
    (fun (name, mk_rel, p) ->
      let rel = mk_rel () in
      let schema = Relation.schema rel in
      let r, t_planner =
        wall (fun () ->
            Query.run_within ~deadline:Engine.no_deadline auto schema p rel)
      in
      let result = r.Engine.Result.rows in
      let r_bnl, t_bnl =
        wall (fun () -> Planner.execute schema p rel Planner.Plan_bnl)
      in
      let correct =
        Relation.equal_as_sets (Relation.distinct result) (Relation.distinct r_bnl)
      in
      if not correct then all_correct := false;
      if name = "anti-correlated skyline" && t_planner < t_bnl then
        planner_wins_anti := true;
      let plan_str = Option.value r.Engine.Result.plan ~default:"?" in
      let plan_str =
        if String.length plan_str > 20 then String.sub plan_str 0 20 else plan_str
      in
      Fmt.pr "  %-28s %-22s %8.1f ms %8.1f ms%s@." name plan_str t_planner
        t_bnl
        (if correct then "" else "  [WRONG]"))
    cases;
  check "planner plans compute the exact BMO result" !all_correct;
  check "planner beats always-BNL on the anti-correlated skyline"
    !planner_wins_anti

(* ------------------------------------------------------------------ *)
(* B9 — parallel evaluation: domain fan-out vs the sequential kernels   *)

let b9_results :
    (string * float * float * float * string * float * float) list ref =
  ref []

let chosen_plan_counts : (string, int) Hashtbl.t = Hashtbl.create 8

let count_chosen kind =
  Hashtbl.replace chosen_plan_counts kind
    (1 + Option.value ~default:0 (Hashtbl.find_opt chosen_plan_counts kind))

let b9 () =
  section "B9  Parallel evaluation: sequential BNL vs planner-chosen plan";
  let domains = 4 in
  let cores = Domain.recommended_domain_count () in
  Fmt.pr "  domains requested: %d (recommended on this host: %d)@." domains
    cores;
  let ns = if quick then [ 5_000 ] else [ 10_000; 50_000; 200_000 ] in
  let ds = if quick then [ 2; 5 ] else [ 2; 5; 8 ] in
  let cases =
    List.concat_map (fun n -> List.map (fun d -> (n, d)) ds) ns
  in
  (* the small-n regression cell is always measured: the cost model must
     never pay the parallel fixed overhead on a flat input *)
  let cases =
    if List.mem (5_000, 2) cases then cases else (5_000, 2) :: cases
  in
  Fmt.pr "  %-16s %-11s %-11s %-11s %-10s %-9s %s@." "config" "seq bnl"
    "par dnc" "par sfs" "chosen" "speedup" "equal";
  hr ();
  let all_equal = ref true in
  let speed_200k_5 = ref None in
  let small_cell_sequential = ref true in
  List.iter
    (fun (n, d) ->
      let rel =
        Pref_workload.Synthetic.relation ~seed:23 ~n ~dims:d
          Pref_workload.Synthetic.Independent
      in
      let schema = Relation.schema rel in
      let attrs = Pref_workload.Synthetic.dim_names d in
      let p = skyline_pref d in
      let r_seq, t_seq =
        wall (fun () -> Planner.execute schema p rel Planner.Plan_bnl)
      in
      let r_dnc, t_dnc =
        wall (fun () ->
            Planner.execute schema p rel (Planner.Plan_par_dnc { domains }))
      in
      let r_sfs, t_sfs =
        wall (fun () ->
            Planner.execute schema p rel
              (Planner.Plan_par_sfs { attrs; maximize = true; domains }))
      in
      let eq =
        Relation.equal_as_sets r_seq r_dnc
        && Relation.equal_as_sets r_seq r_sfs
      in
      if not eq then all_equal := false;
      (* what would the cost-based planner run here? speedup is measured
         against its choice: 1.0 by identity when it keeps the BNL
         baseline, the measured ratio when it fans out *)
      let plan = Planner.choose ~domains schema p rel in
      let kind = Planner.plan_kind plan in
      count_chosen kind;
      let t_chosen =
        match plan with
        | Planner.Plan_bnl -> t_seq
        | Planner.Plan_par_dnc _ -> t_dnc
        | Planner.Plan_par_sfs _ -> t_sfs
        | _ -> snd (wall (fun () -> Planner.execute schema p rel plan))
      in
      if n = 5_000 && d = 2 then begin
        match plan with
        | Planner.Plan_par_dnc _ | Planner.Plan_par_sfs _ ->
          small_cell_sequential := false
        | _ -> ()
      end;
      let speedup = t_seq /. Float.max t_chosen 1e-6 in
      if n = 200_000 && d = 5 then speed_200k_5 := Some (t_seq /. Float.max t_dnc 1e-6);
      let label = Printf.sprintf "n=%d,d=%d" n d in
      b9_results := (label, t_seq, t_dnc, t_sfs, kind, t_chosen, speedup)
        :: !b9_results;
      Fmt.pr "  %-16s %8.1f ms %8.1f ms %8.1f ms %-10s %7.2fx %b@." label
        t_seq t_dnc t_sfs kind speedup eq)
    cases;
  check "parallel dnc and sfs equal sequential bnl on every config" !all_equal;
  check "cost model keeps n=5000,d=2 sequential (B9 regression gate)"
    !small_cell_sequential;
  match !speed_200k_5 with
  | Some s when cores >= 4 ->
    check "parallel dnc >= 2x sequential bnl at n=200k,d=5 (>= 4 cores)"
      (s >= 2.0)
  | Some s ->
    skip "parallel dnc >= 2x sequential bnl at n=200k,d=5"
      (Printf.sprintf "host has %d core(s), gate needs >= 4; measured %.2fx"
         cores s)
  | None -> ()

(* ------------------------------------------------------------------ *)
(* B10 — the preference-aware result cache                              *)

let b10_results : (string * float * float * float) list ref = ref []
let b10_probes : (string * Cache.tier_probe) list ref = ref []

let b10 () =
  section "B10 Result cache: exact hits, semantic reuse, incremental patching";
  (* full scale even in smoke mode: the speedup gates are specified at
     n = 200k, and the served side is O(result), so only the cold runs
     (~1 min total on one core) pay for it *)
  let n = 200_000 in
  let rel = Pref_workload.Cars.relation ~seed:11 ~n () in
  let schema = Relation.schema rel in
  let q =
    Pref.pareto_all
      [ Pref.lowest "price"; Pref.lowest "mileage"; Pref.highest "horsepower" ]
  in
  Cache.set_enabled true;
  Cache.clear Cache.global;
  let row label cold served =
    let speedup = cold /. Float.max served 1e-6 in
    b10_results := (label, cold, served, speedup) :: !b10_results;
    Fmt.pr "  %-16s %8.1f ms cold %10.3f ms served %9.1fx@." label cold served
      speedup;
    speedup
  in
  (* non-destructive per-tier probe timings (the rows of EXPLAIN's
     cache-probe table), taken at the points where each tier is the one
     that answers; they land in BENCH_JSON under b10_probe_ms *)
  let record_probes label p r =
    let _, probes = Cache.probe_traced Cache.global schema p r in
    List.iter
      (fun pr ->
        b10_probes := (label, pr) :: !b10_probes;
        Fmt.pr "  probe %-16s %-16s %s %8.3f ms@." label pr.Cache.tier
          (if pr.Cache.hit then "hit " else "miss")
          pr.Cache.ms)
      probes
  in
  Fun.protect
    ~finally:(fun () ->
      Cache.set_enabled false;
      Cache.clear Cache.global)
  @@ fun () ->
  (* exact tier: same term, same relation version *)
  let r_cold, t_cold = wall (fun () -> Query.sigma schema q rel) in
  record_probes "exact" q rel;
  let r_hit, t_hit = wall (fun () -> Query.sigma schema q rel) in
  let exact_speedup = row "exact" t_cold t_hit in
  check "exact hit returns the stored BMO set"
    (Relation.equal_as_sets r_cold r_hit);
  check
    (Printf.sprintf "exact hit >= 5x cold evaluation at n=%d" n)
    (exact_speedup >= 5.0);
  (* semantic tier, prioritisation: Q & HIGHEST(year) evaluated over the
     cached sigma[Q](R) by Proposition 10 *)
  let refined = Pref.prior q (Pref.highest "year") in
  let nocache = { Engine.default with cache = false } in
  let r_ref_cold, t_ref_cold =
    wall (fun () -> fst (Query.sigma_within ~deadline:Engine.no_deadline nocache schema refined rel))
  in
  record_probes "semantic_prior" refined rel;
  let r_ref, t_ref = wall (fun () -> Query.sigma schema refined rel) in
  let sem_speedup = row "semantic_prior" t_ref_cold t_ref in
  check "semantic prior reuse equals direct evaluation"
    (Relation.equal_as_sets r_ref_cold r_ref);
  check
    (Printf.sprintf "semantic reuse >= 2x cold evaluation at n=%d" n)
    (sem_speedup >= 2.0);
  (* semantic tier, Pareto: cached operand with disjoint attributes
     restricts the search space (Proposition 12); correctness gate only *)
  let hp = Pref.highest "horsepower" in
  ignore (Query.sigma schema hp rel);
  let comp = Pref.pareto hp (Pref.pos "color" [ v "red"; v "blue" ]) in
  let r_comp_cold, t_comp_cold =
    wall (fun () -> fst (Query.sigma_within ~deadline:Engine.no_deadline nocache schema comp rel))
  in
  record_probes "pareto_compose" comp rel;
  (* at n = 200k the pareto-restrict derivation re-groups the whole base
     relation, so the cost gate refuses it: the first serve evaluates
     cold and stores, the second is an exact hit. Either way the cache
     path must never lose to cold evaluation. *)
  let r_comp, t_comp1 = wall (fun () -> Query.sigma schema comp rel) in
  let r_comp2, t_comp2 = wall (fun () -> Query.sigma schema comp rel) in
  let t_comp = Float.min t_comp1 t_comp2 in
  let comp_speedup = row "pareto_compose" t_comp_cold t_comp in
  check "semantic pareto reuse equals direct evaluation"
    (Relation.equal_as_sets r_comp_cold r_comp
    && Relation.equal_as_sets r_comp_cold r_comp2);
  check "pareto compose never loses to cold (cost-gated)"
    (comp_speedup >= 1.0);
  check "cost gate refused the full-relation derivation"
    ((Cache.stats Cache.global).Cache.cost_skipped > 0);
  (* incremental tier: a single insert patches the cached entries instead
     of invalidating them; the patched entry must match recomputation *)
  let extra = List.hd (Relation.rows rel) in
  let rel' = Relation.add_row rel extra in
  let patched, t_patch =
    wall (fun () -> Cache.on_insert Cache.global ~old_rel:rel ~new_rel:rel' extra)
  in
  Fmt.pr "  patched %d cached entr%s in %.1f ms@." patched
    (if patched = 1 then "y" else "ies")
    t_patch;
  check "insert patches the cached entries" (patched > 0);
  let r_fresh, t_fresh =
    wall (fun () -> fst (Query.sigma_within ~deadline:Engine.no_deadline nocache schema q rel'))
  in
  let r_patched, t_patched = wall (fun () -> Query.sigma schema q rel') in
  ignore (row "patched" t_fresh t_patched);
  check "patched entry equals fresh evaluation after insert"
    (Relation.equal_as_sets r_fresh r_patched);
  (* incremental tier, delete: a stored 20 000-row table (a session's)
     with eight cached LOWEST(price) Paretos, and a row that undercuts
     every price, so it enters every answer and dominates much of the
     table. Deleting it promotes what it dominated: the patch runs the
     rule over row positions with the keyed test, the cold side
     recomputes σ for the same terms on the new version with the cache
     off. Medians of three insert/delete rounds. *)
  let cars = Pref_workload.Cars.relation ~seed:23 ~n:20_000 () in
  let cars_schema = Relation.schema cars in
  let price = Schema.index_of_exn cars_schema "price" in
  let undercut =
    let r = Array.copy (List.nth (Relation.rows cars) 10_000) in
    r.(0) <- Value.Int 1_000_000;
    r.(price) <- Value.Int 100;
    r
  in
  let terms =
    [
      Pref.pareto (Pref.lowest "price") (Pref.lowest "mileage");
      Pref.pareto (Pref.lowest "price") (Pref.highest "horsepower");
      Pref.pareto (Pref.lowest "price") (Pref.highest "year");
      Pref.pareto (Pref.lowest "price") (Pref.around "mileage" 40_000.);
      Pref.pareto (Pref.lowest "price") (Pref.around "horsepower" 150.);
      Pref.pareto_all
        [ Pref.lowest "price"; Pref.lowest "mileage"; Pref.highest "horsepower" ];
      Pref.pareto_all
        [ Pref.lowest "price"; Pref.highest "year"; Pref.highest "horsepower" ];
      Pref.pareto_all
        [ Pref.lowest "price"; Pref.around "mileage" 60_000.; Pref.highest "year" ];
    ]
  in
  Relation.store cars;
  List.iter (fun p -> ignore (Query.sigma cars_schema p cars)) terms;
  (* one round: insert the row, then time its delete and the recompute;
     each version is stored and its predecessor released, as a session's
     DML does *)
  let round version =
    let inserted = Relation.add_row version undercut in
    ignore (Cache.on_insert Cache.global ~old_rel:version ~new_rel:inserted undercut);
    Relation.store inserted;
    Relation.release version;
    let deleted = Option.get (Relation.remove_row inserted undercut) in
    let patched, t_patch =
      wall (fun () ->
          Cache.on_delete Cache.global ~old_rel:inserted ~new_rel:deleted undercut)
    in
    Relation.store deleted;
    Relation.release inserted;
    let fresh, t_fresh =
      wall (fun () ->
          List.map
            (fun p ->
              fst
                (Query.sigma_within ~deadline:Engine.no_deadline nocache
                   cars_schema p deleted))
            terms)
    in
    (deleted, (patched, fresh, t_patch, t_fresh))
  in
  let rounds =
    List.rev
      (snd
         (List.fold_left
            (fun (version, acc) _ ->
              let version', r = round version in
              (version', (version', r) :: acc))
            (cars, []) [ 1; 2; 3 ]))
  in
  let t_patch = median (List.map (fun (_, (_, _, t, _)) -> t) rounds)
  and t_fresh = median (List.map (fun (_, (_, _, _, t)) -> t) rounds) in
  ignore (row "patch_delete" t_fresh t_patch);
  check "delete patches every cached Pareto, on positions"
    (List.for_all (fun (_, (patched, _, _, _)) -> patched >= List.length terms) rounds
    && (Cache.stats Cache.global).Cache.patched_keyed >= 3 * List.length terms);
  let version, (_, fresh, _, _) = List.nth rounds 2 in
  check "every patched entry equals the fresh answer, in order"
    (List.for_all2
       (fun p fresh ->
         match Cache.lookup Cache.global cars_schema p version with
         | Some (r, Cache.Exact) ->
           List.equal Tuple.equal (Relation.rows r) (Relation.rows fresh)
         | _ -> false)
       terms fresh);
  let s = Cache.stats Cache.global in
  Fmt.pr "  cache stats: %d hits, %d misses, %d semantic, %d patched (%d keyed)@."
    s.Cache.hits s.Cache.misses s.Cache.semantic_reuses s.Cache.patched_entries
    s.Cache.patched_keyed;
  (* cache-off guard: with the cache disabled, the sigma front door must
     stay within noise of calling the BNL kernel directly (same band as
     B8's telemetry-off gate) *)
  Cache.set_enabled false;
  let rel_small =
    Pref_workload.Synthetic.relation ~seed:7 ~n:2000 ~dims:3
      Pref_workload.Synthetic.Independent
  in
  let schema_small = Relation.schema rel_small in
  let p_small = skyline_pref 3 in
  let open Bechamel in
  (* one estimate is one noisy sample on a shared host: take the median of
     five per side, the sides alternating so drift hits both alike *)
  let estimate name f =
    match bechamel_run [ Test.make ~name (Staged.stage f) ] with
    | [ (_, ns) ] -> Some ns
    | _ -> None
  in
  let direct_run () =
    ignore (Planner.execute schema_small p_small rel_small Planner.Plan_bnl)
  and sigma_run () = ignore (Query.sigma schema_small p_small rel_small) in
  let samples =
    List.init 5 (fun _ ->
        let d = estimate "bnl-direct" direct_run in
        let s = estimate "sigma-cache-off" sigma_run in
        (d, s))
  in
  match
    ( List.filter_map fst samples,
      List.filter_map snd samples )
  with
  | (_ :: _ as ds), (_ :: _ as ss)
    when List.length ds = 5 && List.length ss = 5 ->
    let direct = median ds and via_sigma = median ss in
    let show name xs m =
      Fmt.pr "  %-16s median %a/run of %a@." name pp_ns m
        Fmt.(list ~sep:(any ", ") (fun ppf ns -> pf ppf "%.1f us" (ns /. 1e3)))
        xs
    in
    show "bnl-direct" ds direct;
    show "sigma-cache-off" ss via_sigma;
    Fmt.pr "  cache-off vs direct: %+.1f%%@."
      (100. *. ((via_sigma /. direct) -. 1.));
    check "cache disabled: sigma within noise of direct BNL"
      (via_sigma <= direct *. 1.30)
  | _ -> check "bechamel produced both cache-off estimates" false

(* ------------------------------------------------------------------ *)
(* B14 — keyed dominance on the served templates                        *)

(* The seven serve_cold statements of the wire benchmark (its fixed
   template list), each σ[P] run by the BNL window over the closure test
   and over the keyed test. Both must return the same rows in the same
   order after the same number of dominance tests; the times are printed,
   not gated. *)
let serve_templates =
  [
    ("pareto2", "SELECT * FROM cars PREFERRING LOWEST(price) AND LOWEST(mileage)");
    ( "pareto3",
      "SELECT * FROM cars PREFERRING LOWEST(price) AND HIGHEST(horsepower) AND \
       LOWEST(commission)" );
    ( "prior",
      "SELECT * FROM cars PREFERRING make = 'BMW' PRIOR TO HIGHEST(year) PRIOR \
       TO transmission = 'manual'" );
    ( "where",
      "SELECT * FROM cars WHERE year >= 1996 PREFERRING LOWEST(price) AND \
       HIGHEST(horsepower)" );
    ( "grouping",
      "SELECT * FROM cars PREFERRING LOWEST(price) AND LOWEST(mileage) GROUPING \
       make" );
    ( "around",
      "SELECT * FROM cars PREFERRING price AROUND 25000 AND HIGHEST(horsepower) \
       BUT ONLY DISTANCE(price) <= 2000" );
    ( "pos_explicit",
      "SELECT * FROM cars PREFERRING color IN ('red', 'black') AND \
       EXPLICIT(category, ('roadster', 'cabriolet')) PRIOR TO LOWEST(price) \
       ORDER BY oid TOP 10" );
  ]

let b14_results : (string * float * float * float * float * int * int) list ref =
  ref []

let b14 () =
  section "B14 Keyed dominance: serve_cold templates, closure vs keyed BNL (n = 50000)";
  let n = 50_000 in
  let base = Pref_workload.Cars.relation ~seed:38 ~n () in
  (* a server's table: the columns the first keyed run builds are kept *)
  Relation.store base;
  let schema = Relation.schema base in
  let best_of k f =
    let best = ref Float.infinity and r = ref None in
    for _ = 1 to k do
      let x, ms = wall f in
      r := Some x;
      if ms < !best then best := ms
    done;
    (Option.get !r, !best)
  in
  let reps = if quick then 5 else 7 in
  (* one cell: σ[P] over each group by the closure window and the keyed
     one, the same rows in the same order after the same tests; compile
     is the best time of the keyed compiles alone *)
  let cell label p groups =
    let dom = Dominance.of_pref schema p in
    let closure () =
      List.map
        (fun g ->
          let arr = Relation.row_array g in
          let r = Bnl.window dom arr in
          (Bnl.select arr r, r.Bnl.tests))
        groups
    in
    let columns_ms = ref 0. in
    let keyed () =
      (* as GROUPING serves: one compile for the groups of one version *)
      let like = lazy (Dominance.keyed schema p (List.hd groups)) in
      List.map
        (fun g ->
          let k = Dominance.keyed ~like schema p g in
          columns_ms := !columns_ms +. k.Dominance.columns_ms;
          let r = Dominance.window k in
          (Dominance.select k r.Bnl.survivors, r.Bnl.tests))
        groups
    in
    let c, closure_ms = best_of reps closure in
    let k, keyed_ms = best_of reps keyed in
    let _, compile_ms =
      best_of reps (fun () ->
          let like = lazy (Dominance.keyed schema p (List.hd groups)) in
          List.iter (fun g -> ignore (Dominance.keyed ~like schema p g)) groups)
    in
    let tests = List.fold_left (fun a (_, t) -> a + t) 0 c in
    let rows = List.fold_left (fun a (r, _) -> a + List.length r) 0 c in
    check
      (Printf.sprintf "%s: keyed BNL = closure BNL (rows, order, tests)" label)
      (List.length c = List.length k
      && List.for_all2
           (fun (rc, tc) (rk, tk) -> tc = tk && List.equal Tuple.equal rc rk)
           c k);
    b14_results :=
      (label, closure_ms, keyed_ms, compile_ms, !columns_ms, tests, rows) :: !b14_results;
    Fmt.pr
      "  %-16s closure %7.2f ms  keyed %7.2f ms  (%.1fx)  compile %6.2f ms  columns %6.2f ms  %d tests  %d rows@."
      label closure_ms keyed_ms
      (closure_ms /. Float.max keyed_ms 1e-6)
      compile_ms !columns_ms tests rows
  in
  List.iter
    (fun (label, sql) ->
      let q = Pref_sql.Parser.parse_query sql in
      let p =
        Preferences.Rewrite.simplify (Option.get (Pref_sql.Exec.full_preference q))
      in
      (* WHERE and GROUPING restrict the base version, as the served
         path does: the keyed runs read its columns at their positions *)
      let filtered =
        match q.Pref_sql.Ast.where with
        | None -> base
        | Some c -> Relation.restrict (Pref_sql.Translate.condition schema c) base
      in
      cell label p
        (match q.Pref_sql.Ast.grouping with
        | [] -> [ filtered ]
        | by -> Relation.group_by filtered by))
    serve_templates;
  (* value-level leaves naming many values: the compile builds a class
     table over the named values that occur, once per group *)
  let distinct_mileage k =
    List.filteri
      (fun i _ -> i < k)
      (List.sort_uniq Value.compare (Relation.column base "mileage"))
  in
  let in_list = Pref.prior (Pref.pos "mileage" (distinct_mileage 255)) (Pref.lowest "price") in
  let chain =
    let vs = Array.of_list (distinct_mileage 16) in
    Pref.prior
      (Pref.explicit "mileage" (List.init 15 (fun i -> (vs.(i + 1), vs.(i)))))
      (Pref.lowest "price")
  in
  let groups = Relation.group_by base [ "make" ] in
  cell "in255" in_list [ base ];
  cell "in255_grouping" in_list groups;
  cell "explicit16" chain [ base ];
  cell "explicit16_group" chain groups

(* ------------------------------------------------------------------ *)
(* B11 — the serving layer: aggregate throughput over the wire          *)

let b11_results : (string * int * bool * float * int * int * float) list ref =
  ref []

let b11 () =
  section "B11 Server: aggregate QPS at 1/4/16 clients, cold vs warm cache";
  let module Server = Pref_server.Server in
  let module Client = Pref_server.Client in
  let module Soak = Pref_server.Soak in
  let cores = Domain.recommended_domain_count () in
  let n = if quick then 5_000 else 20_000 in
  let rel = Pref_workload.Cars.relation ~seed:13 ~n () in
  let env = [ ("cars", rel) ] in
  let statements =
    [
      "SELECT * FROM cars PREFERRING LOWEST(price) AND LOWEST(mileage)";
      "SELECT * FROM cars PREFERRING HIGHEST(horsepower) AND LOWEST(price)";
      "SELECT * FROM cars PREFERRING LOWEST(mileage) PRIOR TO HIGHEST(year)";
    ]
  in
  let queries_per_client = if quick then 8 else 20 in
  (* one server per configuration so cache state is exactly what the
     label says: cold sessions run with the cache off (every query is
     evaluated), warm sessions share the global cache pre-filled with
     each statement's BMO set *)
  let run_one ~clients ~warm =
    let label =
      Printf.sprintf "%s_%02dc" (if warm then "warm" else "cold") clients
    in
    Cache.clear Cache.global;
    let session_config = { Engine.default with cache = warm; check = false } in
    let config =
      { Server.default_config with host = "127.0.0.1"; port = 0; session_config }
    in
    let server = Server.start ~config ~env () in
    Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
    let port = Server.port server in
    if warm then begin
      let c = Client.connect ~host:"127.0.0.1" ~port () in
      List.iter (fun s -> ignore (Client.query c s)) statements;
      Client.close c
    end;
    match
      Soak.run ~host:"127.0.0.1" ~port ~clients ~queries_per_client ~statements
        ()
    with
    | Error fatal ->
      check (label ^ " soak completes") false;
      Fmt.pr "  %-9s fatal: %s@." label fatal;
      None
    | Ok r ->
      b11_results :=
        ( label,
          clients,
          warm,
          r.Soak.qps,
          r.Soak.sent,
          r.Soak.errors,
          r.Soak.elapsed_s )
        :: !b11_results;
      Fmt.pr "  %-9s %4d sent %3d retried %2d err %9.1f qps in %6.2f s@." label
        r.Soak.sent r.Soak.retried r.Soak.errors r.Soak.qps r.Soak.elapsed_s;
      check (label ^ " accounts for every response")
        (r.Soak.sent = r.Soak.ok + r.Soak.degraded + r.Soak.errors
        && r.Soak.sent = clients * queries_per_client);
      check (label ^ " has zero error responses") (r.Soak.errors = 0);
      Some r.Soak.qps
  in
  Cache.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Cache.set_enabled false;
      Cache.clear Cache.global)
  @@ fun () ->
  let warm_qps =
    List.map
      (fun clients -> (clients, run_one ~clients ~warm:true))
      [ 1; 4; 16 ]
  in
  List.iter (fun clients -> ignore (run_one ~clients ~warm:false)) [ 1; 4; 16 ];
  match (List.assoc 1 warm_qps, List.assoc 16 warm_qps) with
  | Some q1, Some q16 when cores >= 4 ->
    check "warm aggregate QPS at 16 clients >= 3x 1 client (>= 4 cores)"
      (q16 >= 3.0 *. q1)
  | Some q1, Some q16 ->
    skip "warm aggregate QPS at 16 clients >= 3x 1 client"
      (Printf.sprintf "host has %d core(s), gate needs >= 4; measured %.2fx"
         cores (q16 /. Float.max q1 1e-9))
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* B12 — scatter-gather: aggregate QPS scaling from 1 to 4 shards       *)

let b12_results : (string * int * float * int * int * int * float) list ref =
  ref []

let b12 () =
  section "B12 Router: aggregate QPS over 1 vs 4 shards (8 clients)";
  let module Server = Pref_server.Server in
  let module Router = Pref_router.Router in
  let module Shard_map = Pref_router.Shard_map in
  let module Soak = Pref_server.Soak in
  let cores = Domain.recommended_domain_count () in
  let n = if quick then 5_000 else 20_000 in
  let rel = Pref_workload.Cars.relation ~seed:13 ~n () in
  let scheme = Shard_map.Hash "mileage" in
  (* the B11 workload, unchanged: the router must be a drop-in front *)
  let statements =
    [
      "SELECT * FROM cars PREFERRING LOWEST(price) AND LOWEST(mileage)";
      "SELECT * FROM cars PREFERRING HIGHEST(horsepower) AND LOWEST(price)";
      "SELECT * FROM cars PREFERRING LOWEST(mileage) PRIOR TO HIGHEST(year)";
    ]
  in
  let clients = 8 in
  let queries_per_client = if quick then 8 else 20 in
  (* each backend gets one executor domain so the comparison isolates
     the sharding: 4 shards = 4x the cores AND 1/4 the rows per BNL
     pass, which is where the scatter-gather win comes from *)
  let run_one shards =
    let label = Printf.sprintf "shards_%02d" shards in
    let parts = Shard_map.partition scheme ~shards rel in
    let servers =
      Array.to_list parts
      |> List.map (fun part ->
             Server.start
               ~config:
                 {
                   Server.default_config with
                   host = "127.0.0.1";
                   port = 0;
                   executors = 1;
                   max_inflight = 2 * clients;
                   session_config =
                     { Engine.default with cache = false; check = false };
                 }
               ~env:[ ("cars", part) ]
               ())
    in
    let backends =
      List.map
        (fun s -> { Router.bhost = "127.0.0.1"; bport = Server.port s })
        servers
    in
    let config =
      {
        Router.default_config with
        host = "127.0.0.1";
        port = 0;
        backends;
        shard_map = Shard_map.add Shard_map.empty ~table:"cars" scheme;
        max_connections = 2 * clients;
      }
    in
    let router = Router.start ~config () in
    Fun.protect
      ~finally:(fun () ->
        Router.stop router;
        List.iter Server.stop servers)
    @@ fun () ->
    match
      Soak.run ~host:"127.0.0.1" ~port:(Router.port router) ~clients
        ~queries_per_client ~statements ()
    with
    | Error fatal ->
      check (label ^ " soak completes") false;
      Fmt.pr "  %-9s fatal: %s@." label fatal;
      None
    | Ok r ->
      b12_results :=
        ( label,
          shards,
          r.Soak.qps,
          r.Soak.sent,
          r.Soak.short,
          r.Soak.errors,
          r.Soak.elapsed_s )
        :: !b12_results;
      Fmt.pr "  %-9s %4d sent %2d err %2d short %9.1f qps in %6.2f s@." label
        r.Soak.sent r.Soak.errors r.Soak.short r.Soak.qps r.Soak.elapsed_s;
      check (label ^ " accounts for every response")
        (r.Soak.sent = r.Soak.ok + r.Soak.degraded + r.Soak.errors
        && r.Soak.sent = clients * queries_per_client);
      check (label ^ " has zero error responses") (r.Soak.errors = 0);
      check (label ^ " served every query from all shards") (r.Soak.short = 0);
      Some r.Soak.qps
  in
  let q1 = run_one 1 in
  let q4 = run_one 4 in
  match (q1, q4) with
  | Some q1, Some q4 when cores >= 4 ->
    Fmt.pr "  1 -> 4 shard scaling: %.2fx@." (q4 /. Float.max q1 1e-9);
    check "aggregate QPS at 4 shards >= 2x 1 shard (>= 4 cores)"
      (q4 >= 2.0 *. q1)
  | Some q1, Some q4 ->
    skip "aggregate QPS at 4 shards >= 2x 1 shard"
      (Printf.sprintf "host has %d core(s), gate needs >= 4; measured %.2fx"
         cores (q4 /. Float.max q1 1e-9))
  | _ -> ()

(* B13 — REFINE: the result cache serving a revision vs a cold run     *)

let b13_results : (string * string * float * float * float) list ref = ref []

let b13 () =
  section "B13 REFINE: revising the preference vs re-running from scratch";
  let module Session = Pref_engine.Session in
  let n = if quick then 10_000 else 40_000 in
  let rel = Pref_workload.Cars.relation ~seed:17 ~n () in
  (* the cold side evaluates with the cache off; the refine side runs the
     base statement and its revision with the cache on, as a server
     session does, from an empty cache each time *)
  let cold_config = { Engine.default with cache = false; check = false } in
  let config = { cold_config with cache = true } in
  let base =
    "SELECT * FROM cars PREFERRING LOWEST(price) AND LOWEST(mileage)"
  in
  let measure label term =
    let full = "SELECT * FROM cars PREFERRING " ^ term in
    let cold_ms = ref Float.max_float and cold = ref (Relation.empty (Relation.schema rel)) in
    for _ = 1 to 3 do
      let s = Session.create ~config:cold_config ~env:[ ("cars", rel) ] () in
      let r, ms = wall (fun () -> Session.run s full) in
      cold := r.Pref_sql.Exec.relation;
      if ms < !cold_ms then cold_ms := ms
    done;
    let plan = ref "" and refine_ms = ref Float.max_float and same = ref true in
    Cache.set_enabled true;
    Fun.protect ~finally:(fun () ->
        Cache.set_enabled false;
        Cache.clear Cache.global)
    @@ fun () ->
    for _ = 1 to 3 do
      Cache.clear Cache.global;
      let s = Session.create ~config ~env:[ ("cars", rel) ] () in
      ignore (Session.run s base);
      let o, ms = wall (fun () -> Session.refine s term) in
      plan := o.Pref_engine.Revise.o_plan;
      same :=
        !same
        && Relation.equal_as_sets o.Pref_engine.Revise.o_result.Pref_sql.Exec.relation
             !cold;
      if ms < !refine_ms then refine_ms := ms
    done;
    let speedup = !cold_ms /. Float.max !refine_ms 1e-9 in
    Fmt.pr "  %-14s cold %8.2f ms  refine %8.2f ms  %7.1fx  (%s)@." label
      !cold_ms !refine_ms speedup !plan;
    b13_results := (label, !plan, !cold_ms, !refine_ms, speedup) :: !b13_results;
    (speedup, !plan, !same)
  in
  let prior_speedup, prior_plan, prior_same =
    measure "prior_suffix"
      "(LOWEST(price) AND LOWEST(mileage)) PRIOR TO HIGHEST(horsepower)"
  in
  let _, _, pareto_same =
    measure "pareto_extend"
      "(LOWEST(price) AND LOWEST(mileage)) AND HIGHEST(horsepower)"
  in
  check "prior-suffix revision is served by the prior-prefix tier"
    (prior_plan = "cache:semantic:prior-prefix");
  check "prior-suffix answer equals the cold answer" prior_same;
  check "pareto-extend answer equals the cold answer" pareto_same;
  check "REFINE through the prior-prefix tier >= 2x cold (B13 gate)"
    (prior_speedup >= 2.0)

let () =
  Fmt.pr "Preference algebra & BMO reproduction harness%s@."
    (if smoke then " (smoke mode)" else if quick then " (quick mode)" else "");
  (* the process-wide result cache starts on; the kernel sections (B3,
     B6, B9, ...) time cold runs, and B10, B11 and B13 switch it on where
     they measure it *)
  Cache.set_enabled false;
  (* per-section monotonic timings, emitted machine-readably at the end so
     successive bench runs form a trajectory *)
  let sections : (string * float) list ref = ref [] in
  (* --smoke keeps a fast representative subset: one worked example, the
     algebraic laws, one algorithmic comparison, the telemetry-off
     overhead gate (B8 — guards the export/slowlog hooks on the hot
     path), the parallel section and the result-cache gates (B10 runs at
     full n = 200k even here, so the subset is about a minute end to
     end, dominated by B10's cold runs) *)
  let smoke_sections =
    [
      "e1"; "p_laws"; "b4_decompose"; "b8_obs"; "b9_parallel"; "b10_cache";
      "b11_server"; "b12_router"; "b13_refine"; "b14_keyed";
    ]
  in
  let run name f =
    if (not smoke) || List.mem name smoke_sections then begin
      let (), ms = Pref_obs.Span.timed f in
      sections := (name, ms) :: !sections
    end
  in
  run "e1" e1;
  run "e2" e2;
  run "e3" e3;
  run "e4" e4;
  run "e5" e5;
  run "e6" e6;
  run "e7" e7;
  run "e8" e8;
  run "e9" e9;
  run "e10" e10;
  run "e11" e11;
  run "p_laws" p_laws;
  run "b1_result_sizes" b1;
  run "b2_filter_effect" b2;
  run "b3_wall" b3_wall;
  run "b3_bechamel" b3_bechamel;
  run "b4_decompose" b4;
  run "b5_topk" b5;
  run "b6_planner" b6;
  run "b7_ablation" b7;
  run "b8_obs" b8;
  run "b9_parallel" b9;
  run "b10_cache" b10;
  run "b11_server" b11;
  run "b12_router" b12;
  run "b13_refine" b13;
  run "b14_keyed" b14;
  Fmt.pr "@.=== summary ===@.";
  Fmt.pr "%d checks, %d failures, %d skipped@." !checks !failures !skips;
  let open Pref_obs in
  (* run metadata: enough to tell two BENCH_JSON lines apart when they
     land in the same trajectory file — which commit, toolchain, and
     machine shape produced each *)
  let read_first_line path =
    try
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> In_channel.input_line ic)
    with Sys_error _ -> None
  in
  let git_commit =
    (* resolve HEAD by hand: no git subprocess, works in any checkout *)
    match read_first_line ".git/HEAD" with
    | Some line when String.length line > 5 && String.sub line 0 5 = "ref: " ->
      let r = String.trim (String.sub line 5 (String.length line - 5)) in
      Option.map String.trim (read_first_line (Filename.concat ".git" r))
    | Some hash -> Some (String.trim hash)
    | None -> None
  in
  let hostname = try Unix.gethostname () with _ -> "unknown" in
  let meta =
    Json.Obj
      [
        ( "git_commit",
          match git_commit with Some h -> Json.Str h | None -> Json.Null );
        ("ocaml_version", Json.Str Sys.ocaml_version);
        ("recommended_domains", Json.Int (Domain.recommended_domain_count ()));
        ("hostname", Json.Str hostname);
        ( "cost_constants",
          Json.Obj
            (List.map
               (fun (k, v) -> (k, Json.Float v))
               (Cost.to_assoc Cost.defaults)) );
        ( "chosen_plans",
          Json.Obj
            (Hashtbl.fold
               (fun kind count acc -> (kind, Json.Int count) :: acc)
               chosen_plan_counts []) );
      ]
  in
  let json =
    Json.Obj
      [
        ("meta", meta);
        ("quick", Json.Bool quick);
        ("smoke", Json.Bool smoke);
        ("checks", Json.Int !checks);
        ("failures", Json.Int !failures);
        ("skips", Json.Int !skips);
        ( "sections",
          Json.Obj
            (List.rev_map (fun (name, ms) -> (name, Json.Float ms)) !sections)
        );
        ( "b9_speedups",
          Json.Obj
            (List.rev_map
               (fun (label, seq_ms, dnc_ms, sfs_ms, plan, chosen_ms, speedup) ->
                 ( label,
                   Json.Obj
                     [
                       ("seq_bnl_ms", Json.Float seq_ms);
                       ("par_dnc_ms", Json.Float dnc_ms);
                       ("par_sfs_ms", Json.Float sfs_ms);
                       ("plan", Json.Str plan);
                       ("chosen_ms", Json.Float chosen_ms);
                       ("speedup", Json.Float speedup);
                     ] ))
               !b9_results) );
        ( "b10_cache",
          Json.Obj
            (List.rev_map
               (fun (label, cold_ms, served_ms, speedup) ->
                 ( label,
                   Json.Obj
                     [
                       ("cold_ms", Json.Float cold_ms);
                       ("served_ms", Json.Float served_ms);
                       ("speedup", Json.Float speedup);
                     ] ))
               !b10_results) );
        ( "b10_probe_ms",
          Json.List
            (List.rev_map
               (fun (label, pr) ->
                 Json.Obj
                   [
                     ("query", Json.Str label);
                     ("tier", Json.Str pr.Cache.tier);
                     ("hit", Json.Bool pr.Cache.hit);
                     ("ms", Json.Float pr.Cache.ms);
                   ])
               !b10_probes) );
        ( "b11_server",
          Json.Obj
            (List.rev_map
               (fun (label, clients, warm, qps, sent, errors, elapsed_s) ->
                 ( label,
                   Json.Obj
                     [
                       ("clients", Json.Int clients);
                       ("warm_cache", Json.Bool warm);
                       ("qps", Json.Float qps);
                       ("sent", Json.Int sent);
                       ("errors", Json.Int errors);
                       ("elapsed_s", Json.Float elapsed_s);
                     ] ))
               !b11_results) );
        ( "b12_router",
          Json.Obj
            (List.rev_map
               (fun (label, shards, qps, sent, short, errors, elapsed_s) ->
                 ( label,
                   Json.Obj
                     [
                       ("shards", Json.Int shards);
                       ("qps", Json.Float qps);
                       ("sent", Json.Int sent);
                       ("short", Json.Int short);
                       ("errors", Json.Int errors);
                       ("elapsed_s", Json.Float elapsed_s);
                     ] ))
               !b12_results) );
        ( "b13_refine",
          Json.Obj
            (List.rev_map
               (fun (label, plan, cold_ms, refine_ms, speedup) ->
                 ( label,
                   Json.Obj
                     [
                       ("plan", Json.Str plan);
                       ("cold_ms", Json.Float cold_ms);
                       ("refine_ms", Json.Float refine_ms);
                       ("speedup", Json.Float speedup);
                     ] ))
               !b13_results) );
        ( "b14_keyed",
          Json.Obj
            (List.rev_map
               (fun (label, closure_ms, keyed_ms, compile_ms, columns_ms, tests, rows) ->
                 ( label,
                   Json.Obj
                     [
                       ("closure_ms", Json.Float closure_ms);
                       ("keyed_ms", Json.Float keyed_ms);
                       ("compile_ms", Json.Float compile_ms);
                       ("columns_ms", Json.Float columns_ms);
                       ("dominance_tests", Json.Int tests);
                       ("rows", Json.Int rows);
                     ] ))
               !b14_results) );
        ("metrics", Metrics.to_json ());
      ]
  in
  Fmt.pr "BENCH_JSON %s@." (Json.to_string json);
  (* also record the run as a dated file so successive bench runs leave a
     comparable trail in the working tree; smoke runs are too small to be
     comparable and would clobber a real run's file, so they skip it *)
  if not smoke then (try
     let tm = Unix.gmtime (Unix.time ()) in
     let name =
       Printf.sprintf "BENCH_%04d-%02d-%02d.json" (tm.Unix.tm_year + 1900)
         (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
     in
     let oc = open_out name in
     output_string oc (Json.to_string json);
     output_char oc '\n';
     close_out oc;
     Fmt.pr "wrote %s@." name
   with Sys_error msg -> Fmt.pr "could not write bench file: %s@." msg);
  exit (if !failures = 0 then 0 else 1)

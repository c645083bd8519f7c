open Pref_relation
open Preferences
open Pref_bmo

let check = Alcotest.(check bool)

let skyline3 =
  Pref.pareto_all
    (List.map Pref.highest (Pref_workload.Synthetic.dim_names 3))

let test_chain_dims () =
  (match Planner.chain_dims skyline3 with
  | Some (attrs, true) ->
    Alcotest.(check (list string)) "dims" [ "d0"; "d1"; "d2" ] attrs
  | _ -> Alcotest.fail "expected a maximizing skyline");
  (match Planner.chain_dims (Pref.pareto (Pref.lowest "a") (Pref.lowest "b")) with
  | Some ([ "a"; "b" ], false) -> ()
  | _ -> Alcotest.fail "expected a minimizing skyline");
  (* duals flip direction *)
  (match Planner.chain_dims (Pref.dual (Pref.lowest "a")) with
  | Some ([ "a" ], true) -> ()
  | _ -> Alcotest.fail "expected dual lowest = maximizing");
  (* mixed directions or non-chains are rejected *)
  check "mixed directions" true
    (Planner.chain_dims (Pref.pareto (Pref.lowest "a") (Pref.highest "b")) = None);
  check "non-chain member" true
    (Planner.chain_dims (Pref.pareto (Pref.lowest "a") (Pref.around "b" 1.)) = None);
  check "shared attribute" true
    (Planner.chain_dims (Pref.pareto (Pref.lowest "a") (Pref.lowest "a")) = None)

let test_correlation_estimate () =
  let anti =
    Pref_workload.Synthetic.relation ~seed:3 ~n:2000 ~dims:2
      Pref_workload.Synthetic.Anti_correlated
  in
  let corr =
    Pref_workload.Synthetic.relation ~seed:3 ~n:2000 ~dims:2
      Pref_workload.Synthetic.Correlated
  in
  let r_anti =
    Planner.sampled_correlation
      (Relation.schema anti) [ "d0"; "d1" ] (Relation.rows anti)
  in
  let r_corr =
    Planner.sampled_correlation
      (Relation.schema corr) [ "d0"; "d1" ] (Relation.rows corr)
  in
  check "anti-correlation detected" true (r_anti < -0.3);
  check "correlation detected" true (r_corr > 0.3)

(* The sample is every ceil(n / 500)-th row. At n = 999 that is every
   second row: the 500 even rows lie on y = x (r = 1), while the whole
   input alternates y = x and y = -x (r ~ 0). *)
let test_correlation_sample_size () =
  let schema = Schema.make [ ("x", Value.TFloat); ("y", Value.TFloat) ] in
  let rows =
    List.init 999 (fun i ->
        let x = float_of_int i in
        Tuple.make
          [ Value.Float x; Value.Float (if i mod 2 = 0 then x else -.x) ])
  in
  Alcotest.(check (float 1e-9))
    "the sample is the 500 even rows" 1.
    (Planner.sampled_correlation schema [ "x"; "y" ] rows)

let test_plan_choice () =
  let small =
    Pref_workload.Synthetic.relation ~seed:1 ~n:30 ~dims:3
      Pref_workload.Synthetic.Independent
  in
  check "tiny input runs naive" true
    (Planner.choose (Relation.schema small) skyline3 small = Planner.Plan_naive);
  (* priced at the keyed test, the window loop keeps anti-correlated
     inputs up to several thousand rows; one domain keeps the choice
     independent of the host *)
  let anti =
    Pref_workload.Synthetic.relation ~seed:5 ~n:20_000 ~dims:3
      Pref_workload.Synthetic.Anti_correlated
  in
  (match Planner.choose ~domains:1 (Relation.schema anti) skyline3 anti with
  | Planner.Plan_dnc _ -> ()
  | other -> Alcotest.failf "expected dnc, got %s" (Planner.plan_to_string other));
  let indep =
    Pref_workload.Synthetic.relation ~seed:5 ~n:3000 ~dims:3
      Pref_workload.Synthetic.Independent
  in
  (match Planner.choose (Relation.schema indep) skyline3 indep with
  | Planner.Plan_bnl -> ()
  | other -> Alcotest.failf "expected bnl, got %s" (Planner.plan_to_string other));
  (* chain-headed prioritization becomes a cascade *)
  let cars = Pref_workload.Cars.relation ~seed:4 ~n:500 () in
  let p = Pref.prior (Pref.lowest "price") (Pref.pos "color" [ Str "red" ]) in
  match Planner.choose (Relation.schema cars) p cars with
  | Planner.Plan_cascade (_, _) -> ()
  | other -> Alcotest.failf "expected cascade, got %s" (Planner.plan_to_string other)

let test_all_plans_correct () =
  (* every plan computes the same BMO result as naive *)
  let rel =
    Pref_workload.Synthetic.relation ~seed:9 ~n:400 ~dims:3
      Pref_workload.Synthetic.Anti_correlated
  in
  let schema = Relation.schema rel in
  let reference = Naive.query schema skyline3 rel in
  List.iter
    (fun plan ->
      let result = Planner.execute schema skyline3 rel plan in
      check (Planner.plan_to_string plan) true
        (Relation.equal_as_sets (Relation.distinct reference) (Relation.distinct result)))
    [
      Planner.Plan_naive;
      Planner.Plan_bnl;
      Planner.Plan_dnc { attrs = [ "d0"; "d1"; "d2" ]; maximize = true };
      Planner.Plan_par_dnc { domains = 2 };
      Planner.Plan_par_sfs
        { attrs = [ "d0"; "d1"; "d2" ]; maximize = true; domains = 2 };
      Planner.Plan_decompose;
    ]

let auto = { Engine.default with algorithm = Engine.Alg_auto }

let test_cascade_plan_correct () =
  let cars = Pref_workload.Cars.relation ~seed:4 ~n:500 () in
  let schema = Relation.schema cars in
  let p1 = Pref.lowest "price" and p2 = Pref.pos "color" [ Str "red" ] in
  let p = Pref.prior p1 p2 in
  let r = Query.run_within ~deadline:Engine.no_deadline auto schema p cars in
  Alcotest.(check (option string)) "cascade plan" (Some "auto:cascade")
    r.Engine.Result.plan;
  check "cascade result equals naive" true
    (Relation.equal_as_sets r.Engine.Result.rows (Naive.query schema p cars))

let prop_planner_correct =
  QCheck.Test.make ~count:150 ~name:"chosen plans compute sigma[P](R)"
    Gen.arb_pref_rows
    (fun (p, rows) ->
      let rel = Gen.rel rows in
      let result =
        (Query.run_within ~deadline:Engine.no_deadline auto Gen.schema p rel)
          .Engine.Result.rows
      in
      Relation.equal_as_sets
        (Relation.distinct result)
        (Relation.distinct (Naive.query Gen.schema p rel)))

(* choose_traced duplicates choose's decision procedure so the hot path
   stays allocation-light; this pin keeps the two from drifting apart *)
let test_choose_traced_consistent () =
  let prefs =
    [
      skyline3;
      Pref.pareto (Pref.lowest "d0") (Pref.highest "d1");
      Pref.lowest "d0";
      Pref.prior (Pref.lowest "d0") (Pref.around "d1" 0.5);
    ]
  in
  List.iter
    (fun dist ->
      List.iter
        (fun n ->
          let rel =
            Pref_workload.Synthetic.relation ~seed:9 ~n ~dims:3 dist
          in
          let schema = Relation.schema rel in
          List.iter
            (fun p ->
              List.iter
                (fun domains ->
                  let plain = Planner.choose ?domains schema p rel in
                  let traced, tr =
                    Planner.choose_traced ?domains schema p rel
                  in
                  check
                    (Printf.sprintf "same plan at n=%d" n)
                    true (plain = traced);
                  check "trace sees the same n" true
                    (tr.Planner.t_n = List.length (Relation.rows rel)))
                [ None; Some 1; Some 4 ])
            prefs)
        [ 0; 30; 500 ])
    [
      Pref_workload.Synthetic.Independent;
      Pref_workload.Synthetic.Anti_correlated;
      Pref_workload.Synthetic.Correlated;
    ]

let suite =
  [
    Gen.quick "chain dimension analysis" test_chain_dims;
    Gen.quick "correlation estimation" test_correlation_estimate;
    Gen.quick "correlation sample reads at most 500 rows"
      test_correlation_sample_size;
    Gen.quick "plan choice heuristics" test_plan_choice;
    Gen.quick "choose_traced pins choose" test_choose_traced_consistent;
    Gen.quick "all plans compute the same result" test_all_plans_correct;
    Gen.quick "cascade plan correctness" test_cascade_plan_correct;
  ]
  @ Gen.qsuite [ prop_planner_correct ]

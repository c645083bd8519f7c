open Pref_relation
open Preferences
open Pref_bmo
module Synthetic = Pref_workload.Synthetic

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let wl ?(domains = 4) ?(correlation = 0.) n dims =
  { Cost.n; dims; domains; correlation }

(* ------------------------------------------------------------------ *)
(* Pricing properties *)

let test_monotone () =
  List.iter
    (fun kind ->
      check (kind ^ " monotone in n") true
        (Cost.predict_ms ~kind (wl 1_000 2) < Cost.predict_ms ~kind (wl 5_000 2)
        && Cost.predict_ms ~kind (wl 5_000 2)
           < Cost.predict_ms ~kind (wl 50_000 2));
      check (kind ^ " monotone in dims") true
        (Cost.predict_ms ~kind (wl 5_000 2) <= Cost.predict_ms ~kind (wl 5_000 4));
      check (kind ^ " positive") true (Cost.predict_ms ~kind (wl 100 2) > 0.))
    [ "naive"; "bnl"; "dnc"; "par_dnc"; "par_sfs"; "cascade" ];
  (* the quadratic scan always loses to the windowed one *)
  check "bnl beats naive" true
    (Cost.predict_ms ~kind:"bnl" (wl 2_000 2)
    < Cost.predict_ms ~kind:"naive" (wl 2_000 2));
  Alcotest.check_raises "unknown kind"
    (Invalid_argument "Cost.predict_ms: unknown plan kind nope") (fun () ->
      ignore (Cost.predict_ms ~kind:"nope" (wl 100 2)))

let test_parallel_overhead () =
  (* the B9 regression: at n = 5000, d = 2 the fixed spawn + merge
     overhead must dominate, so every parallel plan prices above BNL *)
  let small = wl 5_000 2 in
  let bnl = Cost.predict_ms ~kind:"bnl" small in
  check "par_dnc loses at small n" true
    (Cost.predict_ms ~kind:"par_dnc" small > bnl);
  check "par_sfs loses at small n" true
    (Cost.predict_ms ~kind:"par_sfs" small > bnl);
  (* with a big high-dimensional input the fan-out pays *)
  let big = wl 50_000 5 in
  let bnl_big = Cost.predict_ms ~kind:"bnl" big in
  check "parallel wins at scale" true
    (Float.min
       (Cost.predict_ms ~kind:"par_dnc" big)
       (Cost.predict_ms ~kind:"par_sfs" big)
    < bnl_big)

let test_effective_output () =
  let at correlation = Cost.effective_output ~n:2_000 ~dims:2 ~correlation in
  check "anti-correlation inflates" true (at (-1.) > at 0.);
  check "correlation deflates" true (at 0.9 < at 0.);
  check "bounded below" true (at 1. >= 1.);
  check "bounded above" true (at (-1.) <= 2_000.);
  Alcotest.(check (float 1e-9))
    "independent matches the estimator"
    (Estimate.expected_skyline_size_fast ~n:2_000 ~dims:2)
    (at 0.)

let test_predicted_matches_measured () =
  (* the model's naive-vs-bnl ordering must match reality on an
     independent mid-size input (robust: the gap is an order of
     magnitude, not a few percent) *)
  let rel = Synthetic.relation ~seed:11 ~n:2_000 ~dims:2 Synthetic.Independent in
  let schema = Relation.schema rel in
  let p = Pref.pareto_all (List.map Pref.highest (Synthetic.dim_names 2)) in
  let _, naive_ms =
    Pref_obs.Span.timed_span "t" (fun () ->
        Query.sigma_within ~deadline:Engine.no_deadline
          { Engine.default with algorithm = Query.Alg_naive }
          schema p rel)
  in
  let _, bnl_ms =
    Pref_obs.Span.timed_span "t" (fun () ->
        Query.sigma_within ~deadline:Engine.no_deadline
          { Engine.default with algorithm = Query.Alg_bnl }
          schema p rel)
  in
  check "measured: bnl beats naive" true (bnl_ms < naive_ms);
  check "predicted: bnl beats naive" true
    (Cost.predict_ms ~kind:"bnl" (wl 2_000 2)
    < Cost.predict_ms ~kind:"naive" (wl 2_000 2))

(* ------------------------------------------------------------------ *)
(* Cache gate *)

let test_gate_thresholds () =
  check "tiny pareto derivation under the slack" true
    (Cost.derive_pareto_overhead_ms ~n:100 < Cost.semantic_gate_slack_ms);
  check "big pareto derivation over the slack" true
    (Cost.derive_pareto_overhead_ms ~n:100_000 > Cost.semantic_gate_slack_ms)

(* ------------------------------------------------------------------ *)
(* Planner integration: every alternative priced, cheapest chosen *)

let test_choose_prices_alternatives () =
  let rel = Synthetic.relation ~seed:3 ~n:3_000 ~dims:3 Synthetic.Independent in
  let schema = Relation.schema rel in
  let p = Pref.pareto_all (List.map Pref.highest (Synthetic.dim_names 3)) in
  let plan, tr = Planner.choose_traced ~cache:false ~domains:4 schema p rel in
  check "costs recorded" true (List.length tr.Planner.t_costs >= 4);
  (* cheapest first, and the head is the chosen plan *)
  let rec ascending = function
    | (_, a) :: ((_, b) :: _ as rest) -> a <= b && ascending rest
    | _ -> true
  in
  check "costs ascending" true (ascending tr.Planner.t_costs);
  (match tr.Planner.t_costs with
  | (kind, _) :: _ ->
    Alcotest.(check string) "head is the choice" (Planner.plan_kind plan) kind
  | [] -> Alcotest.fail "no costs");
  (* every non-chosen alternative carries a predicted-cost rejection *)
  check "rejections carry predictions" true
    (List.for_all
       (fun (_, why) ->
         let contains s =
           let nl = String.length s and hl = String.length why in
           let rec go i = i + nl <= hl && (String.sub why i nl = s || go (i + 1)) in
           go 0
         in
         contains "predicted")
       tr.Planner.t_rejected);
  (* legacy mode prices nothing *)
  let _, tr' = Planner.choose_traced ~cache:false ~costmodel:false schema p rel in
  check "no costs under costmodel off" true (tr'.Planner.t_costs = [])

(* Every candidate the planner prices must be the cheapest for some
   workload: a kind priced as another kind plus a positive term can never
   be chosen, so pricing it only lengthens the planner and EXPLAIN. *)
let test_every_candidate_wins () =
  let rel = Synthetic.relation ~seed:3 ~n:3_000 ~dims:3 Synthetic.Independent in
  let schema = Relation.schema rel in
  let chain = Pref.pareto_all (List.map Pref.highest (Synthetic.dim_names 3)) in
  let non_chain = Pref.pareto (Pref.highest "d0") (Pref.around "d1" 0.5) in
  let kinds =
    List.sort_uniq String.compare
      (List.concat_map
         (fun (p, domains) ->
           let _, tr =
             Planner.choose_traced ~cache:false ~domains schema p rel
           in
           List.map fst tr.Planner.t_costs)
         [ (chain, 1); (chain, 4); (non_chain, 1); (non_chain, 4) ])
  in
  check "kinds collected" true (List.length kinds >= 4);
  let grid =
    List.concat_map
      (fun n ->
        List.concat_map
          (fun dims ->
            List.concat_map
              (fun domains ->
                List.map
                  (fun correlation -> { Cost.n; dims; domains; correlation })
                  [ -0.99; -0.75; -0.3; 0.; 0.5; 0.9 ])
              [ 1; 4; 16 ])
          [ 2; 3; 5; 8 ])
      [ 65; 200; 1_000; 10_000; 100_000; 1_000_000 ]
  in
  let cheapest w =
    fst
      (List.fold_left
         (fun (bk, bc) k ->
           let c = Cost.predict_ms ~kind:k w in
           if c < bc then (k, c) else (bk, bc))
         ("", Float.infinity) kinds)
  in
  let winners = List.map cheapest grid in
  Alcotest.(check (list string))
    "priced kinds that are never the cheapest" []
    (List.filter (fun k -> not (List.mem k winners)) kinds)

(* ------------------------------------------------------------------ *)
(* Winnow-redundancy proofs (Constraints) *)

let test_constraints () =
  let schema = Schema.make [ ("color", Value.TStr); ("price", Value.TInt) ] in
  let mk (c, p) = Tuple.make [ Value.Str c; Value.Int p ] in
  let rel rows = Relation.make schema (List.map mk rows) in
  let varied = rel [ ("red", 1); ("blue", 2); ("red", 3) ] in
  let flat = rel [ ("red", 5); ("blue", 5); ("gray", 5) ] in
  (* constant attribute *)
  check "constant price" true
    (Constraints.never_strict schema (Pref.lowest "price") flat);
  check "varying price" false
    (Constraints.never_strict schema (Pref.lowest "price") varied);
  (* value-set uniformity *)
  check "POS with no member" true
    (Constraints.never_strict schema
       (Pref.pos "color" [ Value.Str "green" ])
       varied);
  check "POS with all members" true
    (Constraints.never_strict schema
       (Pref.pos "color" [ Value.Str "red"; Value.Str "blue" ])
       varied);
  check "POS split" false
    (Constraints.never_strict schema
       (Pref.pos "color" [ Value.Str "red" ])
       varied);
  (* band containment *)
  check "BETWEEN containing all values" true
    (Constraints.never_strict schema
       (Pref.between "price" ~low:0. ~up:10.)
       varied);
  check "BETWEEN cutting values" false
    (Constraints.never_strict schema
       (Pref.between "price" ~low:0. ~up:2.)
       varied);
  (* structure *)
  check "antichain" true
    (Constraints.never_strict schema (Pref.antichain [ "price" ]) varied);
  check "pareto needs both degenerate" false
    (Constraints.never_strict schema
       (Pref.pareto (Pref.lowest "price") (Pref.antichain [ "color" ]))
       varied);
  check "pareto of degenerates" true
    (Constraints.never_strict schema
       (Pref.pareto (Pref.lowest "price") (Pref.antichain [ "color" ]))
       flat);
  check "inter needs one degenerate" true
    (Constraints.never_strict schema
       (Pref.inter (Pref.lowest "price") (Pref.antichain [ "price" ]))
       varied);
  check "dual preserves degeneracy" true
    (Constraints.never_strict schema (Pref.dual (Pref.lowest "price")) flat);
  (* tiny inputs are always redundant *)
  check "single row" true
    (Constraints.never_strict schema (Pref.lowest "price") (rel [ ("red", 1) ]));
  (* soundness spot-check: a proof really means sigma is the identity *)
  List.iter
    (fun (p, r) ->
      match Constraints.redundant schema p r with
      | Some _ ->
        check "proof sound" true
          (Relation.equal_as_sets r (Query.sigma schema p r))
      | None -> ())
    [
      (Pref.lowest "price", flat);
      (Pref.pos "color" [ Value.Str "green" ], varied);
      (Pref.between "price" ~low:0. ~up:10., varied);
    ]

(* ------------------------------------------------------------------ *)
(* EXPLAIN surfaces the costs; the executor serves the rewrites *)

module Exec = Pref_sql.Exec
module Plan = Explain.Plan

let auto_cfg =
  { Pref_bmo.Engine.default with algorithm = Pref_bmo.Engine.Alg_auto }

let items n =
  let schema = Schema.make [ ("price", Value.TInt); ("mileage", Value.TInt) ] in
  Relation.make schema
    (List.init n (fun i ->
         Tuple.make [ Value.Int i; Value.Int (i + (i mod 7)) ]))

let explain_sql ?(cfg = auto_cfg) ~rel sql =
  Exec.explain_within ~analyze:false
    ~deadline:(Pref_bmo.Engine.deadline_of cfg)
    cfg
    [ ("items", rel) ]
    sql

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let chain_sql = "SELECT * FROM items PREFERRING LOWEST(price) AND LOWEST(mileage)"

let test_explain_costs () =
  let plan = explain_sql ~rel:(items 300) chain_sql in
  check "trace carries costs" true (plan.Plan.trace.Planner.t_costs <> []);
  let text = String.concat "\n" (Plan.to_text plan) in
  check "text section" true (contains text "predicted costs");
  check "text marks the choice" true (contains text "<- chosen");
  let json = Pref_obs.Json.to_string (Plan.to_json plan) in
  check "json costs" true (contains json "\"predicted_ms\"");
  (* costmodel off: no cost section *)
  let off = { auto_cfg with Pref_bmo.Engine.costmodel = false } in
  let plan_off = explain_sql ~cfg:off ~rel:(items 300) chain_sql in
  check "no costs when off" true (plan_off.Plan.trace.Planner.t_costs = []);
  check "no section when off" true
    (not (contains (String.concat "\n" (Plan.to_text plan_off)) "predicted costs"))

let test_identity_elimination () =
  let schema = Schema.make [ ("price", Value.TInt); ("tag", Value.TStr) ] in
  let rel =
    Relation.make schema
      (List.init 200 (fun i ->
           Tuple.make [ Value.Int 7; Value.Str (string_of_int i) ]))
  in
  let sql = "SELECT * FROM items PREFERRING LOWEST(price)" in
  let plan = explain_sql ~rel sql in
  check "identity plan" true (plan.Plan.plan = Plan.Identity);
  check "displaced plan in rejections" true
    (List.exists
       (fun (_, why) -> contains why "redundant")
       plan.Plan.trace.Planner.t_rejected);
  (* the executor serves the whole input *)
  let cfg = { auto_cfg with Pref_bmo.Engine.profile = true } in
  let r = Exec.run_cfg cfg [ ("items", rel) ] sql in
  check_int "all rows kept" 200 (Relation.cardinality r.Exec.relation);
  (match r.Exec.profile with
  | Some prof ->
    Alcotest.(check string) "identity algorithm" "identity"
      prof.Pref_obs.Profile.algorithm
  | None -> Alcotest.fail "no profile");
  (* with the model off the winnow evaluates for real (same answer) *)
  let off = { cfg with Pref_bmo.Engine.costmodel = false } in
  let r' = Exec.run_cfg off [ ("items", rel) ] sql in
  check_int "same rows without the rewrite" 200
    (Relation.cardinality r'.Exec.relation);
  match r'.Exec.profile with
  | Some prof ->
    check "real algorithm when off" true
      (prof.Pref_obs.Profile.algorithm <> "identity")
  | None -> Alcotest.fail "no profile"

let with_cache f =
  Pref_bmo.Cache.set_enabled true;
  Pref_bmo.Cache.clear Pref_bmo.Cache.global;
  Fun.protect
    ~finally:(fun () ->
      Pref_bmo.Cache.set_enabled false;
      Pref_bmo.Cache.clear Pref_bmo.Cache.global)
    f

let test_selection_commute_serve () =
  with_cache @@ fun () ->
  let rel = items 500 in
  let cfg = { auto_cfg with Pref_bmo.Engine.profile = true } in
  let env = [ ("items", rel) ] in
  (* populate the unfiltered winnow *)
  ignore (Exec.run_cfg cfg env "SELECT * FROM items PREFERRING LOWEST(price)");
  let sql =
    "SELECT * FROM items WHERE price <= 50 PREFERRING LOWEST(price)"
  in
  let r = Exec.run_cfg cfg env sql in
  (* price = i: the minimum 0 survives the filter, so the answers agree *)
  check_int "one best row" 1 (Relation.cardinality r.Exec.relation);
  (match r.Exec.profile with
  | Some prof ->
    Alcotest.(check string) "served by commuting with the selection"
      "cache-commute" prof.Pref_obs.Profile.algorithm
  | None -> Alcotest.fail "no profile");
  (* a selection keeping the WORSE side must not commute *)
  let r' =
    Exec.run_cfg cfg env
      "SELECT * FROM items WHERE price >= 50 PREFERRING LOWEST(price)"
  in
  check_int "winnow re-evaluated" 1 (Relation.cardinality r'.Exec.relation);
  match r'.Exec.profile with
  | Some prof ->
    check "not served from cache" true
      (prof.Pref_obs.Profile.algorithm <> "cache-commute")
  | None -> Alcotest.fail "no profile"

let test_join_pushdown () =
  let t1 =
    Relation.make
      (Schema.make [ ("id", Value.TInt); ("price", Value.TInt) ])
      (List.init 100 (fun i -> Tuple.make [ Value.Int i; Value.Int (i mod 10) ]))
  in
  let t2 =
    Relation.make
      (Schema.make [ ("tag", Value.TStr) ])
      (List.init 5 (fun i -> Tuple.make [ Value.Str (string_of_int i) ]))
  in
  let cfg = { auto_cfg with Pref_bmo.Engine.profile = true } in
  let env = [ ("t1", t1); ("t2", t2) ] in
  let sql = "SELECT * FROM t1, t2 PREFERRING LOWEST(price)" in
  let r = Exec.run_cfg cfg env sql in
  (* 10 ids have price 0, fanned out over 5 tags *)
  check_int "winnow of the product" 50 (Relation.cardinality r.Exec.relation);
  match r.Exec.profile with
  | Some prof ->
    Alcotest.(check string) "pushdown algorithm" "pushdown"
      prof.Pref_obs.Profile.algorithm
  | None -> Alcotest.fail "no profile"

let suite =
  [
    Alcotest.test_case "cost: predictions monotone." `Quick test_monotone;
    Alcotest.test_case "cost: parallel overhead at small n." `Quick
      test_parallel_overhead;
    Alcotest.test_case "cost: correlation bends the estimate." `Quick
      test_effective_output;
    Alcotest.test_case "cost: predicted ordering matches measured." `Slow
      test_predicted_matches_measured;
    Alcotest.test_case "cost: semantic-cache gate thresholds." `Quick
      test_gate_thresholds;
    Alcotest.test_case "cost: planner prices all alternatives." `Quick
      test_choose_prices_alternatives;
    Alcotest.test_case "cost: every priced candidate wins a workload." `Quick
      test_every_candidate_wins;
    Alcotest.test_case "constraints: winnow-redundancy proofs." `Quick
      test_constraints;
    Alcotest.test_case "cost: EXPLAIN renders predictions." `Quick
      test_explain_costs;
    Alcotest.test_case "exec: redundant winnow eliminated." `Quick
      test_identity_elimination;
    Alcotest.test_case "exec: selection commutes into the cache." `Quick
      test_selection_commute_serve;
    Alcotest.test_case "exec: winnow pushed through join fan-out." `Quick
      test_join_pushdown;
  ]

open Pref_relation
open Preferences
open Pref_bmo

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let schema = Schema.make [ ("color", Value.TStr); ("price", Value.TInt) ]
let mk (c, p) = Tuple.make [ Value.Str c; Value.Int p ]

let rel =
  Relation.make schema
    (List.map mk [ ("red", 100); ("red", 150); ("blue", 90); ("gray", 80) ])

let pref =
  Pref.pareto
    (Pref.pos_neg "color" ~pos:[ Value.Str "red" ] ~neg:[ Value.Str "gray" ])
    (Pref.around "price" 100.)

let test_explain_winner () =
  let e = Explain.explain schema pref rel (mk ("red", 100)) in
  check "in result" true e.Explain.in_result;
  check "no dominators" true (e.Explain.dominators = []);
  check_int "graph level 1" 1 e.Explain.graph_level;
  (match List.assoc "color" e.Explain.qualities with
  | Explain.Level 1 -> ()
  | _ -> Alcotest.fail "expected color level 1");
  match List.assoc "price" e.Explain.qualities with
  | Explain.Distance d -> Alcotest.(check (float 1e-9)) "distance 0" 0. d
  | _ -> Alcotest.fail "expected price distance"

let test_explain_loser () =
  let e = Explain.explain schema pref rel (mk ("red", 150)) in
  check "not in result" false e.Explain.in_result;
  check "dominated by (red, 100)" true
    (List.exists (Tuple.equal (mk ("red", 100))) e.Explain.dominators);
  check "graph level > 1" true (e.Explain.graph_level > 1);
  (* rendering mentions the verdict *)
  let text = Explain.to_string e in
  check "mentions 'dominated'" true
    (let needle = "dominated" in
     let nl = String.length needle and hl = String.length text in
     let rec go i = i + nl <= hl && (String.sub text i nl = needle || go (i + 1)) in
     go 0)

let test_sigma_consistency () =
  (* explain agrees with the query result, tuple by tuple *)
  let result = Query.sigma schema pref rel in
  List.iter
    (fun t ->
      let e = Explain.explain schema pref rel t in
      check "consistent" true (e.Explain.in_result = Relation.mem result t))
    (Relation.rows rel)

let test_unranked_pairs () =
  let pairs = Explain.unranked_pairs schema pref (Relation.rows rel) in
  (* (red,100) dominates everything except... check symmetric freedom *)
  check "pairs are mutually unranked" true
    (List.for_all
       (fun (t, u) ->
         (not (Pref.better schema pref t u)) && not (Pref.better schema pref u t))
       pairs);
  (* each unordered pair reported once *)
  check "no duplicate pairs" true
    (let key (t, u) =
       List.sort compare [ Fmt.str "%a" Tuple.pp t; Fmt.str "%a" Tuple.pp u ]
     in
     let keys = List.map key pairs in
     List.length keys = List.length (List.sort_uniq compare keys))

let test_progressive_sfs () =
  let num_schema = Schema.make [ ("x", Value.TFloat); ("y", Value.TFloat) ] in
  let rows =
    List.map
      (fun (a, b) -> Tuple.make [ Value.Float a; Value.Float b ])
      [ (1., 5.); (2., 2.); (5., 1.); (0., 0.); (3., 3.); (1., 1.) ]
  in
  let p = Pref.pareto (Pref.highest "x") (Pref.highest "y") in
  let dom = Dominance.of_pref num_schema p in
  let key = Sfs.sum_key num_schema [ "x"; "y" ] ~maximize:true in
  let seq = Sfs.progressive ~key dom rows in
  (* the first emitted tuple is available without draining the input *)
  (match seq () with
  | Seq.Cons (first, _) ->
    check "first result is a maximum" true
      (not (List.exists (fun u -> dom u first) rows))
  | Seq.Nil -> Alcotest.fail "expected output");
  (* a fresh sequence drained completely equals the batch skyline *)
  let all = List.of_seq (Sfs.progressive ~key dom rows) in
  let batch = Sfs.maxima ~key dom rows in
  check "progressive = batch" true
    (List.sort Tuple.compare all = List.sort Tuple.compare batch)

(* ------------------------------------------------------------------ *)
(* Plan-level EXPLAIN [ANALYZE]                                        *)

module Exec = Pref_sql.Exec
module Plan = Explain.Plan

(* n rows with price = i and mileage correlated or anti-correlated with
   it — enough rows to clear the n <= 64 naive cutoff, small enough to
   stay under the parallel threshold *)
let items ~anti n =
  let schema =
    Schema.make
      [ ("price", Value.TInt); ("mileage", Value.TInt); ("age", Value.TInt) ]
  in
  Relation.make schema
    (List.init n (fun i ->
         Tuple.make
           [
             Value.Int i;
             Value.Int (if anti then n - i else i + (i mod 7));
             Value.Int (i mod 11);
           ]))

let explain_sql ?(analyze = false) ?(cfg = Pref_bmo.Engine.default) ~rel sql =
  Exec.explain_within ~analyze
    ~deadline:(Pref_bmo.Engine.deadline_of cfg)
    cfg
    [ ("items", rel) ]
    sql

let auto_cfg = { Pref_bmo.Engine.default with algorithm = Pref_bmo.Engine.Alg_auto }
let chain_sql = "SELECT * FROM items PREFERRING LOWEST(price) AND LOWEST(mileage)"

let rec find_op name ops =
  List.find_map
    (fun o ->
      if o.Plan.op_name = name then Some o else find_op name o.Plan.op_children)
    ops

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_plan_bnl () =
  let rel = items ~anti:false 200 in
  let plan = explain_sql ~cfg:auto_cfg ~rel chain_sql in
  check "bnl chosen" true (plan.Plan.plan = Plan.Evaluate Pref_bmo.Planner.Plan_bnl);
  check "not forced" true (plan.Plan.forced = None);
  let tr = plan.Plan.trace in
  check_int "n is the filtered cardinality" 200 tr.Pref_bmo.Planner.t_n;
  check_int "dims from the chain" 2 tr.Pref_bmo.Planner.t_dims;
  check "estimate present" true (tr.Pref_bmo.Planner.t_estimate <> None);
  check "alternatives were rejected" true (tr.Pref_bmo.Planner.t_rejected <> []);
  (* plain EXPLAIN: the sigma op exists but has no actuals *)
  (match find_op "sigma" plan.Plan.ops with
  | Some o ->
    check "est_out on sigma" true (o.Plan.op_est_out <> None);
    check "no actual rows without analyze" true (o.Plan.op_rows_out = None);
    check "no timing without analyze" true (o.Plan.op_ms = None)
  | None -> Alcotest.fail "no sigma operator");
  check "no total without analyze" true (plan.Plan.total_ms = None);
  (* both renderers mention the plan *)
  let text = String.concat "\n" (Plan.to_text plan) in
  check "text names the plan" true (contains text "plan: bnl");
  check "text lists rejections" true (contains text "rejected");
  let json = Pref_obs.Json.to_string (Plan.to_json plan) in
  check "json carries plan_kind" true (contains json "\"plan_kind\":\"bnl\"")

let test_plan_analyze () =
  let rel = items ~anti:false 200 in
  let plan = explain_sql ~analyze:true ~cfg:auto_cfg ~rel chain_sql in
  check "analyze flag" true plan.Plan.analyze;
  (match find_op "sigma" plan.Plan.ops with
  | Some o ->
    (* price = i dominates everything: the BMO set is the single i = 0 row *)
    check "actual rows under analyze" true (o.Plan.op_rows_out = Some 1);
    check "rows_in is the input" true (o.Plan.op_rows_in = Some 200);
    check "estimated vs actual both present" true (o.Plan.op_est_out <> None);
    check "timed" true (o.Plan.op_ms <> None)
  | None -> Alcotest.fail "no sigma operator");
  check "total under analyze" true (plan.Plan.total_ms <> None)

let test_plan_dnc_anti () =
  (* perfectly anti-correlated dims: the planner must predict a large
     skyline and reject window algorithms (below 2000 rows the keyed
     window's quadratic term is still the cheaper one) *)
  let rel = items ~anti:true 2000 in
  let plan = explain_sql ~cfg:auto_cfg ~rel chain_sql in
  (match plan.Plan.plan with
  | Plan.Evaluate (Pref_bmo.Planner.Plan_dnc _) -> ()
  | p -> Alcotest.failf "expected dnc, got %s" (Plan.serve_to_string p));
  match plan.Plan.trace.Pref_bmo.Planner.t_correlation with
  | Some r -> check "negative correlation measured" true (r < -0.3)
  | None -> Alcotest.fail "no correlation in the trace"

let test_plan_forced_parallel () =
  let rel = items ~anti:false 200 in
  let cfg =
    { Pref_bmo.Engine.default with
      algorithm = Pref_bmo.Engine.Alg_parallel;
      domains = Some 2;
    }
  in
  let plan =
    explain_sql ~cfg ~rel "SELECT * FROM items PREFERRING LOWEST(price)"
  in
  (match plan.Plan.plan with
  | Plan.Evaluate (Pref_bmo.Planner.Plan_par_dnc _) -> ()
  | p -> Alcotest.failf "expected par_dnc, got %s" (Plan.serve_to_string p));
  (match plan.Plan.forced with
  | Some reason -> check "knob named as the forcing rule" true (contains reason "knob")
  | None -> Alcotest.fail "forced reason missing");
  (* the bypassed auto choice is first in the rejected list *)
  match plan.Plan.trace.Pref_bmo.Planner.t_rejected with
  | (alt, _) :: _ -> check "auto alternative recorded" true (contains alt "auto:")
  | [] -> Alcotest.fail "no rejected alternatives"

let test_plan_cache_tiers () =
  Gen.with_cache @@ fun () ->
  let rel = items ~anti:false 200 in
  (* populate: run the chain query for real *)
  ignore (Exec.run_cfg auto_cfg [ ("items", rel) ] chain_sql);
  (* exact tier *)
  let plan = explain_sql ~cfg:auto_cfg ~rel chain_sql in
  check "cache hit plan" true
    (plan.Plan.plan = Plan.Cached Pref_bmo.Cache.Exact);
  (match plan.Plan.trace.Pref_bmo.Planner.t_probes with
  | { Pref_bmo.Cache.tier = "exact"; hit = true; ms } :: _ ->
    check "probe timing recorded" true (ms >= 0.)
  | _ -> Alcotest.fail "expected a hitting exact probe first");
  let text = String.concat "\n" (Plan.to_text plan) in
  check "probe table rendered" true (contains text "exact");
  (* semantic tier: refine the cached term by a *fresh* attribute — a
     refinement over attrs the chain already covers is rewritten away
     (Rewrite: attrs(r) ⊆ attrs(q) makes the prior redundant) and would
     collapse back to an exact hit *)
  let refined = chain_sql ^ " PRIOR TO HIGHEST(age)" in
  let plan = explain_sql ~cfg:auto_cfg ~rel refined in
  (match plan.Plan.plan with
  | Plan.Cached (Pref_bmo.Cache.Semantic _) -> ()
  | p -> Alcotest.failf "expected cache_semantic, got %s" (Plan.serve_to_string p));
  let probes = plan.Plan.trace.Pref_bmo.Planner.t_probes in
  check "exact missed first" true
    (match probes with
    | { Pref_bmo.Cache.tier = "exact"; hit = false; _ } :: _ -> true
    | _ -> false);
  check "prior-prefix tier hit" true
    (List.exists
       (fun pr -> pr.Pref_bmo.Cache.tier = "prior-prefix" && pr.Pref_bmo.Cache.hit)
       probes);
  (* explaining must not count or store: the probe is non-destructive *)
  let s = Pref_bmo.Cache.stats Pref_bmo.Cache.global in
  check "explain did not count cache hits" true (s.Pref_bmo.Cache.hits = 0)

(* EXPLAIN [ANALYZE] against the run it explains: for every σ serve and
   every presentation stage, EXPLAIN ANALYZE reports the run profile's
   σ algorithm, the run's final row count and its [truncated] flag, and
   plain EXPLAIN prints the same plan line. *)
let test_plan_matches_run () =
  let table cols rows =
    Relation.make (Schema.make cols) (List.map Tuple.make rows)
  in
  let env =
    [
      ("items", items ~anti:false 200);
      ("anti", items ~anti:true 200);
      ( "flat",
        table
          [ ("price", Value.TInt); ("tag", Value.TStr) ]
          (List.init 200 (fun i -> [ Value.Int 7; Value.Str (string_of_int i) ]))
      );
      ( "t1",
        table
          [ ("id", Value.TInt); ("price", Value.TInt) ]
          (List.init 100 (fun i -> [ Value.Int i; Value.Int (i mod 10) ])) );
      ( "t2",
        table
          [ ("tag", Value.TStr) ]
          (List.init 5 (fun i -> [ Value.Str (string_of_int i) ])) );
    ]
  in
  let profiled cfg = { cfg with Pref_bmo.Engine.profile = true } in
  let bnl = profiled Pref_bmo.Engine.default and auto = profiled auto_cfg in
  (* label, config, statement, statement that warms the cache first *)
  let rows =
    [
      ("bnl knob", bnl, chain_sql, None);
      ("auto chain", auto, chain_sql, None);
      ( "warm-cache commute",
        auto,
        "SELECT * FROM items WHERE price <= 50 PREFERRING LOWEST(price)",
        Some "SELECT * FROM items PREFERRING LOWEST(price)" );
      ("identity", auto, "SELECT * FROM flat PREFERRING LOWEST(price)", None);
      ( "identity under a deadline",
        { auto with Pref_bmo.Engine.deadline_ms = Some 60_000. },
        "SELECT * FROM flat PREFERRING LOWEST(price)",
        None );
      ( "join pushdown",
        auto,
        "SELECT * FROM t1, t2 PREFERRING LOWEST(price)",
        None );
      ( "grouping",
        bnl,
        "SELECT * FROM items PREFERRING LOWEST(mileage) GROUPING age",
        None );
      ( "scorable top k",
        auto,
        "SELECT * FROM items PREFERRING LOWEST(price) TOP 3",
        None );
      ( "but only, order by, top, projection",
        bnl,
        "SELECT price, mileage FROM anti PREFERRING price AROUND 50 AND \
         LOWEST(mileage) BUT ONLY DISTANCE(price) <= 20 ORDER BY mileage \
         DESC TOP 4",
        None );
      ( "max_rows = 3",
        { bnl with Pref_bmo.Engine.max_rows = Some 3 },
        "SELECT * FROM anti PREFERRING LOWEST(price) AND LOWEST(mileage)",
        None );
    ]
  in
  let explain ~analyze cfg sql =
    Exec.explain_within ~analyze
      ~deadline:(Pref_bmo.Engine.deadline_of cfg)
      cfg env sql
  in
  let check_row (label, cfg, sql, _) =
    let run = Exec.run_cfg cfg env sql in
    let analyzed = explain ~analyze:true cfg sql in
    let plain = explain ~analyze:false cfg sql in
    let algorithm = (Option.get run.Exec.profile).Pref_obs.Profile.algorithm in
    let rows = Relation.cardinality run.Exec.relation in
    let truncated = run.Exec.flags.Pref_bmo.Engine.truncated in
    let sigma_algorithm =
      Option.bind (find_op "sigma" analyzed.Plan.ops) (fun o ->
          List.assoc_opt "algorithm" o.Plan.op_attrs)
    in
    let final_rows =
      match List.rev analyzed.Plan.ops with
      | last :: _ -> last.Plan.op_rows_out
      | [] -> None
    in
    let flagged =
      List.exists
        (fun o -> List.mem ("truncated", "true") o.Plan.op_attrs)
        analyzed.Plan.ops
    in
    let plan_line e = List.nth (Plan.to_text e) 1 in
    List.filter_map
      (fun (ok, what) -> if ok then None else Some (label ^ ": " ^ what))
      [
        ( sigma_algorithm = Some algorithm,
          Printf.sprintf "sigma algorithm %s, run profile %s"
            (Option.value sigma_algorithm ~default:"-")
            algorithm );
        ( final_rows = Some rows,
          Printf.sprintf "final rows %s, run %d"
            (Option.fold ~none:"-" ~some:string_of_int final_rows)
            rows );
        ( flagged = truncated,
          Printf.sprintf "truncated %b, run %b" flagged truncated );
        ( plan_line plain = plan_line analyzed,
          Printf.sprintf "%S vs %S" (plan_line plain) (plan_line analyzed) );
      ]
  in
  let mismatches =
    List.concat_map
      (fun ((_, cfg, _, warm) as row) ->
        match warm with
        | None -> check_row row
        | Some sql ->
          Gen.with_cache (fun () ->
              ignore (Exec.run_cfg cfg env sql);
              check_row row))
      rows
  in
  if mismatches <> [] then
    Alcotest.failf "EXPLAIN disagrees with the run:\n%s"
      (String.concat "\n" mismatches)

let test_plan_requires_preference () =
  let rel = items ~anti:false 10 in
  match explain_sql ~rel "SELECT * FROM items" with
  | exception Exec.Error msg -> check "names the clause" true (contains msg "PREFERRING")
  | _ -> Alcotest.fail "EXPLAIN without a preference must be refused"

let suite =
  [
    Gen.quick "explain a best match" test_explain_winner;
    Gen.quick "explain a dominated tuple" test_explain_loser;
    Gen.quick "explain consistent with sigma" test_sigma_consistency;
    Gen.quick "negotiation reservoir pairs" test_unranked_pairs;
    Gen.quick "progressive skyline" test_progressive_sfs;
    Gen.quick "plan: bnl with decision inputs" test_plan_bnl;
    Gen.quick "plan: analyze fills actuals" test_plan_analyze;
    Gen.quick "plan: anti-correlation picks dnc" test_plan_dnc_anti;
    Gen.quick "plan: algorithm knob forces" test_plan_forced_parallel;
    Gen.quick "plan: cache tiers in probes" test_plan_cache_tiers;
    Gen.quick "plan: preference required" test_plan_requires_preference;
    Gen.quick "plan: EXPLAIN ANALYZE matches the run" test_plan_matches_run;
  ]

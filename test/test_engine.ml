(* The unified Engine.config / Session API: knob parsing, config-driven
   sigma entry points vs the legacy wrappers, deadline degradation, row
   caps, and per-session state. *)

open Pref_relation
open Preferences
open Pref_bmo
module Synthetic = Pref_workload.Synthetic
module Session = Pref_engine.Session

let check = Alcotest.(check bool)

let rel = Synthetic.relation ~seed:42 ~n:400 ~dims:3 Synthetic.Anti_correlated
let schema = Relation.schema rel

let pareto_pref =
  match Synthetic.dim_names 3 with
  | a :: b :: rest ->
    List.fold_left
      (fun acc d -> Pref.pareto acc (Pref.lowest d))
      (Pref.pareto (Pref.lowest a) (Pref.lowest b))
      rest
  | _ -> assert false

let sigma_with cfg schema p rel =
  Query.sigma_within ~deadline:(Engine.deadline_of cfg) cfg schema p rel

(* ------------------------------------------------------------------ *)

let test_knobs () =
  let cfg = Engine.default in
  check "default is bnl" true (cfg.Engine.algorithm = Engine.Alg_bnl);
  let set k v cfg =
    match Engine.set cfg ~key:k ~value:v with
    | Ok cfg -> cfg
    | Error e -> Alcotest.failf "set %s %s: %s" k v e
  in
  let cfg =
    cfg |> set "algorithm" "parallel" |> set "domains" "3" |> set "cache" "off"
    |> set "check" "on" |> set "profile" "on" |> set "deadline" "12.5"
    |> set "maxrows" "7"
  in
  check "algorithm set" true (cfg.Engine.algorithm = Engine.Alg_parallel);
  check "domains set" true (cfg.Engine.domains = Some 3);
  check "cache off" true (not cfg.Engine.cache);
  check "check on" true cfg.Engine.check;
  check "profile on" true cfg.Engine.profile;
  check "deadline set" true (cfg.Engine.deadline_ms = Some 12.5);
  check "maxrows set" true (cfg.Engine.max_rows = Some 7);
  let cfg = cfg |> set "deadline" "off" |> set "maxrows" "off" in
  check "deadline cleared" true (cfg.Engine.deadline_ms = None);
  check "maxrows cleared" true (cfg.Engine.max_rows = None);
  (* describe speaks the same language as set *)
  List.iter
    (fun (k, v) -> if v <> "default" then ignore (set k v cfg))
    (Engine.describe cfg);
  List.iter
    (fun (key, value) ->
      check
        (Printf.sprintf "rejects %s=%s" key value)
        true
        (Result.is_error (Engine.set Engine.default ~key ~value)))
    [
      ("algorithm", "quantum");
      ("domains", "0");
      ("domains", "many");
      ("cache", "maybe");
      ("deadline", "-5");
      ("maxrows", "0");
      ("nonsense", "1");
    ]

let test_cfg_matches_legacy () =
  List.iter
    (fun alg ->
      let legacy = Query.sigma schema pareto_pref rel in
      let via_cfg, flags =
        sigma_with
          { Engine.default with algorithm = alg; cache = false }
          schema pareto_pref rel
      in
      check
        ("cfg = legacy for " ^ Query.algorithm_to_string alg)
        true
        (Relation.equal_as_sets legacy via_cfg);
      check "complete flags" true
        ((not flags.Engine.partial) && not flags.Engine.truncated))
    [ Query.Alg_naive; Query.Alg_bnl; Query.Alg_decompose; Query.Alg_auto ];
  (* groupby wrapper vs cfg *)
  let by = [ List.hd (Synthetic.dim_names 3) ] in
  let legacy = Groupby.query schema pareto_pref ~by rel in
  let via_cfg, _ =
    Query.sigma_groupby_within ~deadline:Engine.no_deadline
      { Engine.default with cache = false }
      schema pareto_pref ~by rel
  in
  check "groupby cfg = legacy" true (Relation.equal_as_sets legacy via_cfg)

let test_max_rows () =
  let full, flags =
    sigma_with { Engine.default with cache = false } schema pareto_pref rel
  in
  check "uncapped is complete" true (not flags.Engine.truncated);
  let n = Relation.cardinality full in
  check "anti-correlated BMO is big enough to cap" true (n > 3);
  let capped, flags =
    sigma_with
      { Engine.default with cache = false; max_rows = Some 3 }
      schema pareto_pref rel
  in
  check "capped to 3" true (Relation.cardinality capped = 3);
  check "truncated flagged" true flags.Engine.truncated;
  check "cap above cardinality does not flag" true
    (let r, f =
       sigma_with
         { Engine.default with cache = false; max_rows = Some (n + 10) }
         schema pareto_pref rel
     in
     Relation.cardinality r = n && not f.Engine.truncated)

let test_deadline_degradation () =
  (* an already-expired budget degrades deterministically: empty prefix,
     partial flag — and it never errors or hangs *)
  let r, flags =
    sigma_with
      { Engine.default with cache = false; deadline_ms = Some 0. }
      schema pareto_pref rel
  in
  check "expired deadline yields empty prefix" true (Relation.cardinality r = 0);
  check "partial flagged" true flags.Engine.partial;
  (* a generous budget completes identically to no deadline *)
  let full =
    fst (sigma_with { Engine.default with cache = false } schema pareto_pref rel)
  in
  let r, flags =
    sigma_with
      { Engine.default with cache = false; deadline_ms = Some 60_000. }
      schema pareto_pref rel
  in
  check "generous deadline completes" true (Relation.equal_as_sets full r);
  check "no partial flag" true (not flags.Engine.partial);
  (* the kernel-level contract: the window at cutoff is the BMO set of the
     scanned prefix *)
  let dom = Dominance.of_pref schema pareto_pref in
  let rows = Relation.rows rel in
  let best, timed_out =
    let arr = Array.of_list rows in
    let r = Bnl.window ~deadline:Engine.no_deadline dom arr in
    (Bnl.select arr r, r.Bnl.timed_out)
  in
  check "no-deadline kernel = maxima" true
    (best = Bnl.maxima dom rows && not timed_out)

let test_partial_never_cached () =
  Gen.with_cache (fun () ->
      let degraded, flags =
        sigma_with
          { Engine.default with deadline_ms = Some 0. }
          schema pareto_pref rel
      in
      check "degraded under cache" true
        (flags.Engine.partial && Relation.cardinality degraded = 0);
      (* the partial result must not have poisoned the cache *)
      let full, flags = sigma_with Engine.default schema pareto_pref rel in
      check "subsequent full query is complete" true (not flags.Engine.partial);
      check "and correct" true
        (Relation.equal_as_sets full
           (fst
              (sigma_with { Engine.default with cache = false } schema
                 pareto_pref rel)));
      (* now warm: an expired deadline is served from the cache, complete *)
      let warm, flags =
        sigma_with
          { Engine.default with deadline_ms = Some 0. }
          schema pareto_pref rel
      in
      check "cache outruns the deadline" true
        ((not flags.Engine.partial) && Relation.equal_as_sets warm full))

(* The degradation oracle: a deadline cut returns exactly the BMO set of
   the rows scanned up to the poll that saw the expiry. The cut is made
   deterministic by a dominance test that, on candidate [j], spins until a
   short deadline has passed: the scan then stops at the next multiple of
   [Bnl.deadline_stride]. *)
let test_deadline_cut_oracle () =
  let stride = Bnl.deadline_stride in
  let rel =
    Synthetic.relation ~seed:7 ~n:(3 * stride) ~dims:3
      Synthetic.Anti_correlated
  in
  let schema = Relation.schema rel in
  let rows = Relation.rows rel in
  let arr = Array.of_list rows in
  let j = stride + (stride / 2) in
  let next_poll = ((j / stride) + 1) * stride in
  let budget () =
    Engine.deadline_of { Engine.default with deadline_ms = Some 200. }
  in
  (* a score preference on d0 that stalls on row j's value until [deadline]
     has expired — equivalent to LOWEST(d0) otherwise *)
  let slow_pref deadline =
    let stall = Tuple.get arr.(j) (Schema.index_of_exn schema "d0") in
    Pref.pareto
      (Pref.score "d0" ~name:"slow_d0" (fun v ->
           if Value.equal v stall then
             while not (Engine.expired deadline) do
               ()
             done;
           -.Option.get (Value.as_float v)))
      (Pref.pareto (Pref.lowest "d1") (Pref.lowest "d2"))
  in
  let prefix_bmo p =
    Naive.maxima (Dominance.of_pref schema p)
      (List.filteri (fun i _ -> i < next_poll) rows)
  in
  (* from the loop directly *)
  let deadline = budget () in
  let p = slow_pref deadline in
  let r = Bnl.window ~deadline (Dominance.of_pref schema p) arr in
  check "loop: cut flagged" true r.Bnl.timed_out;
  check "loop: window = naive BMO of the rows up to the next poll" true
    (List.equal Tuple.equal (Bnl.select arr r) (prefix_bmo p));
  (* through the query ladder, with the cache on: the degraded answer is
     the same prefix BMO set and never reaches the cache *)
  Gen.with_cache (fun () ->
      let deadline = budget () in
      let p = slow_pref deadline in
      let out, flags =
        Query.sigma_within ~deadline Engine.default schema p rel
      in
      check "query: partial flagged" true flags.Engine.partial;
      check "query: answer = naive BMO of the rows up to the next poll" true
        (List.equal Tuple.equal (Relation.rows out) (prefix_bmo p));
      check "query: degraded answer not cached" true
        ((Cache.stats Cache.global).Cache.entries = 0
        && Cache.probe Cache.global schema p rel = None))

(* One statement four ways — [deadline_ms] unset or generous, crossed with
   [profile] off or on — returns the same rows and flags and moves the
   query metrics by the same amounts: the flags pick the budget and what
   the run reports, not what it runs or records. *)
let test_same_answer_whatever_the_flags () =
  let counts () =
    Pref_obs.Metrics.
      ( count Obs.queries,
        count Obs.dominance_tests,
        hist_count Obs.query_ms )
  in
  let run deadline_ms profile =
    Pref_obs.Control.with_enabled true (fun () ->
        let q0, t0, h0 = counts () in
        let r =
          Pref_sql.Exec.run_cfg
            { Engine.default with cache = false; deadline_ms; profile }
            [ ("sky", rel) ]
            "SELECT * FROM sky PREFERRING LOWEST(d0) AND LOWEST(d1) AND \
             LOWEST(d2)"
        in
        let q1, t1, h1 = counts () in
        (r, (q1 - q0, t1 - t0, h1 - h0)))
  in
  let runs =
    List.concat_map
      (fun deadline_ms -> [ run deadline_ms false; run deadline_ms true ])
      [ None; Some 1e9 ]
  in
  Pref_obs.Span.clear ();
  let r0, m0 = List.hd runs in
  let q, t, h = m0 in
  check "one query, its dominance tests and its latency recorded" true
    (q = 1 && t > 0 && h = 1);
  List.iteri
    (fun i (r, m) ->
      check (Printf.sprintf "run %d: same rows" i) true
        (List.equal Tuple.equal
           (Relation.rows r.Pref_sql.Exec.relation)
           (Relation.rows r0.Pref_sql.Exec.relation));
      check (Printf.sprintf "run %d: same flags" i) true
        (r.Pref_sql.Exec.flags = r0.Pref_sql.Exec.flags);
      check (Printf.sprintf "run %d: same metric moves" i) true (m = m0))
    runs;
  (* warm cache: the structured result names the tier whatever [profile] *)
  Gen.with_cache (fun () ->
      ignore (Query.sigma schema pareto_pref rel);
      List.iter
        (fun profile ->
          let r =
            Query.run_within ~deadline:Engine.no_deadline
              { Engine.default with profile }
              schema pareto_pref rel
          in
          Alcotest.(check (option string))
            (Printf.sprintf "warm plan, profile %b" profile)
            (Some "cache:exact") r.Engine.Result.plan)
        [ false; true ])

(* ------------------------------------------------------------------ *)

let exec_env = [ ("sky", rel) ]

let sky_query =
  "SELECT * FROM sky PREFERRING LOWEST(d0) AND LOWEST(d1) AND LOWEST(d2)"

let test_exec_cfg () =
  let legacy = Pref_sql.Exec.run exec_env sky_query in
  check "legacy flags are complete" true
    (legacy.Pref_sql.Exec.flags = Engine.complete);
  let via_cfg =
    Pref_sql.Exec.run_cfg { Engine.default with cache = false } exec_env
      sky_query
  in
  check "exec cfg = legacy" true
    (Relation.equal_as_sets legacy.Pref_sql.Exec.relation
       via_cfg.Pref_sql.Exec.relation);
  let degraded =
    Pref_sql.Exec.run_cfg
      { Engine.default with cache = false; deadline_ms = Some 0. }
      exec_env sky_query
  in
  check "exec degrades to partial" true
    degraded.Pref_sql.Exec.flags.Engine.partial;
  let capped =
    Pref_sql.Exec.run_cfg
      { Engine.default with cache = false; max_rows = Some 2 }
      exec_env sky_query
  in
  check "exec caps rows" true
    (Relation.cardinality capped.Pref_sql.Exec.relation = 2
    && capped.Pref_sql.Exec.flags.Engine.truncated)

let test_session () =
  let s = Session.create ~env:exec_env () in
  (match Session.set s ~key:"cache" ~value:"off" with
  | Ok line -> check "set confirms" true (line = "cache: off")
  | Error e -> Alcotest.fail e);
  check "set rejects nonsense" true
    (Result.is_error (Session.set s ~key:"warp" ~value:"9"));
  let r = Session.run s sky_query in
  check "session runs" true (Relation.cardinality r.Pref_sql.Exec.relation > 0);
  (* prepared statements *)
  Session.prepare s ~name:"best" sky_query;
  check "prepared listed" true (Session.prepared s = [ "best" ]);
  let p = Session.run s "@best" in
  check "prepared executes" true
    (Relation.equal_as_sets r.Pref_sql.Exec.relation
       p.Pref_sql.Exec.relation);
  let contains ~sub s =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check "unknown prepared suggests" true
    (try
       ignore (Session.run s "@bost");
       false
     with Pref_sql.Exec.Error msg -> contains ~sub:{|"best"|} msg);
  (* stats counted the work, including the error *)
  let st = Session.stats s in
  check "queries counted" true (st.Session.queries = 3);
  check "error counted" true (st.Session.errors = 1);
  (* deadline knob flows through run *)
  (match Session.set s ~key:"deadline" ~value:"0" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let d = Session.run s sky_query in
  check "session degrades" true d.Pref_sql.Exec.flags.Engine.partial;
  let st = Session.stats s in
  check "degraded counted" true (st.Session.degraded = 1)

let test_session_isolation () =
  let a = Session.create ~env:exec_env () in
  let b = Session.create ~env:exec_env () in
  (match Session.set a ~key:"maxrows" ~value:"1" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let ra = Session.run a sky_query in
  let rb = Session.run b sky_query in
  check "a is capped" true (Relation.cardinality ra.Pref_sql.Exec.relation = 1);
  check "b is not" true (Relation.cardinality rb.Pref_sql.Exec.relation > 1);
  check "stats are per-session" true
    ((Session.stats a).Session.queries = 1
    && (Session.stats b).Session.queries = 1)

let suite =
  let module Gen = struct
    let quick name f = Alcotest.test_case name `Quick f
  end in
  [
    Gen.quick "engine: knob parsing" test_knobs;
    Gen.quick "engine: cfg matches legacy wrappers" test_cfg_matches_legacy;
    Gen.quick "engine: max_rows cap" test_max_rows;
    Gen.quick "engine: deadline degradation" test_deadline_degradation;
    Gen.quick "engine: partial results never cached" test_partial_never_cached;
    Gen.quick "engine: deadline cut = BMO of the scanned prefix"
      test_deadline_cut_oracle;
    Gen.quick "engine: same answer whatever the flags"
      test_same_answer_whatever_the_flags;
    Gen.quick "exec: config entry points" test_exec_cfg;
    Gen.quick "session: knobs, prepared, stats" test_session;
    Gen.quick "session: isolation" test_session_isolation;
  ]

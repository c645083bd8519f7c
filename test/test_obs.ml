(* The telemetry layer: spans, metrics, profiles, and their wiring into the
   BMO stack, the Preference SQL executor, and the shell. *)

open Pref_relation
open Preferences
open Pref_bmo

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let has_infix ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let schema =
  Schema.make [ ("a", Value.TInt); ("b", Value.TInt); ("c", Value.TStr) ]

let rel =
  Relation.of_lists schema
    [
      [ Int 1; Int 9; Str "x" ];
      [ Int 3; Int 3; Str "y" ];
      [ Int 9; Int 1; Str "x" ];
      [ Int 5; Int 5; Str "y" ];
      [ Int 2; Int 8; Str "x" ];
      [ Int 8; Int 2; Str "y" ];
      [ Int 7; Int 7; Str "x" ];
    ]

let skyline = Pref.pareto (Pref.lowest "a") (Pref.lowest "b")

(* --- control ------------------------------------------------------------ *)

let test_control () =
  check "off by default in tests" true (not (Pref_obs.Control.is_enabled ()));
  let r =
    Pref_obs.Control.with_enabled true (fun () -> Pref_obs.Control.is_enabled ())
  in
  check "on inside with_enabled" true r;
  check "restored after with_enabled" true (not (Pref_obs.Control.is_enabled ()));
  (* restored even when the thunk raises *)
  (try Pref_obs.Control.with_enabled true (fun () -> failwith "boom")
   with Failure _ -> ());
  check "restored after an exception" true (not (Pref_obs.Control.is_enabled ()))

(* --- spans -------------------------------------------------------------- *)

let test_span_nesting () =
  Pref_obs.Control.with_enabled true (fun () ->
      Pref_obs.Span.clear ();
      let (), root =
        Pref_obs.Span.collect "root" (fun () ->
            Pref_obs.Span.with_span "child1" (fun () ->
                Pref_obs.Span.with_span "grand" (fun () ->
                    Pref_obs.Span.add_attr "k" "v"));
            Pref_obs.Span.with_span "child2" ignore)
      in
      match root with
      | None -> Alcotest.fail "expected a root span when enabled"
      | Some n ->
        check_str "root name" "root" n.Pref_obs.Span.name;
        Alcotest.(check (list string))
          "children in execution order" [ "child1"; "child2" ]
          (List.map (fun c -> c.Pref_obs.Span.name) n.Pref_obs.Span.children);
        (match n.Pref_obs.Span.children with
        | [ c1; _ ] ->
          Alcotest.(check (list string))
            "grandchild" [ "grand" ]
            (List.map (fun c -> c.Pref_obs.Span.name) c1.Pref_obs.Span.children);
          (match c1.Pref_obs.Span.children with
          | [ g ] ->
            check "attr attached to innermost open span" true
              (List.mem_assoc "k" g.Pref_obs.Span.attrs)
          | _ -> Alcotest.fail "expected one grandchild")
        | _ -> Alcotest.fail "expected two children");
        check "durations are non-negative" true
          (Pref_obs.Span.duration_ms n >= 0.);
        (* the finished root lands in the ring, most recent first *)
        (match Pref_obs.Span.roots () with
        | r :: _ -> check_str "ring head" "root" r.Pref_obs.Span.name
        | [] -> Alcotest.fail "expected the root in the ring");
        (* exporters mention the tree *)
        check "text export has children" true
          (has_infix ~affix:"child2" (Pref_obs.Span.to_text n));
        check "json export has children" true
          (has_infix ~affix:{|"child1"|}
             (Pref_obs.Json.to_string (Pref_obs.Span.to_json n))));
  Pref_obs.Span.clear ()

let test_span_disabled () =
  Pref_obs.Span.clear ();
  let r, node = Pref_obs.Span.collect "x" (fun () -> 42) in
  check_int "thunk result passes through" 42 r;
  check "no node when disabled" true (node = None);
  check "nothing retained" true (Pref_obs.Span.roots () = []);
  check_int "with_span is the identity" 7
    (Pref_obs.Span.with_span "y" (fun () -> 7))

let test_span_exception_safety () =
  Pref_obs.Control.with_enabled true (fun () ->
      Pref_obs.Span.clear ();
      (try
         Pref_obs.Span.with_span "outer" (fun () ->
             Pref_obs.Span.with_span "inner" (fun () -> failwith "boom"))
       with Failure _ -> ());
      (* both spans were closed: a fresh root opens at depth 0 again *)
      let (), root = Pref_obs.Span.collect "after" ignore in
      match root with
      | Some n -> check "no leaked open span" true (n.Pref_obs.Span.children = [])
      | None -> Alcotest.fail "expected a root span");
  Pref_obs.Span.clear ()

let test_timed () =
  let r, ms = Pref_obs.Span.timed (fun () -> List.init 1000 Fun.id |> List.length) in
  check_int "timed passes the result through" 1000 r;
  check "timed works with telemetry off" true (ms >= 0.)

(* --- metrics ------------------------------------------------------------ *)

let test_counter () =
  Pref_obs.Control.with_enabled true (fun () ->
      let c = Pref_obs.Metrics.counter "test.counter" in
      check "same name, same counter" true
        (Pref_obs.Metrics.counter "test.counter" == c);
      Pref_obs.Metrics.reset ();
      Pref_obs.Metrics.incr c;
      Pref_obs.Metrics.incr ~by:4 c;
      check_int "incr accumulates" 5 (Pref_obs.Metrics.count c);
      check "lookup by name" true
        (Pref_obs.Metrics.counter_value "test.counter" = Some 5));
  (* disabled: mutation is a no-op, reading still works *)
  let c = Pref_obs.Metrics.counter "test.counter" in
  Pref_obs.Metrics.incr ~by:100 c;
  check_int "disabled incr is a no-op" 5 (Pref_obs.Metrics.count c)

let test_gauge () =
  Pref_obs.Control.with_enabled true (fun () ->
      let g = Pref_obs.Metrics.gauge "test.gauge" in
      Pref_obs.Metrics.set g 2.5;
      check "set" true (Pref_obs.Metrics.value g = 2.5);
      Pref_obs.Metrics.set_max g 1.0;
      check "set_max keeps the peak" true (Pref_obs.Metrics.value g = 2.5);
      Pref_obs.Metrics.set_max g 7.0;
      check "set_max raises" true (Pref_obs.Metrics.value g = 7.0))

let test_histogram () =
  Pref_obs.Control.with_enabled true (fun () ->
      let h =
        Pref_obs.Metrics.histogram ~bounds:[| 1.; 10.; 100. |] "test.hist"
      in
      List.iter (Pref_obs.Metrics.observe h) [ 0.5; 5.; 50.; 5000. ];
      check_int "observation count" 4 (Pref_obs.Metrics.hist_count h);
      check "sum" true (Pref_obs.Metrics.hist_sum h = 5055.5);
      (match Pref_obs.Metrics.buckets h with
      | [ (b1, 1); (b2, 1); (b3, 1); (b4, 1) ] ->
        check "bucket bounds" true
          (b1 = 1. && b2 = 10. && b3 = 100. && b4 = infinity)
      | bs -> Alcotest.failf "unexpected buckets (%d)" (List.length bs));
      (* boundary value goes into its bucket (upper bounds are inclusive) *)
      Pref_obs.Metrics.observe h 10.;
      check "boundary bucket" true
        (List.assoc 10. (Pref_obs.Metrics.buckets h) = 2);
      Pref_obs.Metrics.reset ();
      check_int "reset zeroes counts" 0 (Pref_obs.Metrics.hist_count h);
      check "reset zeroes sum" true (Pref_obs.Metrics.hist_sum h = 0.));
  (* registering an existing name as a different kind is an error *)
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Metrics: test.hist registered with another kind")
    (fun () -> ignore (Pref_obs.Metrics.counter "test.hist"))

let test_dump_and_json () =
  Pref_obs.Control.with_enabled true (fun () ->
      Pref_obs.Metrics.reset ();
      Pref_obs.Metrics.incr ~by:3 (Pref_obs.Metrics.counter "test.counter"));
  let dump = Pref_obs.Metrics.dump () in
  check "dump mentions the counter" true
    (List.exists (has_infix ~affix:"test.counter") dump);
  let json = Pref_obs.Json.to_string (Pref_obs.Metrics.to_json ()) in
  check "json registry has the counter" true
    (has_infix ~affix:{|"test.counter":3|} json)

(* The whole point of the gating discipline: with telemetry off, hammering
   every mutator allocates nothing on the minor heap. *)
let test_noop_no_allocation () =
  check "telemetry off" true (not (Pref_obs.Control.is_enabled ()));
  let c = Pref_obs.Metrics.counter "test.alloc.c" in
  let g = Pref_obs.Metrics.gauge "test.alloc.g" in
  let h = Pref_obs.Metrics.histogram "test.alloc.h" in
  let thunk () = () in
  let hammer () =
    for _ = 1 to 10_000 do
      Pref_obs.Metrics.incr c;
      Pref_obs.Metrics.set g 1.0;
      Pref_obs.Metrics.set_max g 2.0;
      Pref_obs.Metrics.observe h 3.0;
      Pref_obs.Span.with_span "test.alloc.span" thunk
    done
  in
  hammer ();
  (* warmed up *)
  let before = Gc.minor_words () in
  hammer ();
  let words = Gc.minor_words () -. before in
  (* a small slack for the Gc.minor_words calls themselves *)
  check
    (Printf.sprintf "no-op mode allocates nothing (%.0f minor words)" words)
    true (words < 256.);
  check_int "and mutated nothing" 0 (Pref_obs.Metrics.count c)

(* --- json --------------------------------------------------------------- *)

let test_json () =
  let open Pref_obs.Json in
  check_str "escaping" {|{"s":"a\"b\nc","n":null,"l":[1,2.5,true]}|}
    (to_string
       (Obj
          [
            ("s", Str "a\"b\nc");
            ("n", Null);
            ("l", List [ Int 1; Float 2.5; Bool true ]);
          ]));
  check_str "non-finite floats become null" "[null,null]"
    (to_string (List [ Float Float.nan; Float Float.infinity ]))

(* --- profiles ----------------------------------------------------------- *)

let profiled algorithm schema p rel =
  let r =
    Query.run_within ~deadline:Engine.no_deadline
      { Engine.default with algorithm; profile = true }
      schema p rel
  in
  (r.Engine.Result.rows, Option.get r.Engine.Result.profile)

(* BNL's profiled comparison count must equal running the same counted
   dominance test through the same window pass by hand. *)
let test_profile_bnl_exact () =
  let dom = Dominance.of_pref schema skyline in
  let dom_counted, n = Dominance.counting dom in
  let expected_rows = Bnl.maxima dom_counted (Relation.rows rel) in
  let expected_comparisons = n () in
  let out, prof =
    profiled Query.Alg_bnl schema skyline rel
  in
  check_str "algorithm" "bnl" prof.Pref_obs.Profile.algorithm;
  check_int "input rows" (Relation.cardinality rel)
    prof.Pref_obs.Profile.input_rows;
  check_int "output rows" (List.length expected_rows)
    prof.Pref_obs.Profile.output_rows;
  check_int "exact comparison count" expected_comparisons
    prof.Pref_obs.Profile.comparisons;
  check "same result as the plain query" true
    (Relation.equal_as_sets out
       (Planner.execute schema skyline rel Planner.Plan_bnl));
  check "window peak recorded" true
    (List.mem_assoc "window_peak" prof.Pref_obs.Profile.attrs);
  check "has an evaluate phase" true
    (List.exists
       (fun ph -> ph.Pref_obs.Profile.phase_name = "evaluate")
       prof.Pref_obs.Profile.phases);
  (* rendering mentions the headline facts *)
  let lines = String.concat "\n" (Pref_obs.Profile.to_lines prof) in
  check "to_lines mentions the dominance tests" true
    (has_infix ~affix:"dominance tests" lines)

let test_profile_naive_exact () =
  let dom = Dominance.of_pref schema skyline in
  let dom_counted, n = Dominance.counting dom in
  ignore (Naive.maxima dom_counted (Relation.rows rel));
  let _, prof =
    profiled Query.Alg_naive schema skyline rel
  in
  check_str "algorithm" "naive" prof.Pref_obs.Profile.algorithm;
  check_int "exact comparison count" (n ()) prof.Pref_obs.Profile.comparisons

let test_profile_auto_and_decompose () =
  let _, prof =
    profiled Query.Alg_auto schema skyline rel
  in
  check "auto reports the plan" true
    (has_prefix ~prefix:"auto:" prof.Pref_obs.Profile.algorithm);
  check "auto has a plan phase" true
    (List.exists
       (fun ph -> ph.Pref_obs.Profile.phase_name = "plan")
       prof.Pref_obs.Profile.phases);
  let out, dprof =
    profiled Query.Alg_decompose schema skyline rel
  in
  check_int "decompose comparisons untracked" (-1)
    dprof.Pref_obs.Profile.comparisons;
  check_int "decompose output rows" (Relation.cardinality out)
    dprof.Pref_obs.Profile.output_rows

(* profiles do not depend on the global telemetry flag *)
let test_profile_independent_of_flag () =
  let _, off = profiled Query.Alg_bnl schema skyline rel in
  let _, on =
    Pref_obs.Control.with_enabled true (fun () ->
        profiled Query.Alg_bnl schema skyline rel)
  in
  check_int "same comparisons on or off" off.Pref_obs.Profile.comparisons
    on.Pref_obs.Profile.comparisons;
  Pref_obs.Span.clear ()

let test_window_peak_agrees () =
  let dom = Dominance.of_pref schema skyline in
  let plain = Bnl.maxima dom (Relation.rows rel) in
  let traced, peak =
    let arr = Array.of_list (Relation.rows rel) in
    let r = Bnl.window dom arr in
    (Bnl.select arr r, r.Bnl.peak)
  in
  check "traced returns the same maxima" true (plain = traced);
  check "peak covers the final window" true (peak >= List.length traced);
  check "peak bounded by input" true (peak <= Relation.cardinality rel)

(* --- engine metrics from a real query ----------------------------------- *)

let test_query_feeds_metrics () =
  Pref_obs.Control.with_enabled true (fun () ->
      Pref_obs.Metrics.reset ();
      ignore (Planner.execute schema skyline rel Planner.Plan_bnl);
      let get name =
        match Pref_obs.Metrics.counter_value name with
        | Some n -> n
        | None -> Alcotest.failf "metric %s not registered" name
      in
      check_int "one query recorded" 1 (get "bmo.queries");
      check "dominance tests recorded" true (get "bmo.dominance_tests" > 0);
      check "window peak gauge set" true
        (Pref_obs.Metrics.value Obs.window_peak >= 1.);
      Pref_obs.Metrics.reset ());
  Pref_obs.Span.clear ()

(* --- rewrite counter ---------------------------------------------------- *)

let test_simplify_count () =
  let p = Pref.pareto (Pref.lowest "a") (Pref.dual (Pref.lowest "a")) in
  let q, steps = Rewrite.simplify_count p in
  check "collapses to an antichain" true (Pref.equal q (Pref.antichain [ "a" ]));
  check "counts at least one rule application" true (steps > 0);
  check "agrees with simplify" true (Pref.equal q (Rewrite.simplify p));
  let id, zero = Rewrite.simplify_count (Pref.lowest "a") in
  check "fixpoint takes zero steps" true
    (zero = 0 && Pref.equal id (Pref.lowest "a"))

(* --- executor profiles -------------------------------------------------- *)

let exec_env = [ ("r", rel) ]

let test_exec_profile () =
  let sql = "SELECT * FROM r WHERE c = 'x' PREFERRING LOWEST(a) AND LOWEST(b)" in
  let plain = Pref_sql.Exec.run exec_env sql in
  check "no profile unless asked" true (plain.Pref_sql.Exec.profile = None);
  let r = Pref_sql.Exec.run_cfg { Engine.default with profile = true } exec_env sql in
  match r.Pref_sql.Exec.profile with
  | None -> Alcotest.fail "expected a profile"
  | Some prof ->
    let names =
      List.map
        (fun p -> p.Pref_obs.Profile.phase_name)
        prof.Pref_obs.Profile.phases
    in
    List.iter
      (fun n -> check ("phase " ^ n) true (List.mem n names))
      [ "parse"; "from"; "where"; "translate"; "rewrite"; "evaluate" ];
    let idx n =
      let rec go i = function
        | [] -> -1
        | x :: tl -> if x = n then i else go (i + 1) tl
      in
      go 0 names
    in
    check "clause phases in execution order" true (idx "parse" < idx "evaluate");
    check_str "algorithm" "bnl" prof.Pref_obs.Profile.algorithm;
    check "rewrite steps reported" true
      (List.mem_assoc "rewrite_steps" prof.Pref_obs.Profile.attrs);
    check "profiled run returns the same rows" true
      (Relation.equal_as_sets plain.Pref_sql.Exec.relation
         r.Pref_sql.Exec.relation)

(* the rewrite phase must never change the BMO result (Proposition 7) *)
let test_exec_rewrite_preserves_results () =
  List.iter
    (fun sql ->
      let a = (Pref_sql.Exec.run exec_env sql).Pref_sql.Exec.relation in
      let b =
        (Pref_sql.Exec.run_cfg { Engine.default with profile = true } exec_env sql).Pref_sql.Exec.relation
      in
      check sql true (Relation.equal_as_sets a b))
    [
      "SELECT * FROM r PREFERRING LOWEST(a) AND (LOWEST(a) AND LOWEST(b))";
      "SELECT a, b FROM r PREFERRING LOWEST(a) PRIOR TO LOWEST(a)";
      "SELECT * FROM r PREFERRING HIGHEST(a) GROUPING c";
      "SELECT * FROM r PREFERRING LOWEST(a) TOP 3";
    ]

(* --- shell commands ----------------------------------------------------- *)

let ok shell line =
  match Pref_shell.Shell.execute shell line with
  | Ok r -> r
  | Error msg -> Alcotest.failf "unexpected error on %S: %s" line msg

let test_shell_profile () =
  let shell = Pref_shell.Shell.create () in
  Pref_shell.Shell.add_table shell "r" rel;
  let r = ok shell "\\profile on" in
  check "ack" true (r.Pref_shell.Shell.text = [ "profile: on" ]);
  check "flips the engine switch" true (Pref_obs.Control.is_enabled ());
  let q = ok shell "SELECT * FROM r PREFERRING LOWEST(a) AND LOWEST(b)" in
  check "profile comment lines" true
    (List.exists (has_prefix ~prefix:"-- profile:") q.Pref_shell.Shell.text);
  check "reports the algorithm" true
    (List.exists (has_infix ~affix:"bnl") q.Pref_shell.Shell.text);
  let stats = ok shell "\\stats" in
  check "stats dump non-empty" true (stats.Pref_shell.Shell.text <> []);
  let trace = ok shell "\\trace" in
  check "trace shows the query span" true
    (List.exists (has_infix ~affix:"psql.query") trace.Pref_shell.Shell.text);
  let json = ok shell "\\stats json" in
  check "stats json is an object" true
    (match json.Pref_shell.Shell.text with
    | [ s ] -> String.length s > 0 && s.[0] = '{'
    | _ -> false);
  ignore (ok shell "\\stats reset");
  let off = ok shell "\\profile off" in
  check "ack off" true (off.Pref_shell.Shell.text = [ "profile: off" ]);
  check "switch restored" true (not (Pref_obs.Control.is_enabled ()));
  let q2 = ok shell "SELECT * FROM r PREFERRING LOWEST(a)" in
  check "no profile lines when off" true
    (not
       (List.exists (has_prefix ~prefix:"-- profile:") q2.Pref_shell.Shell.text));
  Pref_obs.Span.clear ();
  Pref_obs.Metrics.reset ()

let suite =
  [
    Alcotest.test_case "control flag" `Quick test_control;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "spans disabled" `Quick test_span_disabled;
    Alcotest.test_case "span exception safety" `Quick test_span_exception_safety;
    Alcotest.test_case "timed" `Quick test_timed;
    Alcotest.test_case "counters" `Quick test_counter;
    Alcotest.test_case "gauges" `Quick test_gauge;
    Alcotest.test_case "histograms" `Quick test_histogram;
    Alcotest.test_case "dump and json" `Quick test_dump_and_json;
    Alcotest.test_case "no-op mode allocates nothing" `Quick
      test_noop_no_allocation;
    Alcotest.test_case "json emitter" `Quick test_json;
    Alcotest.test_case "bnl profile is exact" `Quick test_profile_bnl_exact;
    Alcotest.test_case "naive profile is exact" `Quick test_profile_naive_exact;
    Alcotest.test_case "auto and decompose profiles" `Quick
      test_profile_auto_and_decompose;
    Alcotest.test_case "profile ignores the global flag" `Quick
      test_profile_independent_of_flag;
    Alcotest.test_case "window peak agrees with maxima" `Quick
      test_window_peak_agrees;
    Alcotest.test_case "queries feed the metrics" `Quick
      test_query_feeds_metrics;
    Alcotest.test_case "simplify_count" `Quick test_simplify_count;
    Alcotest.test_case "executor profile" `Quick test_exec_profile;
    Alcotest.test_case "rewrite phase preserves results" `Quick
      test_exec_rewrite_preserves_results;
    Alcotest.test_case "shell profile commands" `Quick test_shell_profile;
  ]

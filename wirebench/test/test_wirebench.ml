(* Tests for the benchmark's own code: its statistics, span arithmetic,
   generators, oracle and accounting. *)

open Pref_relation
open Wirebench

let feq = Alcotest.float 1e-9

(* --- the percentile rule --------------------------------------------- *)

let test_supported_percentile () =
  let sp n = Stats.supported_percentile n in
  Alcotest.(check (option (float 0.))) "19 samples support nothing" None (sp 19);
  Alcotest.(check (option (float 0.))) "20 support p50" (Some 50.) (sp 20);
  Alcotest.(check (option (float 0.))) "99 support p50 only" (Some 50.) (sp 99);
  Alcotest.(check (option (float 0.))) "100 support p90" (Some 90.) (sp 100);
  Alcotest.(check (option (float 0.))) "999 fall short of p99" (Some 90.) (sp 999);
  Alcotest.(check (option (float 0.))) "1000 support p99" (Some 99.) (sp 1000);
  Alcotest.(check (option (float 0.))) "10000 support p99.9" (Some 99.9) (sp 10_000)

let test_order_statistics () =
  let v = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check feq "nearest-rank p99" 99. (Stats.percentile v 99.);
  Alcotest.check feq "nearest-rank p50" 50. (Stats.percentile v 50.);
  Alcotest.check feq "even median" 50.5 (Stats.median v);
  Alcotest.check feq "odd median" 3. (Stats.median [ 5.; 1.; 3. ])

(* --- self-time arithmetic ------------------------------------------- *)

let ms n = Int64.of_int (n * 1_000_000)

let test_self_times () =
  let st = Spans.create () in
  let add ?parent ?on_path name a b =
    Spans.add st ~req:1 ?parent ?on_path name ~start_ns:(ms a) ~end_ns:(ms b)
  in
  let root = add "root" 0 100 in
  (* overlapping children cover [10, 50]; one sticks out past the parent *)
  let c1 = add ~parent:root "c1" 10 30 in
  ignore (add ~parent:root "c2" 20 50);
  ignore (add ~parent:root "c3" 90 120);
  (* a grandchild only reduces its own parent *)
  ignore (add ~parent:c1 "g" 12 18);
  ignore (add ~on_path:false "off" 0 40);
  let self = Spans.self_times (Spans.spans st) in
  let of_name n = snd (List.find (fun ((s : Spans.span), _) -> s.Spans.name = n) self) in
  Alcotest.check feq "root: 100 - [10,50] - [90,100]" 50. (of_name "root");
  Alcotest.check feq "c1: 20 - 6" 14. (of_name "c1");
  Alcotest.check feq "c2 leaf" 30. (of_name "c2");
  Alcotest.check feq "c3 leaf, unclipped" 30. (of_name "c3");
  let attributed = Spans.attributed_ms self in
  Alcotest.check feq "on-path sum, off-path excluded" (50. +. 14. +. 30. +. 30. +. 6.)
    (Hashtbl.find attributed 1)

(* --- generators ------------------------------------------------------- *)

let small w seed = { (Gen.spec w seed) with Gen.n = 400 }

let test_determinism () =
  List.iter
    (fun w ->
      let bytes seed =
        let sp = small w seed in
        let base = Gen.base_table sp in
        Gen.stream_bytes (Gen.merged_stream sp ~base) 300
      in
      let name = Gen.name w in
      Alcotest.(check string) (name ^ ": same seed, same bytes") (bytes 7) (bytes 7);
      Alcotest.(check bool) (name ^ ": another seed, other bytes") false (bytes 7 = bytes 8))
    Gen.workloads

let test_pool_exceeds_cache () =
  let pool = Gen.session_pool in
  let terms =
    Array.map
      (fun s -> Pref_sql.Translate.pref (Pref_sql.Parser.parse_pref s.Gen.base))
      pool
  in
  let keys = Hashtbl.create 512 in
  Array.iter (fun p -> Hashtbl.replace keys (Preferences.Canon.key p) ()) terms;
  Alcotest.(check bool) "canonically distinct base terms exceed the entry cap" true
    (Hashtbl.length keys > Gen.cache_entry_cap);
  (* the cap is the cache's real default: storing every pool term into a
     default cache keeps exactly that many entries *)
  let cache = Pref_bmo.Cache.create () in
  let rel = Pref_workload.Cars.relation ~seed:1 ~n:20 () in
  let schema = Relation.schema rel in
  Array.iter (fun p -> Pref_bmo.Cache.store cache schema p rel rel) terms;
  Alcotest.(check int) "default cache entry cap" Gen.cache_entry_cap
    (Pref_bmo.Cache.stats cache).Pref_bmo.Cache.entries

(* --- oracle and accounting ------------------------------------------- *)

let naive_answer base live sql =
  let rel = Relation.make (Relation.schema base) (Relation.rows base @ live) in
  Oracle.fingerprint (Pref_sql.Exec.run_cfg Oracle.naive_cfg [ (Gen.table, rel) ] sql).Pref_sql.Exec.relation

let test_oracle_versions () =
  (* core(B) ∪ S answers every statement as B ∪ S does *)
  let sp = { (Gen.spec Gen.Routed_rw 3) with Gen.n = 300; dml_every = 2 } in
  let base = Gen.base_table sp in
  let s = Gen.stream sp ~base ~client:0 in
  let dml = List.filter Gen.is_dml (List.init 60 (fun _ -> s ())) in
  let live = Oracle.versions dml in
  let oracle = Oracle.create base in
  List.iter
    (fun sql ->
      Array.iteri
        (fun k l ->
          Alcotest.(check bool)
            (Printf.sprintf "version %d: %s" k sql)
            true
            (Oracle.fingerprint (Oracle.answer oracle ~version:k ~live:l sql)
            = naive_answer base l sql))
        live)
    (Gen.subscription :: Gen.templates)

let test_accounting () =
  let sp = { (Gen.spec Gen.Serve_cold 1) with Gen.n = 200 } in
  let base = Gen.base_table sp in
  let oracle = Oracle.create base in
  let sql = List.hd Gen.templates in
  let right = Oracle.fingerprint (Oracle.answer oracle ~version:0 ~live:[] sql) in
  let record outcome op =
    { Loop.op; stmt = Loop.stmt_of op; version = 0; t0 = 0L; t1 = 1L; outcome; retries = 0 }
  in
  let q = Gen.Query sql in
  let records =
    [
      record (Loop.Answered right) q;
      record (Loop.Answered { right with Oracle.rows = right.Oracle.rows + 1 }) q;
      record (Loop.Error_reply "busy") q;
      record Loop.Partial q;
      record Loop.Short q;
      record (Loop.Lost "closed") q;
    ]
  in
  let t = Check.run oracle ~records ~acked:[] ~subscription:None in
  Alcotest.(check int) "attempted" 6 t.Check.attempted;
  Alcotest.(check int) "ok" 1 t.Check.ok;
  Alcotest.(check int) "failed" 5 (Check.failed t);
  Alcotest.(check int) "wrong" 1 t.Check.wrong;
  Alcotest.(check bool) "attempted = ok + failed" true (Check.balanced t)

let () =
  Alcotest.run "wirebench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile rule" `Quick test_supported_percentile;
          Alcotest.test_case "order statistics" `Quick test_order_statistics;
        ] );
      ("spans", [ Alcotest.test_case "self-time arithmetic" `Quick test_self_times ]);
      ( "gen",
        [
          Alcotest.test_case "same seed, byte-identical stream" `Quick test_determinism;
          Alcotest.test_case "session pool exceeds the cache cap" `Quick test_pool_exceeds_cache;
        ] );
      ( "check",
        [
          Alcotest.test_case "oracle over table versions" `Quick test_oracle_versions;
          Alcotest.test_case "attempted = ok + failed" `Quick test_accounting;
        ] );
    ]

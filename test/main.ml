let () =
  (* The process-wide result cache starts on, as servers need it. Every
     suite shares this process, so an oracle that compares two evaluations
     of one query would read the first one's stored answer: the suites run
     with it off, and the cache tests switch it on ({!Gen.with_cache}). *)
  Pref_bmo.Cache.set_enabled false;
  Alcotest.run "preferences"
    [
      ("order", Test_order.suite);
      ("order-props", Test_order_props.suite);
      ("value", Test_value.suite);
      ("relation", Test_relation.suite);
      ("base-prefs", Test_base_prefs.suite);
      ("complex-prefs", Test_complex_prefs.suite);
      ("show", Test_show.suite);
      ("spo-properties", Test_spo_properties.suite);
      ("laws", Test_laws.suite);
      ("theorems", Test_theorems.suite);
      ("bmo", Test_bmo.suite);
      ("decompose", Test_decompose.suite);
      ("filter-effect", Test_filter_effect.suite);
      ("hierarchy", Test_hierarchy.suite);
      ("quality", Test_quality.suite);
      ("layered", Test_layered.suite);
      ("rewrite", Test_rewrite.suite);
      ("topk", Test_topk.suite);
      ("workload", Test_workload.suite);
      ("serialize", Test_serialize.suite);
      ("two-graphs", Test_two_graphs.suite);
      ("planner", Test_planner.suite);
      ("unparse", Test_unparse.suite);
      ("repository", Test_repository.suite);
      ("mining", Test_mining.suite);
      ("explain", Test_explain.suite);
      ("psql", Test_psql.suite);
      ("joins", Test_joins.suite);
      ("sql92", Test_sql92.suite);
      ("fuzz", Test_fuzz.suite);
      ("shell", Test_shell.suite);
      ("negotiate", Test_negotiate.suite);
      ("estimate", Test_estimate.suite);
      ("incremental", Test_incremental.suite);
      ("cache", Test_cache.suite);
      ("parallel", Test_parallel.suite);
      ("xpath", Test_xpath.suite);
      ("obs", Test_obs.suite);
      ("export", Test_export.suite);
      ("analysis", Test_analysis.suite);
      ("engine", Test_engine.suite);
      ("revise", Test_revise.suite);
      ("protocol", Test_protocol.suite);
      ("server", Test_server.suite);
      ("router", Test_router.suite);
      ("serve", Test_serve.suite);
      ("cost", Test_cost.suite);
      ("verify", Test_verify.suite);
    ]

open Pref_obs

let dominance_tests = Metrics.counter "bmo.dominance_tests"
let tuples_scanned = Metrics.counter "bmo.tuples_scanned"
let tuples_pruned = Metrics.counter "bmo.tuples_pruned"
let queries = Metrics.counter "bmo.queries"
let window_peak = Metrics.gauge "bmo.window_peak"
let levels_computed = Metrics.counter "bmo.levels_computed"
let ta_examined = Metrics.counter "bmo.ta_examined"
let result_size = Metrics.histogram "bmo.result_size"

let query_ms =
  Metrics.histogram "bmo.query_ms"
    ~bounds:[| 0.1; 0.5; 1.; 5.; 10.; 50.; 100.; 500.; 1_000.; 10_000. |]

(* one observation per key column built: the first query on a table
   version (after a load or a DML) pays them *)
let columns_build_ms =
  Metrics.histogram "bmo.columns.build_ms"
    ~bounds:[| 0.1; 0.5; 1.; 2.; 5.; 10.; 50.; 100.; 500.; 1_000. |]

let par_queries = Metrics.counter "bmo.par.queries"
let par_chunk_rows = Metrics.histogram "bmo.par.chunk_rows"

let par_merge_ms =
  Metrics.histogram "bmo.par.merge_ms"
    ~bounds:[| 0.1; 0.5; 1.; 5.; 10.; 50.; 100.; 500.; 1_000.; 10_000. |]

let cache_hits = Metrics.counter "bmo.cache.hits"
let cache_misses = Metrics.counter "bmo.cache.misses"
let cache_semantic = Metrics.counter "bmo.cache.semantic_reuses"
let cache_patched = Metrics.counter "bmo.cache.patched_entries"
let cache_patched_keyed = Metrics.counter "bmo.cache.patched_keyed"

let cache_patch_ms =
  Metrics.histogram "bmo.cache.patch_ms"
    ~bounds:[| 0.1; 0.5; 1.; 5.; 10.; 50.; 100.; 500.; 1_000.; 10_000. |]
let cache_evictions = Metrics.counter "bmo.cache.evictions"
let cache_cost_skipped = Metrics.counter "bmo.cache.cost_skipped"
let cache_entries = Metrics.gauge "bmo.cache.entries"
let cache_bytes = Metrics.gauge "bmo.cache.bytes"

(* Cache probe cost sits well under a millisecond, so the default decade
   ladder would park everything in the first bucket. *)
let probe_ms_bounds = [| 0.001; 0.005; 0.01; 0.05; 0.1; 0.5; 1.; 5.; 10.; 100. |]

let cache_probe_ms tier =
  Metrics.histogram ~bounds:probe_ms_bounds ("bmo.cache.probe_ms." ^ tier)

let observe_probe tier ms =
  (* gated here because the registry lookup itself is not free *)
  if Control.is_enabled () then Metrics.observe (cache_probe_ms tier) ms

let plan_chosen kind =
  (* gated here because the registry lookup itself is not free *)
  if Control.is_enabled () then
    Metrics.incr (Metrics.counter ("bmo.plan_chosen." ^ kind))

let record_peak peak =
  if Control.is_enabled () then begin
    Metrics.set_max window_peak (float_of_int peak);
    Span.add_attr "window_peak" (string_of_int peak)
  end

let record_query ~algorithm ~n_in ~n_out ~comparisons ~ms =
  if Control.is_enabled () then begin
    Metrics.incr queries;
    Metrics.incr ~by:n_in tuples_scanned;
    Metrics.incr ~by:(max 0 (n_in - n_out)) tuples_pruned;
    if comparisons >= 0 then Metrics.incr ~by:comparisons dominance_tests;
    Metrics.observe result_size (float_of_int n_out);
    Metrics.observe query_ms ms;
    Span.add_attr "algorithm" algorithm;
    Span.add_attr "rows" (Printf.sprintf "%d->%d" n_in n_out)
  end

(** The BMO engine's shared telemetry instruments.

    One registration point for the metrics every evaluation algorithm
    reports into, plus the [record_query] helper the per-algorithm [query]
    wrappers call. Everything is a no-op while {!Pref_obs.Control} is off. *)

val dominance_tests : Pref_obs.Metrics.counter
(** Dominance ('better-than') tests performed across all queries. *)

val tuples_scanned : Pref_obs.Metrics.counter
val tuples_pruned : Pref_obs.Metrics.counter
val queries : Pref_obs.Metrics.counter

val window_peak : Pref_obs.Metrics.gauge
(** Largest BNL window seen (engine-wide peak). *)

val record_peak : int -> unit
(** Raise {!window_peak} to a finished window pass's peak and attach it to
    the current span as [window_peak]; no-op while telemetry is off. *)

val levels_computed : Pref_obs.Metrics.counter
(** Levels materialised by iterated-BMO ([sigma_levels]) evaluation. *)

val ta_examined : Pref_obs.Metrics.counter
(** Objects examined by the threshold algorithm. *)

val result_size : Pref_obs.Metrics.histogram
val query_ms : Pref_obs.Metrics.histogram

val columns_build_ms : Pref_obs.Metrics.histogram
(** Wall time of each key-column build ({!Pref_relation.Relation.floats},
    {!Pref_relation.Relation.dict}) a {!Dominance.keyed} compile paid: the
    first query on a table version shows its rebuild. *)

val par_queries : Pref_obs.Metrics.counter
(** Queries answered by the parallel evaluation layer. *)

val par_chunk_rows : Pref_obs.Metrics.histogram
(** Input rows per parallel chunk (one observation per chunk). *)

val par_merge_ms : Pref_obs.Metrics.histogram
(** Wall time of the merge / cross-filter phase of parallel evaluation. *)

val cache_hits : Pref_obs.Metrics.counter
(** Exact result-cache hits (same relation version, same canonical term). *)

val cache_misses : Pref_obs.Metrics.counter
val cache_semantic : Pref_obs.Metrics.counter
(** Results derived from a cached entry via an algebraic reuse identity. *)

val cache_patched : Pref_obs.Metrics.counter
(** Entries patched in place by incremental insert/delete maintenance. *)

val cache_patched_keyed : Pref_obs.Metrics.counter
(** The patched entries that record their rows' positions in the table
    version: a delete runs the rule on them over positions with the keyed
    test. *)

val cache_patch_ms : Pref_obs.Metrics.histogram
(** Wall time of one write's patch of the cache: fingerprints and every
    entry of the old version. *)

val cache_evictions : Pref_obs.Metrics.counter

val cache_cost_skipped : Pref_obs.Metrics.counter
(** Semantic-tier lookups that matched but were refused because the cost
    model predicted the reconstruction would lose to a cold run. *)

val cache_entries : Pref_obs.Metrics.gauge
val cache_bytes : Pref_obs.Metrics.gauge

val cache_probe_ms : string -> Pref_obs.Metrics.histogram
(** Per-tier cache probe latency, [bmo.cache.probe_ms.<tier>] with tiers
    [exact], [prior-prefix], [dunion-inter], [pareto-restrict]. Bounds
    are sub-millisecond: probes are hash lookups, not evaluations. *)

val observe_probe : string -> float -> unit
(** Record one probe of the named tier (milliseconds) into its
    histogram; no-op while telemetry is off. *)

val plan_chosen : string -> unit
(** Bump the [bmo.plan_chosen.<kind>] counter for the planner's choice. *)

val record_query :
  algorithm:string -> n_in:int -> n_out:int -> comparisons:int -> ms:float -> unit
(** Report one finished BMO evaluation into the engine metrics; pass
    [comparisons:-1] when the algorithm did not count dominance tests. *)

(** Front door for BMO preference queries σ[P](R) (Definition 15).

    Every σ[P] evaluation takes one ladder, {!run_within}: the result cache
    first (when [cfg.cache]; {!Cache.global} is on unless switched off),
    then the
    deadline's degradation rule, then the algorithm knob, then the
    cost-based {!Planner}; the chosen plan runs through
    {!Planner.prepare}, with the deadline passed down to the window loop.
    All algorithms produce the same tuple set (the test suite checks
    this); they differ in cost and in row order / duplicate handling
    ([Alg_decompose] removes duplicate rows). [cfg.profile] only decides
    whether the run's record is also returned as a {!Pref_obs.Profile.t};
    the engine metrics are fed the same way either way. *)

open Pref_relation

type algorithm = Engine.algorithm =
  | Alg_naive  (** exhaustive better-than tests, O(n²) *)
  | Alg_bnl  (** block-nested-loops window algorithm *)
  | Alg_decompose  (** divide & conquer via Propositions 8–12 *)
  | Alg_parallel  (** chunked multi-domain evaluation ({!Parallel}) *)
  | Alg_auto  (** cost-based choice by {!Planner} *)

val algorithm_of_string : string -> algorithm option
val algorithm_to_string : algorithm -> string

val cap_rows : int option -> Relation.t -> Relation.t * bool
(** [cap_rows max_rows rel] keeps the first [max_rows] rows and reports
    whether any were dropped; it walks at most [max_rows + 1] rows. The
    one row cap (and TOP k) of every evaluation path. *)

(** {1 The plan decision} *)

type 'hit decision =
  | Cached of 'hit  (** the cache step answered *)
  | Planned of Planner.plan * string option
      (** the plan to run, with the rule that forced it ([None] when the
          planner chose) *)

val decide :
  Engine.config ->
  deadline:Engine.deadline ->
  cached:'hit option ->
  choose:(unit -> Planner.plan) ->
  'hit decision
(** The σ[P] ladder's decision given the cache step's answer: a hit wins;
    a live deadline forces the interruptible BNL window loop; an algorithm
    knob other than [auto] forces its plan; otherwise [choose ()] is the
    planner's choice. [choose] is called only in that last case, so a
    query whose plan a rule fixes never prices alternatives. EXPLAIN
    ({!Explain.Plan.decide}) feeds it its own non-counting probe. *)

(** {1 Evaluation} *)

val run_within :
  deadline:Engine.deadline ->
  Engine.config ->
  Schema.t ->
  Preferences.Pref.t ->
  Relation.t ->
  Engine.Result.t
(** σ[P](R) under a configuration and a running deadline (start one with
    {!Engine.deadline_of} so several sub-queries can draw down one
    budget). On deadline expiry the rows are the window at the last poll —
    the exact BMO set of the scanned prefix — with [partial] set; partial
    results are never stored in the cache. [cfg.max_rows] caps the
    returned rows and sets [truncated]. [plan] is the executed algorithm:
    [bnl], [naive], [decompose], [par_dnc], [bnl:degraded],
    [auto:<kind>], [cache:exact] or [cache:semantic:<identity>]. With
    [cfg.profile] the result also carries a profile: input/output
    cardinality, dominance-test counts where the plan reports them and
    per-phase timings ([plan], [compile], [evaluate], or [cache_lookup]).
    The run feeds the engine metrics once ([bmo.queries],
    [bmo.dominance_tests], [bmo.query_ms], ...) whenever
    {!Pref_obs.Control} is on. *)

val sigma_within :
  deadline:Engine.deadline ->
  Engine.config ->
  Schema.t ->
  Preferences.Pref.t ->
  Relation.t ->
  Relation.t * Engine.flags
(** {!run_within}'s rows and flags. *)

val sigma : Schema.t -> Preferences.Pref.t -> Relation.t -> Relation.t
(** σ[P](R): all best-matching tuples, and only those, under
    {!Engine.default} (BNL behind the result cache) and no deadline. *)

val sigma_groupby_within :
  deadline:Engine.deadline ->
  Engine.config ->
  Schema.t ->
  Preferences.Pref.t ->
  by:string list ->
  Relation.t ->
  Relation.t * Engine.flags
(** σ[P groupby A](R) (Definition 16) under a configuration: every group
    runs as a sub-query through {!sigma_within}, so groups share the
    result cache, the domain setting and one deadline budget; flags are
    the union over groups and [cfg.max_rows] caps the combined result. *)

val groupby_within :
  deadline:Engine.deadline ->
  Engine.config ->
  Schema.t ->
  Preferences.Pref.t ->
  by:string list ->
  Relation.t ->
  Relation.t * Engine.flags * (string * string) list
(** {!sigma_groupby_within} with, under [cfg.profile], what its profile
    reports: the group count, the groups' dominance form(s) and the key
    column build time they paid in total. *)

(** {1 Derived queries} *)

val sigma_levels :
  Schema.t ->
  Preferences.Pref.t ->
  levels:int ->
  Relation.t ->
  Relation.t
(** The tuples within the top [levels] levels of the database better-than
    graph: [sigma_levels ~levels:1] is σ[P](R); larger bounds relax the
    query level by level — the engine-side counterpart of
    [BUT ONLY LEVEL <= k]. Raises on [levels < 1]. *)

val perfect_matches :
  Schema.t ->
  Preferences.Pref.t ->
  ideal:(Tuple.t -> bool) ->
  Relation.t ->
  Relation.t
(** The perfect matches (Definition 14b) within the BMO result: tuples that
    are maximal in the realm of wishes itself. [ideal] decides membership in
    max(P) over the full domain — e.g. "intrinsic level = 1" or "distance =
    0". *)

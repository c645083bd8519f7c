(** Preference-aware BMO result cache with semantic reuse.

    Entries are keyed by (relation fingerprint, canonical preference
    term): the fingerprint is a structural hash of the row list so a
    reloaded-but-identical relation still hits, and the term key is
    {!Preferences.Canon.key} so queries equal up to the algebra's pure
    reordering laws (⊗/♦/+ commutativity, value-set order, …) share one
    entry.

    A lookup answers in one of three tiers:

    - {b exact}: the key is present — return the stored BMO set verbatim.
    - {b semantic}: the key is absent but the term is an algebraic
      refinement or composition of cached terms over the same relation
      version, and one of the paper's decomposition identities derives the
      answer from the cached sets:
      {ul
       {- prioritisation: when a prefix [Q] of the &-spine is cached,
          σ[Q & P'](R) = σ[P' groupby attrs(Q)](σ[Q](R)) — evaluated over
          the (small) cached set only;}
       {- disjoint union: when every +-operand is cached,
          σ[P1 + P2](R) = σ[P1](R) ∩ σ[P2](R) (Proposition 8);}
       {- Pareto: when an operand [P1] with attributes disjoint from the
          rest [P2] is cached, σ[P1 ⊗ P2](R) is evaluated over the
          restriction σ[P2 groupby attrs(P1)](R), seeding the scan with the
          pre-confirmed tuples of the cached σ[P1](R) that survive the
          restriction (Proposition 12's first term).}}
      Derived results are not stored: a semantic hit is derived afresh
      from its source entries on every lookup (which counts as a use of
      them), so the cache holds cold evaluations only and revisions
      cannot crowd their base statements out.
    - {b miss}: the caller evaluates and should {!store} the result.

    Inserts and deletes on a base relation {e patch} the affected entries
    with {!Incremental}'s maintenance rule: each BMO set cached for the
    old relation version is updated in place of recomputation and moved
    to the new version's key; the old key is removed.

    Capacity is bounded twice — by entry count and by an approximate byte
    budget ({!Stdlib.Obj.reachable_words} of the stored sets) — with LRU
    eviction. All operations also report into the [bmo.cache.*] metrics of
    {!Obs} (gated on {!Pref_obs.Control} like the rest of telemetry). *)

open Pref_relation

type t

val create : ?max_entries:int -> ?budget_bytes:int -> unit -> t
(** Defaults: 128 entries, 64 MiB. *)

val global : t
(** The process-wide instance the query layer uses; every session whose
    [cache] knob is on shares it. Starts enabled. *)

val is_enabled : unit -> bool
val set_enabled : bool -> unit
(** The process-wide switch of {!global}. While it is off,
    [lookup]/[store]/[probe] on [global] are no-ops and a patch returns
    0, so the cache-off path costs one flag load. Servers never flip it
    (the session [cache] knob decides per session); tests and benchmarks
    do, to time cold runs. *)

val clear : t -> unit
(** Drop all entries (statistics survive). *)

val set_budget : t -> ?max_entries:int -> ?budget_bytes:int -> unit -> unit
(** Adjust capacity; evicts immediately if the new budget is exceeded. *)

(** {1 Keys} *)

val fingerprint : Relation.t -> string
(** Structural version fingerprint of a relation: schema, cardinality and
    two independent row-hash accumulators. Memoised on the physical
    identity of the row list, so fingerprinting the same unmodified
    relation repeatedly is O(1). *)

(** {1 The cache protocol} *)

type reuse =
  | Exact
  | Semantic of string
      (** Which identity applied, e.g. ["prior-prefix"] — surfaced in
          plans, profiles and stats. *)

val reuse_to_string : reuse -> string
(** [exact] or [semantic:<identity>] — the tier as plans and profiles
    name it. *)

val lookup :
  t ->
  ?gate:bool ->
  Schema.t ->
  Preferences.Pref.t ->
  Relation.t ->
  (Relation.t * reuse) option
(** Three-tier lookup as described above. Counts exactly one of
    hit / semantic-reuse / miss per call. [None] on a disabled cache
    counts nothing.

    [gate] (default true) prices semantic reconstructions with {!Cost}
    before serving them: a derivation predicted to cost more than a cold
    evaluation (pareto-restrict re-groups the full base relation) is
    refused, counted as a miss plus one [cost_skipped]. prior-prefix and
    dunion-inter derive from the cached sets only and are never refused.
    [~gate:false] restores the pre-cost-model behaviour
    ([\set costmodel off]). *)

val probe :
  t ->
  ?gate:bool ->
  Schema.t ->
  Preferences.Pref.t ->
  Relation.t ->
  reuse option
(** Non-counting peek for the planner: would {!lookup} succeed, and in
    which tier? Does not derive, store, or touch LRU order. [gate] as in
    {!lookup}, so the planner's view matches what a lookup would serve. *)

type tier_probe = {
  tier : string;  (** [exact], [prior-prefix], [dunion-inter], [pareto-restrict] *)
  hit : bool;
  ms : float;
}

val probe_traced :
  t ->
  ?gate:bool ->
  Schema.t ->
  Preferences.Pref.t ->
  Relation.t ->
  reuse option * tier_probe list
(** {!probe} plus the per-tier timings it measured, in probe order (the
    exact tier always first; the one applicable semantic tier after it
    when the exact tier missed) — the rows of EXPLAIN's cache-probe
    table. A semantic match refused by the cost gate reports no reuse and
    marks its probe row with a [[cost-skip +N.Nms]] suffix carrying the
    predicted reconstruction overhead. Both [probe] and [lookup] feed the
    same timings into the [bmo.cache.probe_ms.<tier>] histograms. *)

val store :
  t ->
  Schema.t ->
  Preferences.Pref.t ->
  Relation.t ->
  Relation.t ->
  unit
(** [store t schema p rel result] caches [result] as σ[P](rel). No-op when
    disabled. *)

(** {1 Incremental maintenance} *)

val on_insert :
  t -> old_rel:Relation.t -> new_rel:Relation.t -> Tuple.t -> int
(** The base relation changed from [old_rel] to [new_rel] by inserting the
    tuple. Every entry cached under [old_rel]'s fingerprint is patched by
    {!Incremental.insert_rule} and moved to [new_rel]'s fingerprint,
    keeping its LRU position (a write is not a use). Returns the number of
    entries patched; an empty cache returns 0 before fingerprinting
    either version. *)

val on_delete :
  t -> old_rel:Relation.t -> new_rel:Relation.t -> Tuple.t -> int
(** Dual of {!on_insert} for a single-tuple delete, by
    {!Incremental.delete_rule} with [new_rel]'s rows as the cone's
    domain. *)

(** {1 Introspection} *)

type stats = {
  entries : int;
  bytes : int;  (** approximate, see module doc *)
  hits : int;
  misses : int;
  semantic_reuses : int;
  patched_entries : int;
  evictions : int;
  cost_skipped : int;
      (** semantic matches refused because reconstruction was predicted
          to lose to a cold run *)
}

val stats : t -> stats
val stats_lines : enabled:bool -> t -> string list
(** Human-readable dump for the shell's [\cache stats]; [enabled] is
    reported as the cache's state: whether the caller's statements use
    it (its session's [cache] knob and the process-wide switch). *)

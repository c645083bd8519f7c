(** The unified engine configuration — one record for every evaluation
    knob that used to be threaded as scattered optional arguments through
    [Query.sigma] / [Exec.run] / the shell / the CLIs.

    The record travels as a value: sessions hold one, the server's SET
    verb edits one, and no entry point duplicates one of its fields as an
    optional argument. {!set} is the single string-typed knob parser the
    shell's [\set] and the wire protocol's [SET] share.

    Deadlines implement graceful degradation rather than cancellation:
    when a query's budget expires mid-evaluation the engine returns the
    current BNL window with the [partial] flag set — a valid BMO set of
    the scanned prefix — instead of hanging or killing the query (see
    DESIGN.md §10 for the degradation ladder). *)

(** {1 Algorithms} *)

type algorithm =
  | Alg_naive  (** exhaustive better-than tests, O(n²) *)
  | Alg_bnl  (** block-nested-loops window algorithm *)
  | Alg_decompose  (** divide & conquer via Propositions 8–12 *)
  | Alg_parallel  (** chunked multi-domain evaluation ({!Parallel}) *)
  | Alg_auto  (** cost-based choice by {!Planner} *)

val algorithm_of_string : string -> algorithm option
val algorithm_to_string : algorithm -> string

(** {1 The configuration record} *)

type config = {
  algorithm : algorithm;
  domains : int option;
      (** degree of parallelism for [Alg_parallel]/[Alg_auto];
          [None] = engine default ({!Parallel.default_domains}) *)
  cache : bool;
      (** consult/fill the global BMO result cache (only acts when
          {!Cache.global} is enabled) *)
  check : bool;  (** static-check Preference SQL before executing *)
  profile : bool;  (** build a per-query profile *)
  deadline_ms : float option;
      (** per-query time budget in milliseconds; on expiry the engine
          degrades to the current BNL window with [partial] set *)
  max_rows : int option;
      (** result-row cap; overflow is dropped and [truncated] set *)
  slowlog_ms : float option;
      (** slow-query log threshold in milliseconds; queries at or above
          it are recorded by the session layer ([Pref_engine.Slowlog]).
          [None] disables the log. *)
  costmodel : bool;
      (** price plan alternatives and semantic cache reuse with the
          {!Cost} model and let the SQL executor serve its semantic
          rewrites (default). [false] prices nothing: [Alg_auto] keeps
          the planner's structural rules (n ≤ 64 naive, chain-headed
          prioritisation cascade) and plans BNL otherwise, the cache
          tiers are ungated, and the executor's rewrites are off — so a
          cost-model regression is bisectable with one knob *)
}

val default : config
(** [Alg_bnl], engine-default domains, cache on (inert until the global
    cache is enabled), no checking, no profile, no deadline, no cap — the
    configuration of the knob-less [Query.sigma] and [Exec.run]. *)

(** {1 Result flags} *)

type flags = {
  partial : bool;  (** the deadline expired; this is a prefix BMO set *)
  truncated : bool;  (** [max_rows] dropped rows from the result *)
}

val complete : flags
val union_flags : flags -> flags -> flags
val flags_attrs : flags -> (string * string) list
(** Span/profile attributes; empty for {!complete}. *)

(** {1 Structured results}

    One record for everything a query evaluation hands back, so the
    session, wire and revision layers share a single result surface
    instead of parallel out-channels. *)

module Result : sig
  type nonrec t = {
    rows : Pref_relation.Relation.t;  (** the BMO set *)
    flags : flags;
    profile : Pref_obs.Profile.t option;
        (** present when the run was profiled ([config.profile]) *)
    plan : string option;
        (** the executed plan/algorithm in one word-ish string, e.g.
            ["bnl"], ["auto:dnc(4)"], ["cache:semantic:prior-prefix"] or
            ["refine:seed"] — the same identifier EXPLAIN reports *)
  }

  val make :
    ?profile:Pref_obs.Profile.t ->
    ?plan:string ->
    Pref_relation.Relation.t ->
    flags ->
    t
end

(** {1 Deadlines} *)

type deadline
(** An absolute monotonic-clock expiry, or none. Start one at query entry
    and thread it through the evaluation so parse / join / BMO phases all
    draw down the same budget. *)

val no_deadline : deadline
val deadline_of : config -> deadline
(** Start [config.deadline_ms] counting now ({!Pref_obs.Clock}). *)

val has_deadline : deadline -> bool
val expired : deadline -> bool
(** [false] for {!no_deadline}. *)

(** {1 String-typed knob access}

    Shared by the shell's [\set] and the server's [SET] wire verb, so
    both surfaces accept exactly the same keys and values. *)

val set : config -> key:string -> value:string -> (config, string) result
(** Keys: [algorithm] (naive|bnl|decompose|parallel|auto), [domains]
    (positive int), [cache]/[check]/[profile] (on|off), [deadline]
    (milliseconds, or [off]), [maxrows] (positive int, or [off]),
    [slowlog] (millisecond threshold, or [off]), [costmodel] (on|off).
    [Error] carries a usage message naming the valid values. *)

val describe : config -> (string * string) list
(** Current value of every knob, in {!set}-compatible spelling. *)

(** An engine session: one client's view of the preference engine.

    A session bundles what used to be loose state threaded through the
    shell and the CLIs — the table environment, the function registry,
    one {!Pref_bmo.Engine.config} record, prepared statements, and
    per-session counters. The interactive shell holds one; the query
    server creates one per connection (sharing the process-wide result
    cache unless the session opts out via [SET cache off]).

    A session is used from one thread at a time (the server runs each
    connection's queries serially); different sessions may run
    concurrently on different domains. *)

open Pref_relation
open Pref_sql

type stats = {
  queries : int;  (** queries attempted (successful or not) *)
  degraded : int;  (** results returned [partial] after a deadline *)
  truncated : int;  (** results capped by [maxrows] *)
  errors : int;  (** queries that raised *)
}

type t

val create :
  ?registry:Translate.registry ->
  ?config:Pref_bmo.Engine.config ->
  ?env:Exec.env ->
  unit ->
  t

val id : t -> int
(** Process-unique session id — the [session] field of slow-query log
    entries and span attributes. *)

(** {1 Tables} *)

val env : t -> Exec.env

val set_env : t -> Exec.env -> unit
(** Replace the whole table environment; the server uses this to
    propagate another connection's DML. *)

val add_table : t -> string -> Relation.t -> unit
(** Register (or replace) a table; names are stored lowercase, matching
    the shell's behaviour. *)

val find_table : t -> string -> Relation.t option

(** {1 Configuration} *)

val config : t -> Pref_bmo.Engine.config
val set_config : t -> Pref_bmo.Engine.config -> unit

val set : t -> key:string -> value:string -> (string, string) result
(** {!Pref_bmo.Engine.set} applied to the session's config; [Ok] carries
    a ["key: value"] confirmation line. *)

val describe : t -> (string * string) list
(** Current knob values ({!Pref_bmo.Engine.describe}). *)

val registry : t -> Translate.registry

(** {1 Prepared statements} *)

val prepare : t -> name:string -> string -> unit
(** Parse and store a query under [name] (replacing any previous one).
    Raises {!Parser.Error} on a syntax error — nothing is stored. *)

val prepared : t -> string list
(** Names of stored statements, most recently prepared first. *)

(** {1 Execution} *)

val run_within : t -> deadline:Pref_bmo.Engine.deadline -> string -> Exec.result
(** Execute Preference SQL under the session's config and an
    already-running deadline (servers start the budget at admission).
    [@name] executes the prepared statement [name]. Counts the query in
    {!stats} — including errors, which re-raise after counting. *)

val run : t -> string -> Exec.result
(** {!run_within} with the deadline started now from the session's
    [deadline_ms].

    With the session's [slowlog] knob set, statements at or above the
    threshold are recorded into {!Slowlog} (query text, session id, plan
    summary when profiling is on, and — telemetry permitting — the span
    tree). *)

val explain_within :
  t ->
  analyze:bool ->
  deadline:Pref_bmo.Engine.deadline ->
  string ->
  Pref_bmo.Explain.Plan.t

val explain : t -> analyze:bool -> string -> Pref_bmo.Explain.Plan.t
(** EXPLAIN the statement (source text or [@name]) under the session's
    config without answering it: {!Pref_sql.Exec.explain_query_within}. Not
    counted in {!stats} — explanation is introspection, not load.
    [SUBSCRIBE <query>] explains the continuous form of the inner query:
    its plan under a [delta] operator priced by {!Pref_bmo.Cost}. *)

(** {1 Preference revision}

    The session remembers its last successful statement with a
    PREFERRING/CASCADE clause (a statement without one forgets it), and
    [refine] substitutes a new term into that statement and runs it
    exactly as {!run_within} runs a statement. The result cache is the
    only reuse: under the session's [cache] knob its tiers serve each
    revision class ({!Revise}) — a repeat is an exact hit, a
    prioritisation suffix is derived from the cached earlier BMO set by
    the prior-prefix tier (Prop. 10) — and single-row DML patches the
    cached sets, so a revision after a write still reuses them. *)

val refine_within :
  t -> deadline:Pref_bmo.Engine.deadline -> string -> Revise.outcome
(** Revise the last statement's preference to the given term (bare
    Preference SQL preference syntax, e.g. ["LOWEST(price) AND
    HIGHEST(power)"]); CASCADE clauses fold into the new term. Counts as a
    query in {!stats} and in the slow-query log (as [REFINE <term>]); the
    revised statement becomes the new last statement. [o_kind] classifies
    the revision, [o_plan] names the σ serve that answered. Raises
    {!Pref_sql.Exec.Error} when there is no previous preference statement,
    and whatever parsing or execution raises. *)

val refine : t -> string -> Revise.outcome
(** {!refine_within} with the deadline started now. *)

val refine_explain : t -> string -> Pref_bmo.Explain.Plan.t
(** The plan {!refine} would execute — the revised query's plan (its
    plan line names the cache tier when one serves) under a [refine]
    operator recording the revision class. *)

(** {1 Single-row DML}

    Shared by the shell's [.insert]/[.delete] and the server's DML wire
    verb: update the table in the session environment and patch the
    global result cache ({!Pref_bmo.Cache.on_insert}/[on_delete]). *)

val insert : t -> string -> Pref_relation.Tuple.t -> int
(** Append one row; returns the number of cached results patched.
    Raises {!Pref_sql.Exec.Unknown_table} on an unknown table. *)

val delete : t -> string -> Pref_relation.Tuple.t -> int option
(** Remove one occurrence of the row; [None] when no row matches,
    [Some patched] otherwise. Raises {!Pref_sql.Exec.Unknown_table} on an
    unknown table. *)

(** {1 Stats} *)

val stats : t -> stats
val stats_lines : t -> (string * string) list
(** The counters as [key, value] string pairs (for STATS / [\set]). *)

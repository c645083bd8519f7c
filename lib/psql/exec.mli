(** Preference SQL execution against in-memory relations.

    One clause pipeline: FROM → hard WHERE filter (exact-match world) →
    preference construction (PREFERRING & CASCADEs) → algebraic rewrite →
    the σ step → BUT ONLY quality supervision → ORDER BY → TOP k →
    projection → engine row cap. The σ step is one decision over the
    serves the executor knows: the ranked k-best model when TOP k is given
    and the preference is scorable (§6.2), GROUPING, and — with the cost
    model on under [algorithm = auto] — the selection/winnow commute over
    the cached unfiltered winnow, winnow elimination and join pushdown;
    otherwise the {!Pref_bmo.Query.run_within} ladder. A run, EXPLAIN
    ANALYZE and plain EXPLAIN all go through it. *)

open Pref_relation

exception Error of string

type env = (string * Relation.t) list
(** Named tables; lookup is case-insensitive. *)

val find_table : env -> string -> Relation.t option

exception Unknown_table of { name : string; hint : string option }
(** A FROM clause named a table the environment does not hold. [hint] is
    the nearest known table name under edit distance, when one is close
    enough to plausibly be a typo ({!Pref_relation.Typo.nearest}). *)

val unknown_table_message : name:string -> hint:string option -> string
(** Human-readable rendering of {!Unknown_table}, suggestion included. *)

type result = {
  relation : Relation.t;
  preference : Preferences.Pref.t option;
      (** the translated preference term, for EXPLAIN-style output *)
  profile : Pref_obs.Profile.t option;
      (** present when the query ran with [config.profile]: per-clause
          phase timings (parse → from → where → translate → rewrite →
          evaluate → quality/order), the BMO algorithm and its
          dominance-test count *)
  flags : Pref_bmo.Engine.flags;
      (** [partial] when a deadline expired and the BMO set is a sound
          prefix; [truncated] when [max_rows] dropped result rows *)
}

val full_preference :
  ?registry:Translate.registry -> Ast.query -> Preferences.Pref.t option
(** The complete term: PREFERRING p CASCADE c1 CASCADE c2 = (p & c1) & c2. *)

(** {1 Static checking}

    The executor can vet queries through an externally installed static
    analyzer before running them (dependency injection keeps this library
    below the analyzer in the build graph — [Pref_analysis.Install.install]
    plugs in the real checker). *)

type check_finding = {
  check_code : string;  (** stable diagnostic code, e.g. ["E102"] *)
  check_severity : string;  (** ["error"], ["warning"] or ["hint"] *)
  check_path : string;  (** dotted location inside the query *)
  check_message : string;
}

exception Rejected of check_finding list
(** Raised by the entry points under [config.check] when the installed
    checker reports at least one error-severity finding; carries the full
    report (warnings and hints included). *)

val set_checker :
  (?registry:Translate.registry -> env -> Ast.query -> check_finding list)
  option ->
  unit

val static_check :
  ?registry:Translate.registry -> env -> Ast.query -> check_finding list
(** The installed checker's findings; [[]] when no checker is installed. *)

(** {1 Engine entry points}

    The executor's interface: one {!Pref_bmo.Engine.config} record carries
    every knob (algorithm, domains, cache, check, profile, deadline, row
    cap, cost model). *)

val run_query_within :
  ?registry:Translate.registry ->
  ?parse_ms:float ->
  deadline:Pref_bmo.Engine.deadline ->
  Pref_bmo.Engine.config ->
  env ->
  Ast.query ->
  result
(** Execute a parsed query under a configuration and an already-started
    deadline (a server begins the budget at admission, not at parse
    time). On expiry during BMO evaluation the result degrades to a sound
    prefix with [flags.partial] set (see {!Pref_bmo.Query.run_within});
    [config.max_rows] caps the final projected, ordered result and sets
    [flags.truncated]. With [config.profile], {!result.profile} carries
    the clause phases, led by a [parse] phase when [parse_ms] reports
    one. Every clause runs inside a {!Pref_obs.Span}, so traces appear
    whenever telemetry is globally enabled. Raises {!Translate.Error},
    {!Error}, {!Unknown_table}, or {!Rejected} (with [config.check]: the
    installed checker reported an error-severity finding). *)

val run_cfg :
  ?registry:Translate.registry ->
  Pref_bmo.Engine.config ->
  env ->
  string ->
  result
(** Parse and execute, the deadline started from [config.deadline_ms]
    before parsing. Also raises {!Parser.Error}. *)

val run : ?registry:Translate.registry -> env -> string -> result
(** {!run_cfg} under {!Pref_bmo.Engine.default}. *)

(** {1 EXPLAIN [ANALYZE]} *)

val explain_query_within :
  ?registry:Translate.registry ->
  ?parse_ms:float ->
  analyze:bool ->
  deadline:Pref_bmo.Engine.deadline ->
  Pref_bmo.Engine.config ->
  env ->
  query_text:string ->
  Ast.query ->
  Pref_bmo.Explain.Plan.t

val explain_within :
  ?registry:Translate.registry ->
  analyze:bool ->
  deadline:Pref_bmo.Engine.deadline ->
  Pref_bmo.Engine.config ->
  env ->
  string ->
  Pref_bmo.Explain.Plan.t
(** Explain the query instead of answering it: parse, execute the
    FROM/WHERE/translate/rewrite prefix (the plan decision needs the
    real filtered relation) and take the σ step's decision exactly as
    {!run_query_within} does. The plan line names the serve; for the
    ladder it is {!Pref_bmo.Explain.Plan.decide} (cache probe with
    per-tier timings, deadline ladder, algorithm knob, planner), and a
    serve that displaced the ladder lists the ladder's plan among the
    rejected alternatives. The report also carries the estimated BMO
    cardinality. With [analyze:true] the rest of the pipeline runs as
    the query would — the σ serve, BUT ONLY / ORDER BY / TOP /
    projection and the row cap — filling per-operator actual
    cardinalities and timings; the [sigma] operator's [algorithm] is the
    run profile's, and the [cap] operator carries [truncated]. Without
    it nothing past the σ decision executes: the remaining operators are
    listed. Raises {!Error} when the query has no PREFERRING/CASCADE
    clause, plus everything {!run_cfg} raises. *)

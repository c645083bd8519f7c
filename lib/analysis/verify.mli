(** Bounded soundness verification of the engine's rewrite machinery.

    A small-scope model checker in the Alloy tradition: enumerate every
    relation up to [max_rows] rows over a 2-attribute integer schema with
    a 3-value domain, and check each soundness-critical rule family
    against the reference semantics ({!Pref_bmo.Naive.query}, literal
    Definition 15):

    - {b rewrite}: every {!Preferences.Rewrite.step} rule, exercised by a
      curated term catalog (the verifier fails if a catalogued rule stops
      firing), checked two ways — order equivalence (Definition 13: [lt]
      agrees on every tuple pair of the universe) and BMO equality on
      every enumerated relation;
    - {b constraints}: whenever {!Preferences.Constraints.redundant}
      claims a proof, σ[P](R) = R must actually hold; every prover rule
      must fire at least once at this scope;
    - {b cache}: the three decomposition tiers (prior-prefix/Prop. 10,
      dunion-inter/Prop. 8, pareto-restrict/Prop. 12) of
      {!Pref_bmo.Cache} must reconstruct exactly σ[P](R) from cached
      operand results, and each tier must match at least once;
    - {b maintain}: {!Pref_bmo.Incremental}'s maintenance rule, which the
      result cache patches its entries with, must equal recomputation for
      every inserted universe tuple and every deleted maximal tuple — the
      delete screening only the deleted tuple's cone — and each half must
      change a result at least once;
    - {b merge}: for a catalog of sharded queries,
      {!Pref_router.Merge.gather} + [finish] over per-shard executions
      must equal the single-node answer, for hash and range schemes;
    - {b random}: a seeded large-scope tier (more rows, wider domain)
      re-checking [Rewrite.simplify] and the constraints prover under a
      time budget.

    A failure carries a minimal counterexample — the enumeration visits
    relations in increasing size, so the first failing relation is a
    smallest one. Surfaced as [prefcheck --verify], [make verify] and a
    CI job. *)

open Pref_relation

type failure = {
  f_section : string;
  f_rule : string;
  f_term : Preferences.Pref.t;
  f_rewritten : Preferences.Pref.t option;
      (** the claimed-equivalent term, for rewrite failures *)
  f_relation : Relation.t;  (** minimal witness relation *)
  f_detail : string;
}

type section = {
  s_name : string;
  s_rules : int;  (** distinct rules checked *)
  s_cases : int;  (** (rule, relation) pairs examined *)
  s_failures : failure list;
}

type report = {
  sections : section list;
  elapsed_ms : float;
  scope : string;  (** human-readable scope description *)
}

val run :
  ?max_rows:int ->
  ?seed:int ->
  ?random_cases:int ->
  ?budget_s:float ->
  unit ->
  report
(** Defaults: [max_rows = 3] (130 relations over the 9-tuple universe),
    [seed = 42], [random_cases = 150], [budget_s = 30.] (the random tier
    stops early when the budget is spent). Deterministic for fixed
    parameters. *)

val ok : report -> bool

val report_lines : report -> string list
(** Per-section summary plus the first counterexamples of each failing
    section, ending in [VERIFY OK]/[VERIFY FAILED]. *)

val counterexample_lines : failure -> string list

val broken_rule_hook : (Preferences.Pref.t -> Preferences.Pref.t option) ref
(** Test hook: an extra "rewrite rule" checked like the real ones under
    the rule name [injected]. Default [fun _ -> None]. Negative tests
    plant a deliberately unsound rule here and assert the verifier
    produces a counterexample. *)

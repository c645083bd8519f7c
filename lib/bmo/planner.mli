(** A cost-based plan chooser for BMO queries — the optimizer the paper's
    roadmap asks for ("cost-based optimization to choose between direct
    implementations of the Pareto operator and divide & conquer
    algorithms", §7).

    One decision procedure. Two structural rules come first: tiny inputs
    (n ≤ 64) run naively, and a prioritization headed by a syntactic
    chain becomes a query cascade (Proposition 11) because its first pass
    subsumes any alternative's scan. Otherwise every alternative that can
    win for the term's shape — sequential BNL, [KLP75] divide & conquer,
    chunked parallel evaluation, naive — is priced by the {!Cost} model
    (output cardinality from {!Estimate}, bent by a sampled correlation)
    and the cheapest wins. The planner only picks an evaluation plan:
    whether the result cache or a semantic rewrite serves σ[P] instead is
    decided above it ({!Query.run_within}, the SQL executor), and EXPLAIN
    names those serves itself ({!Explain.Plan.serve}).

    [~costmodel:false] (the [\set costmodel off] knob) keeps the two
    structural rules and runs BNL otherwise, pricing nothing.

    All plans compute σ[P](R) exactly; the test suite checks each against
    the naive evaluation. *)

open Pref_relation

type plan =
  | Plan_naive
  | Plan_bnl
  | Plan_dnc of { attrs : string list; maximize : bool }
  | Plan_par_dnc of { domains : int }
  | Plan_par_sfs of { attrs : string list; maximize : bool; domains : int }
  | Plan_cascade of Preferences.Pref.t * Preferences.Pref.t
  | Plan_decompose

val plan_to_string : plan -> string

val plan_kind : plan -> string
(** Constructor name only ([naive], [bnl], [dnc], [par_dnc], [par_sfs],
    [cascade], [decompose]) — the label the [bmo.plan_chosen.*] metrics
    use. *)

val chain_dims : Preferences.Pref.t -> (string list * bool) option
(** [Some (attrs, maximize)] when the term is a Pareto accumulation of
    same-direction numeric chains over disjoint attributes. *)

val sampled_correlation :
  Schema.t -> string list -> Tuple.t list -> float
(** Pearson correlation of the first two numeric attributes over a sample
    of at most 500 rows (every [ceil (n / 500)]-th row); 0 when not
    estimable. *)

val choose :
  ?costmodel:bool ->
  ?domains:int ->
  Schema.t ->
  Preferences.Pref.t ->
  Relation.t ->
  plan
(** [domains] caps the parallelism considered; defaults to
    {!Parallel.default_domains}. With [domains:1] no parallel plan is ever
    chosen. [costmodel] (default [true]): with [false] only the structural
    rules apply and everything else plans BNL. *)

(** {1 Traced choice (EXPLAIN)} *)

type trace = {
  t_n : int;  (** input cardinality *)
  t_dims : int;  (** chain dimensions, or attribute count of the term *)
  t_domains : int;  (** parallelism considered *)
  t_chain : (string list * bool) option;  (** {!chain_dims} of the term *)
  t_correlation : float option;
      (** sampled Pearson correlation, when the decision computed it *)
  t_probes : Cache.tier_probe list;  (** per-tier cache probe timings *)
  t_rejected : (string * string) list;
      (** alternatives not taken, each with the predicted-cost
          comparison or structural rule that rejected it *)
  t_estimate : float option;
      (** {!Estimate.expected_skyline_size_fast} under independence *)
  t_costs : (string * float) list;
      (** predicted milliseconds for every alternative the cost model
          priced, cheapest first; empty under [~costmodel:false] and on
          the cache / tiny-input short-circuits *)
}

val choose_traced :
  ?cache:bool ->
  ?costmodel:bool ->
  ?probe:Cache.reuse option * Cache.tier_probe list ->
  ?domains:int ->
  Schema.t ->
  Preferences.Pref.t ->
  Relation.t ->
  plan * trace
(** The same decision procedure as {!choose} (they share it; a test pins
    them to the same answer) with every input it consulted recorded. The
    cache probe only feeds the trace: its per-tier timings land in
    [t_probes], and a probe that missed every tier is listed among the
    rejected alternatives; the plan is the evaluation plan either way.
    [probe] substitutes an already-measured probe so callers that probed
    themselves (EXPLAIN) do not probe twice; without it the cache is
    probed when [cache] (default [true]) is set. *)

(** {1 Execution} *)

type outcome = {
  result : Relation.t;
  tests : int;
      (** dominance tests performed; [-1] when the plan does not count
          them *)
  timed_out : bool;
      (** a window plan's deadline expired: [result] is a prefix BMO set *)
  form : Dominance.form;  (** how the plan compared rows *)
  attrs : (string * string) list;
      (** plan-specific facts for profiles: [window_peak] for BNL, the
          chunk statistics of the parallel plans *)
  phases : Pref_obs.Profile.phase list;
      (** sub-phases of the evaluation (the parallel plans' [local] and
          [merge]) *)
}

val prepare :
  ?deadline:Engine.deadline ->
  ?like:Dominance.keyed Lazy.t ->
  Schema.t ->
  Preferences.Pref.t ->
  Relation.t ->
  plan ->
  unit ->
  outcome
(** [prepare schema p rel plan] compiles what the plan evaluates with (a
    profile's [compile] phase): the [bnl], [naive], [par_dnc] and
    [par_sfs] plans run over row positions with {!Dominance.keyed},
    building the key columns of [rel] the term touches that are not built
    yet (or reusing [like]'s test, see {!Dominance.keyed}); [dnc], [cascade] and [decompose] use the tuple closure. The
    returned thunk evaluates it (the [evaluate] phase). The BNL plan
    passes [deadline] down to its window loop; the others run to
    completion. Records nothing into the query metrics beyond the plan-specific
    [bmo.window_peak], [bmo.columns.build_ms] and [bmo.par.*]
    instruments. *)

val execute :
  Schema.t -> Preferences.Pref.t -> Relation.t -> plan -> Relation.t
(** {!prepare} and evaluate without a deadline, recording the run into
    the engine metrics under the plan's {!plan_kind}. The one way to run a
    chosen or named plan outside the σ[P] ladder (benchmarks, examples,
    tests). *)

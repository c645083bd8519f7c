(** Query explanation (§6.1: the LEVEL and DISTANCE quality functions "can
    be exploited for advanced query explanation").

    For a tuple, a preference and a database set, report whether the tuple
    is a best match, which tuples exclude it, its level in the database
    better-than graph, and its per-attribute quality values. *)

open Pref_relation

type quality =
  | Level of int
  | Distance of float
  | Opaque

type t = {
  tuple : Tuple.t;
  in_result : bool;
  dominators : Tuple.t list;
  graph_level : int;
  qualities : (string * quality) list;
}

val explain :
  Schema.t -> Preferences.Pref.t -> Relation.t -> Tuple.t -> t
(** O(|R|²) in the worst case (graph level computation); intended for
    interactive explanation, not bulk evaluation. *)

val qualities_of :
  Schema.t -> Preferences.Pref.t -> Tuple.t -> (string * quality) list

val unranked_pairs :
  Schema.t -> Preferences.Pref.t -> Tuple.t list -> (Tuple.t * Tuple.t) list
(** All unranked pairs with distinct projections — the "natural reservoir to
    negotiate compromises" of §4.1. *)

val pp : t Fmt.t
val to_string : t -> string

(** {1 Plan-level explanation — EXPLAIN [ANALYZE]}

    Where {!explain} above answers "why is this {e tuple} (not) in the
    result", {!Plan} answers "why was this {e plan} chosen": the plan
    taken, the alternatives rejected with the predicted-cost comparison
    or rule that rejected them, the cache tiers probed with per-tier
    timings, the estimated result cardinality — and, under ANALYZE, the
    actual per-operator cardinalities and timings. *)

module Plan : sig
  type op = {
    op_name : string;  (** e.g. [from], [sigma], [top], [cap] *)
    op_rows_in : int option;
    op_rows_out : int option;  (** actual output rows; [None] without ANALYZE *)
    op_est_out : float option;  (** estimated output rows, where modelled *)
    op_ms : float option;  (** wall time; [None] without ANALYZE *)
    op_attrs : (string * string) list;
    op_children : op list;
  }

  val op :
    ?rows_in:int ->
    ?rows_out:int ->
    ?est_out:float ->
    ?ms:float ->
    ?attrs:(string * string) list ->
    ?children:op list ->
    string ->
    op

  (** What serves σ[P] — the name on EXPLAIN's plan line and the
      σ operator. The first two come out of {!Query.run_within}'s
      ladder; the rest are the SQL executor's serves, decided before the
      ladder is consulted. *)
  type serve =
    | Evaluate of Planner.plan
        (** the ladder runs this plan (planner, knob or deadline) *)
    | Cached of Cache.reuse  (** the ladder's cache step answers *)
    | Identity
        (** σ[P](R) = R is provable (e.g. from {!Preferences.Constraints}):
            the input is returned unchanged *)
    | Commute of Cache.reuse
        (** a domination-closed WHERE commutes with the winnow: the cached
            unfiltered winnow, filtered *)
    | Pushdown of int
        (** join fan-out: winnow the (this many) distinct attrs(P)
            projections and keep the rows whose projection survived *)
    | Ranked of int  (** scorable TOP k: the k best by score (§6.2) *)
    | Grouped of string list
        (** GROUPING: σ[P groupby A], each group through the ladder *)

  val serve_to_string : serve -> string
  (** The plan line: [bnl], [cache(exact)], [cache(semantic:<identity>)],
      [identity (sigma[P](R) = R)], [cache-commute(<tier>)],
      [pushdown(distinct=N)], [topk(k=N)], [groupby(<attrs>)]. *)

  val serve_kind : serve -> string
  (** {!Planner.plan_kind} for [Evaluate]; [cache_hit],
      [cache_semantic], [identity], [cache_commute], [pushdown], [topk],
      [groupby] otherwise. *)

  type t = {
    query : string;
    analyze : bool;
    plan : serve;
    forced : string option;
        (** why the planner was bypassed (deadline ladder, algorithm
            knob), when it was *)
    trace : Planner.trace;  (** the decision's inputs and rejected paths *)
    ops : op list;
    total_ms : float option;
  }

  val decide :
    Engine.config ->
    deadline:Engine.deadline ->
    Pref_relation.Schema.t ->
    Preferences.Pref.t ->
    Pref_relation.Relation.t ->
    serve * Planner.trace * string option
  (** The σ[P] decision of {!Query.run_within} under this
      configuration — {!Query.decide} fed a non-counting cache probe
      (no counting, no stores) and the planner's traced choice. Returns
      [Cached] or [Evaluate], the planner's trace (with the bypassed auto
      choice prepended to [t_rejected] when the cache or a forcing rule
      decided), and the forcing reason. *)

  val make :
    query:string ->
    analyze:bool ->
    plan:serve ->
    forced:string option ->
    trace:Planner.trace ->
    ops:op list ->
    total_ms:float option ->
    unit ->
    t

  val to_text : t -> string list
  val to_json : t -> Pref_obs.Json.t
end

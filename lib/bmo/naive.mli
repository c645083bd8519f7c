(** Naive BMO evaluation: exhaustive better-than tests.

    The paper's reference semantics (Definition 15): keep every tuple no
    other tuple dominates. O(n²) comparisons; correct for every strict
    partial order. All other algorithms are tested against this one. *)

open Pref_relation

val maxima : ('p -> 'p -> bool) -> 'p list -> 'p list
(** Tuples not dominated by any other tuple (order preserved). *)

val query : Schema.t -> Preferences.Pref.t -> Relation.t -> Relation.t
(** σ[P](R) evaluated naively. *)

(** Grouped preference queries σ[P groupby A](R) (Definition 16).

    Declaratively, σ[P groupby A](R) := σ[A↔ & P](R); operationally it is a
    grouping of R by equal A-values with a per-group BMO query. Both
    implementations are provided and tested equal. *)

open Pref_relation

val query :
  Schema.t -> Preferences.Pref.t -> by:string list -> Relation.t -> Relation.t
(** Operational form: group by [by], run the {!Bnl} window loop in each
    group. Result order: groups in first-appearance order. *)

val query_via_antichain :
  Schema.t -> Preferences.Pref.t -> by:string list -> Relation.t -> Relation.t
(** Declarative form: σ[A↔ & P](R), evaluated naively. *)

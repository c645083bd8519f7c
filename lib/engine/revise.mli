(** Preference-term revision: how a session's new term relates to its
    previous one (Chomicki, {e Database Querying under Changing
    Preferences}; composition Propositions 8–12).

    The classifier works on {!Preferences.Canon} canonical forms, so
    pure reorderings of the algebra never mask a refinement. The class is
    a label — for EXPLAIN's [refine] row, the H210 lint and the shell's
    refine line — and does not pick the evaluation: {!Session.refine}
    runs the revised statement through the ordinary pipeline, where the
    result cache's tiers serve each class:

    - [Same]: an exact hit on the previous statement's cached BMO set.
    - [Prior_suffix] ([P' = P & S]): σ\[P'\](R) ⊆ σ\[P\](R), so the
      prior-prefix tier re-winnows the cached σ\[P\](R) alone (Prop. 10).
    - [Pareto_extend] ([P' = P ⊗ Q]): the new BMO set may grow outside
      the old one, so no reuse is sound in general; the pareto-restrict
      tier serves it when a cached operand has attributes disjoint from
      the rest and its cost gate allows (Prop. 12), and it runs cold
      otherwise.
    - [Contraction] / [Disjoint]: whatever the cache holds for the new
      term; otherwise a cold run. *)

open Pref_sql

type kind =
  | Same  (** canonically equal terms *)
  | Prior_suffix  (** the old prioritisation spine is a strict prefix *)
  | Pareto_extend  (** the old Pareto operands are a strict subset *)
  | Contraction  (** the new term is a strict prefix/subset of the old *)
  | Disjoint  (** unrelated revision *)

val kind_to_string : kind -> string
(** [same], [prior-suffix], [pareto-extend], [contraction], [disjoint] —
    the spelling used by plan attributes, H210 findings and metrics. *)

val classify : old_p:Preferences.Pref.t -> new_p:Preferences.Pref.t -> kind

type outcome = {
  o_result : Exec.result;
  o_kind : kind;
  o_plan : string;
      (** the σ serve that answered ({!Exec.result.plan}), e.g.
          [cache:exact], [cache:semantic:prior-prefix] or [bnl] *)
}

open Pref_relation
open Preferences

let yy schema p1 p2 rel =
  let lt1 = Pref.compile schema p1 and lt2 = Pref.compile schema p2 in
  let rows = Relation.rows rel in
  List.filter
    (fun t ->
      List.exists (fun v -> lt1 t v) rows
      && List.exists (fun v -> lt2 t v) rows
      && not (List.exists (fun v -> lt1 t v && lt2 t v) rows))
    rows

let yy_relation schema p1 p2 rel =
  Relation.make (Relation.schema rel) (yy schema p1 p2 rel)

let rec eval schema p rel =
  match p with
  | Pref.Dunion (p1, p2) ->
    (* Proposition 8: σ[P1+P2](R) = σ[P1](R) ∩ σ[P2](R). *)
    Relation.inter (eval schema p1 rel) (eval schema p2 rel)
  | Pref.Inter (p1, p2) ->
    (* Proposition 9: σ[P1♦P2](R) = σ[P1](R) ∪ σ[P2](R) ∪ YY(P1,P2)R. *)
    Relation.union
      (Relation.union (eval schema p1 rel) (eval schema p2 rel))
      (yy_relation schema p1 p2 rel)
  | Pref.Prior (p1, p2) when Attr.subset (Pref.attrs p2) (Pref.attrs p1) ->
    (* Proposition 4(a): P1 & P2 ≡ P1 on shared attributes. *)
    eval schema p1 rel
  | Pref.Prior (p1, p2) when Attr.disjoint (Pref.attrs p1) (Pref.attrs p2) ->
    (* Proposition 10: σ[P1&P2](R) = σ[P1](R) ∩ σ[P2 groupby A1](R). *)
    Relation.inter
      (eval schema p1 rel)
      (Groupby.query schema p2 ~by:(Pref.attrs p1) rel)
  | Pref.Pareto (p1, p2) when Attr.disjoint (Pref.attrs p1) (Pref.attrs p2) ->
    (* Proposition 12, the main decomposition theorem. *)
    let a1 = Pref.attrs p1 and a2 = Pref.attrs p2 in
    let term1 =
      Relation.inter (eval schema p1 rel) (Groupby.query schema p2 ~by:a1 rel)
    in
    let term2 =
      Relation.inter (eval schema p2 rel) (Groupby.query schema p1 ~by:a2 rel)
    in
    let term3 =
      yy_relation schema (Pref.prior p1 p2) (Pref.prior p2 p1) rel
    in
    Relation.union (Relation.union term1 term2) term3
  | Pref.Pareto (p1, p2) when Attr.equal (Pref.attrs p1) (Pref.attrs p2) ->
    (* Proposition 6: ⊗ collapses to ♦ on identical attribute sets. *)
    eval schema (Pref.inter p1 p2) rel
  | Pref.Pos _ | Pref.Neg _ | Pref.Pos_neg _ | Pref.Pos_pos _
  | Pref.Explicit _ | Pref.Around _ | Pref.Between _ | Pref.Lowest _
  | Pref.Highest _ | Pref.Score _ | Pref.Antichain _ | Pref.Dual _
  | Pref.Pareto _ | Pref.Prior _ | Pref.Rank _ | Pref.Lsum _
  | Pref.Two_graphs _ ->
    Relation.distinct
      (Relation.make (Relation.schema rel)
         (Naive.maxima (Dominance.of_pref schema p) (Relation.rows rel)))

let cascade schema p1 p2 rel =
  (* Proposition 11: σ[P1&P2](R) = σ[P2](σ[P1](R)) when P1 is a chain.  BNL
     is safe for both stages (each stage's preference is an SPO) and the
     chain stage degenerates to a single linear pass with a one-element
     window in the common case. *)
  let pass p rows = Bnl.maxima (Dominance.of_pref schema p) rows in
  Relation.make (Relation.schema rel) (pass p2 (pass p1 (Relation.rows rel)))

open Pref_relation
open Preferences

let query schema p ~by rel =
  let groups = Relation.group_by rel by in
  let dom = Dominance.of_pref schema p in
  let rows =
    List.concat_map (fun g -> Bnl.maxima dom (Relation.rows g)) groups
  in
  Relation.make (Relation.schema rel) rows

let query_via_antichain schema p ~by rel =
  Naive.query schema (Pref.prior (Pref.antichain by) p) rel

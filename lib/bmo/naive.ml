open Pref_relation

let maxima dom rows =
  List.filter
    (fun t -> not (List.exists (fun u -> dom u t) rows))
    rows

let query schema p rel =
  Pref_obs.Span.with_span "bmo.naive" (fun () ->
      let dom = Dominance.of_pref schema p in
      let rows = Relation.rows rel in
      if Pref_obs.Control.is_enabled () then begin
        let dom, comparisons = Dominance.counting dom in
        let best, ms = Pref_obs.Span.timed (fun () -> maxima dom rows) in
        Obs.record_query ~algorithm:"naive" ~n_in:(List.length rows)
          ~n_out:(List.length best) ~comparisons:(comparisons ()) ~ms;
        Relation.make (Relation.schema rel) best
      end
      else Relation.make (Relation.schema rel) (maxima dom rows))

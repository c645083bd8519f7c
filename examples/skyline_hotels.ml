(* The classic skyline scenario (§6.1, 'SKYLINE OF'): cheap hotels close to
   the beach.  Demonstrates that the restricted SKYLINE OF clause is the
   Pareto accumulation of LOWEST/HIGHEST chains, and that all BMO
   algorithms compute the same result at very different costs.

   Run with:  dune exec examples/skyline_hotels.exe *)

open Pref_relation
open Preferences
open Pref_bmo

let () =
  let hotels = Pref_workload.Hotels.relation ~seed:5 ~n:2000 () in
  let schema = Relation.schema hotels in
  Fmt.pr "Hotel catalog: %d hotels@." (Relation.cardinality hotels);

  (* SKYLINE OF price MIN, distance_to_beach MIN, stars MAX *)
  let skyline_pref =
    Pref.pareto_all
      [ Pref.lowest "price"; Pref.lowest "distance_to_beach"; Pref.highest "stars" ]
  in
  Fmt.pr "@.SKYLINE OF price MIN, distance MIN, stars MAX@.= %a@." Show.pp
    skyline_pref;

  let time name f =
    let t0 = Sys.time () in
    let r = f () in
    let dt = (Sys.time () -. t0) *. 1000. in
    Fmt.pr "  %-12s %4d hotels in %7.2f ms@." name (Relation.cardinality r) dt;
    r
  in
  Fmt.pr "@.Algorithms:@.";
  let r_naive = time "naive" (fun () -> Naive.query schema skyline_pref hotels) in
  let r_bnl =
    time "BNL" (fun () ->
        Planner.execute schema skyline_pref hotels Planner.Plan_bnl)
  in
  let r_dnc =
    time "D&C (KLP)" (fun () ->
        let dims t =
          [|
            -.Option.get (Value.as_float (Tuple.get_by_name schema t "price"));
            -.Option.get
                (Value.as_float (Tuple.get_by_name schema t "distance_to_beach"));
            Option.get (Value.as_float (Tuple.get_by_name schema t "stars"));
          |]
        in
        Relation.make schema (Dnc.maxima ~dims (Relation.rows hotels)))
  in
  assert (Relation.equal_as_sets r_naive r_bnl);
  assert (Relation.equal_as_sets r_naive r_dnc);
  Fmt.pr "  all three agree.@.";

  Fmt.pr "@.The skyline (best price/distance/stars trade-offs):@.";
  Table_fmt.print ~max_rows:15
    (Relation.sort_by
       (fun a b -> Value.compare (Tuple.get_by_name schema a "price")
           (Tuple.get_by_name schema b "price"))
       r_bnl);

  (* Compare the filter strength of Pareto vs prioritized (§5.5). *)
  let prior_pref =
    Pref.prior_all
      [ Pref.lowest "price"; Pref.lowest "distance_to_beach"; Pref.highest "stars" ]
  in
  Fmt.pr "@.Filter effect (§5.5): size under (x) vs &@.";
  Fmt.pr "  pareto   : %d@." (Stats.result_size schema skyline_pref hotels);
  Fmt.pr "  prior    : %d (stronger, AND-like)@."
    (Stats.result_size schema prior_pref hotels)

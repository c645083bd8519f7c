(* A tour of the query-optimizer machinery the paper's roadmap calls for:
   algebraic rewriting, result-size estimation, cost-based plan choice,
   query explanation and incremental maintenance.

   Run with:  dune exec examples/optimizer_tour.exe *)

open Pref_relation
open Preferences
open Pref_bmo

let () =
  (* 1. Algebraic simplification (§4 laws as rewrite rules), written with
        the infix Syntax module. *)
  let messy =
    let open Syntax in
    ~~(~~(lowest "price"))
    <*> (lowest "price" &> around "price" 9000.)
    &> Pref.antichain [ "price" ]
  in
  Fmt.pr "Term:       %a@." Show.pp messy;
  Fmt.pr "Simplified: %a  (size %d -> %d)@." Show.pp (Rewrite.simplify messy)
    (Rewrite.size messy)
    (Rewrite.size (Rewrite.simplify messy));

  (* 2. Result-size estimation: how big will a skyline be? *)
  Fmt.pr "@.Expected skyline sizes (independent-uniform model):@.";
  List.iter
    (fun (n, d) ->
      Fmt.pr "  n = %-6d d = %d  ->  E[size] = %.1f@." n d
        (Estimate.expected_skyline_size ~n ~dims:d))
    [ (1000, 2); (1000, 4); (100000, 2); (100000, 4) ];

  (* 3. Cost-based plan choice on real data. *)
  let show_plan name rel p =
    let r =
      Query.run_within ~deadline:Engine.no_deadline
        { Engine.default with algorithm = Engine.Alg_auto; profile = true }
        (Relation.schema rel) p rel
    in
    let plan =
      Option.bind r.Engine.Result.profile (fun prof ->
          List.assoc_opt "plan" prof.Pref_obs.Profile.attrs)
    in
    Fmt.pr "  %-28s -> %-20s (%d best matches)@." name
      (Option.value plan ~default:"?")
      (Relation.cardinality r.Engine.Result.rows)
  in
  Fmt.pr "@.Planner choices:@.";
  let anti =
    Pref_workload.Synthetic.relation ~seed:7 ~n:3000 ~dims:3
      Pref_workload.Synthetic.Anti_correlated
  in
  let skyline =
    Pref.pareto_all (List.map Pref.highest (Pref_workload.Synthetic.dim_names 3))
  in
  show_plan "anti-correlated skyline" anti skyline;
  let indep =
    Pref_workload.Synthetic.relation ~seed:7 ~n:3000 ~dims:3
      Pref_workload.Synthetic.Independent
  in
  show_plan "independent skyline" indep skyline;
  let cars = Pref_workload.Cars.relation ~seed:3 ~n:3000 () in
  show_plan "chain & categorical" cars
    (Pref.prior (Pref.lowest "price") (Pref.pos "color" [ Str "red" ]));

  (* 4. Explanation: why is a tuple (not) in the result? *)
  let schema = Relation.schema cars in
  let p = Pref.pareto (Pref.lowest "price") (Pref.lowest "mileage") in
  Fmt.pr "@.Explaining the first two cars under %a:@." Show.pp p;
  (match Relation.rows cars with
  | a :: b :: _ ->
    print_string (Explain.to_string (Explain.explain schema p cars a));
    print_string (Explain.to_string (Explain.explain schema p cars b))
  | _ -> ());

  (* 5. Incremental maintenance under updates. *)
  Fmt.pr "@.Incremental BMO maintenance:@.";
  let inc = Incremental.create schema p (Relation.rows cars) in
  Fmt.pr "  initial: %d best of %d@." (Incremental.size inc)
    (Incremental.cardinality inc);
  let killer =
    Tuple.make
      [
        Int 999999; Str "VW"; Str "roadster"; Str "red"; Str "automatic";
        Int 100; Int 1; Int 0; Int 2001; Int 10;
      ]
  in
  Incremental.insert inc killer;
  Fmt.pr "  after inserting a 1-euro, 0-mileage car: %d best@."
    (Incremental.size inc);
  ignore (Incremental.delete inc killer);
  Fmt.pr "  after deleting it again: %d best (resurrected)@."
    (Incremental.size inc)

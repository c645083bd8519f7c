open Pref_relation
open Preferences
open Pref_bmo

let check = Alcotest.(check bool)

let test_harmonic () =
  Alcotest.(check (float 1e-9)) "H_1" 1. (Estimate.harmonic 1);
  Alcotest.(check (float 1e-9)) "H_4" (25. /. 12.) (Estimate.harmonic 4);
  check "H_n ~ ln n + gamma" true
    (Float.abs (Estimate.harmonic 10000 -. (log 10000. +. 0.5772)) < 0.01)

let test_expected_sizes () =
  Alcotest.(check (float 1e-9)) "d=1 is 1" 1. (Estimate.expected_skyline_size ~n:500 ~dims:1);
  Alcotest.(check (float 1e-9)) "d=2 is harmonic" (Estimate.harmonic 500)
    (Estimate.expected_skyline_size ~n:500 ~dims:2);
  check "monotone in d" true
    (Estimate.expected_skyline_size ~n:1000 ~dims:4
    > Estimate.expected_skyline_size ~n:1000 ~dims:3);
  check "monotone in n" true
    (Estimate.expected_skyline_size ~n:2000 ~dims:3
    > Estimate.expected_skyline_size ~n:1000 ~dims:3);
  Alcotest.(check (float 1e-9)) "n=0" 0. (Estimate.expected_skyline_size ~n:0 ~dims:3);
  Alcotest.check_raises "dims=0"
    (Invalid_argument "Estimate.expected_skyline_size: dims < 1") (fun () ->
      ignore (Estimate.expected_skyline_size ~n:10 ~dims:0))

let test_against_measured () =
  (* the estimator should land in the right ballpark on independent data *)
  let trials = [ 1; 2; 3; 4; 5 ] in
  let n = 2000 and dims = 3 in
  let measured =
    List.map
      (fun seed ->
        let rel = Pref_workload.Synthetic.relation ~seed ~n ~dims
            Pref_workload.Synthetic.Independent
        in
        let schema = Relation.schema rel in
        let p =
          Pref.pareto_all
            (List.map Pref.highest (Pref_workload.Synthetic.dim_names dims))
        in
        float_of_int
          (Relation.cardinality
             (Planner.execute schema p rel Planner.Plan_bnl)))
      trials
  in
  let avg = List.fold_left ( +. ) 0. measured /. 5. in
  let predicted = Estimate.expected_skyline_size ~n ~dims in
  check
    (Printf.sprintf "measured avg %.1f within 2x of predicted %.1f" avg predicted)
    true
    (avg < 2. *. predicted && avg > predicted /. 2.)

let test_syntax_module () =
  let open Syntax in
  let q = pos "color" [ Value.Str "red" ] &> (lowest "price" <*> highest "hp") in
  check "infix operators build the expected term" true
    (Pref.equal q
       (Pref.prior
          (Pref.pos "color" [ Value.Str "red" ])
          (Pref.pareto (Pref.lowest "price") (Pref.highest "hp"))));
  check "dual operator" true
    (Pref.equal (~~(lowest "price")) (Pref.dual (Pref.lowest "price")));
  check "left-assoc prior chain" true
    (Pref.equal
       (lowest "a" &> lowest "b" &> lowest "c")
       (Pref.prior_all [ Pref.lowest "a"; Pref.lowest "b"; Pref.lowest "c" ]));
  check "inter and dunion" true
    (Pref.equal
       (lowest "a" <&> highest "a")
       (Pref.inter (Pref.lowest "a") (Pref.highest "a"))
    && Pref.equal
         (lowest "a" <+> highest "a")
         (Pref.dunion (Pref.lowest "a") (Pref.highest "a")))

let suite =
  [
    Gen.quick "harmonic numbers" test_harmonic;
    Gen.quick "expected skyline sizes" test_expected_sizes;
    Gen.quick "estimator vs measurement" test_against_measured;
    Gen.quick "infix syntax module" test_syntax_module;
  ]

open Pref_relation
open Preferences
open Pref_sql

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Lexer ----------------------------------------------------------- *)

let test_lexer () =
  let toks = Lexer.tokenize "SELECT * FROM car WHERE price >= 40000 -- comment\n;" in
  let kinds = List.map (fun t -> Token.to_string t.Token.token) toks in
  Alcotest.(check (list string)) "token stream"
    [ "SELECT"; "*"; "FROM"; "car"; "WHERE"; "price"; ">="; "40000"; ";"; "<end of query>" ]
    kinds;
  (match Lexer.tokenize "'it''s' 4.5 <> !=" with
  | [ { token = Token.String s; _ }; { token = Token.Float f; _ };
      { token = Token.Sym "<>"; _ }; { token = Token.Sym "<>"; _ };
      { token = Token.Eof; _ } ] ->
    Alcotest.(check string) "escaped quote" "it's" s;
    Alcotest.(check (float 1e-9)) "float" 4.5 f
  | _ -> Alcotest.fail "unexpected token stream");
  Alcotest.(check bool) "lexer error has position" true
    (try
       ignore (Lexer.tokenize "price ? 3");
       false
     with Lexer.Error (_, p) -> p = 6)

(* --- Parser ----------------------------------------------------------- *)

let test_parse_paper_query1 () =
  (* the first Preference SQL example of §6.1 *)
  let q =
    Parser.parse_query
      "SELECT * FROM car WHERE make = 'Opel' \
       PREFERRING (category = 'roadster' ELSE category <> 'passenger' AND \
       price AROUND 40000 AND HIGHEST(power)) \
       CASCADE color = 'red' CASCADE LOWEST(mileage);"
  in
  Alcotest.(check (list string)) "from" [ "car" ] q.Ast.from;
  check "where parsed" true (q.Ast.where <> None);
  check_int "two cascades" 2 (List.length q.Ast.cascade);
  match q.Ast.preferring with
  | Some (Ast.P_pareto (Ast.P_pos_neg ("category", pos, neg), rest)) ->
    check "pos = roadster" true (pos = [ Value.Str "roadster" ]);
    check "neg = passenger" true (neg = [ Value.Str "passenger" ]);
    (match rest with
    | Ast.P_pareto (Ast.P_around ("price", Value.Int 40000), Ast.P_highest "power") -> ()
    | _ -> Alcotest.fail "unexpected pareto tail")
  | _ -> Alcotest.fail "unexpected preferring shape"

let test_parse_paper_query2 () =
  let q =
    Parser.parse_query
      "SELECT * FROM trips \
       PREFERRING start_date AROUND '2001/11/23' AND duration AROUND 14 \
       BUT ONLY DISTANCE(start_date) <= 2 AND DISTANCE(duration) <= 2"
  in
  check_int "two quality bounds" 2 (List.length q.Ast.but_only);
  (match q.Ast.preferring with
  | Some (Ast.P_pareto (Ast.P_around ("start_date", d), _)) ->
    check "date literal parsed as date" true
      (match d with Value.Date _ -> true | _ -> false)
  | _ -> Alcotest.fail "unexpected preferring shape");
  match q.Ast.but_only with
  | [ Ast.Q_distance ("start_date", Ast.Le, 2.); Ast.Q_distance ("duration", Ast.Le, 2.) ] -> ()
  | _ -> Alcotest.fail "unexpected BUT ONLY shape"

let test_parse_misc () =
  let q =
    Parser.parse_query
      "SELECT make, price FROM car WHERE price BETWEEN 1000 AND 2000 OR NOT \
       (color IN ('red','blue') AND make LIKE 'B%') PREFERRING LOWEST(price) \
       PRIOR TO HIGHEST(power) GROUPING make TOP 5"
  in
  check_int "two columns" 2 (List.length q.Ast.select);
  check "grouping" true (q.Ast.grouping = [ "make" ]);
  check "top" true (q.Ast.top = Some 5);
  (match q.Ast.preferring with
  | Some (Ast.P_prior (Ast.P_lowest "price", Ast.P_highest "power")) -> ()
  | _ -> Alcotest.fail "expected PRIOR TO");
  (* errors carry positions *)
  check "parse error on garbage" true
    (try
       ignore (Parser.parse_query "SELECT FROM");
       false
     with Parser.Error (_, _) -> true);
  check "trailing input rejected" true
    (try
       ignore (Parser.parse_query "SELECT * FROM t WHERE a = 1 bogus");
       false
     with Parser.Error (_, _) -> true)

let test_parse_explicit_score_rank () =
  let p =
    Parser.parse_pref
      "EXPLICIT(color, ('green','yellow'), ('yellow','white')) AND \
       RANK(sum, SCORE(x, identity), y AROUND 3)"
  in
  match p with
  | Ast.P_pareto (Ast.P_explicit ("color", edges), Ast.P_rank ("sum", _, _)) ->
    check_int "two edges" 2 (List.length edges)
  | _ -> Alcotest.fail "unexpected shape"

let test_pretty_roundtrip () =
  let sources =
    [
      "SELECT * FROM car PREFERRING category = 'roadster' ELSE category <> \
       'passenger' AND price AROUND 40000 CASCADE LOWEST(mileage)";
      "SELECT make, price FROM car WHERE (price >= 1000 AND color IS NOT \
       NULL) PREFERRING LOWEST(price) PRIOR TO (HIGHEST(power) AND color = \
       'red') BUT ONLY DISTANCE(price) <= 500 GROUPING make TOP 3";
      "SELECT * FROM t PREFERRING a IN (1, 2) ELSE a IN (3) AND DUAL(b \
       AROUND 4)";
    ]
  in
  List.iter
    (fun src ->
      let q = Parser.parse_query src in
      let printed = Pretty.query_to_string q in
      let q' = Parser.parse_query printed in
      let printed' = Pretty.query_to_string q' in
      Alcotest.(check string) ("roundtrip: " ^ src) printed printed')
    sources

(* --- Translation ------------------------------------------------------ *)

let test_translate () =
  let p = Translate.pref (Parser.parse_pref "price AROUND 40000") in
  check "around term" true (Pref.equal p (Pref.around "price" 40000.));
  let p2 =
    Translate.pref (Parser.parse_pref "color = 'red' PRIOR TO LOWEST(mileage)")
  in
  check "prior term" true
    (Pref.equal p2
       (Pref.prior (Pref.pos "color" [ Value.Str "red" ]) (Pref.lowest "mileage")));
  (* date AROUND becomes a day-count target *)
  let p3 = Translate.pref (Parser.parse_pref "start_date AROUND '2001/11/23'") in
  (match p3 with
  | Pref.Around ("start_date", z) ->
    Alcotest.(check (float 1e-9)) "day count target"
      (float_of_int (Value.date_to_days { Value.year = 2001; month = 11; day = 23 }))
      z
  | _ -> Alcotest.fail "expected AROUND");
  check "unknown score function" true
    (try
       ignore (Translate.pref (Parser.parse_pref "SCORE(x, nosuch)"));
       false
     with Translate.Error _ -> true);
  check "non-numeric around" true
    (try
       ignore (Translate.pref (Parser.parse_pref "x AROUND 'red'"));
       false
     with Translate.Error _ -> true)

let test_like () =
  check "prefix" true (Translate.like_match ~pattern:"B%" "BMW");
  check "case-insensitive" true (Translate.like_match ~pattern:"b%" "BMW");
  check "infix" true (Translate.like_match ~pattern:"%oad%" "roadster");
  check "underscore" true (Translate.like_match ~pattern:"c_t" "cat");
  check "underscore wrong length" false (Translate.like_match ~pattern:"c_t" "cart");
  check "no match" false (Translate.like_match ~pattern:"x%" "BMW");
  check "exact" true (Translate.like_match ~pattern:"bmw" "BMW");
  check "empty pattern empty string" true (Translate.like_match ~pattern:"" "");
  check "percent matches empty" true (Translate.like_match ~pattern:"%" "")

(* --- Execution -------------------------------------------------------- *)

let cars_schema =
  Schema.make
    [
      ("make", Value.TStr); ("category", Value.TStr); ("color", Value.TStr);
      ("price", Value.TInt); ("power", Value.TInt); ("mileage", Value.TInt);
      ("oid", Value.TInt);
    ]

let car (make, cat, col, price, power, mil, oid) =
  Tuple.make
    [
      Value.Str make; Value.Str cat; Value.Str col; Value.Int price;
      Value.Int power; Value.Int mil; Value.Int oid;
    ]

let car_rows =
  List.map car
    [
      ("Opel", "roadster", "red", 41000, 110, 60000, 1);
      ("Opel", "roadster", "blue", 39500, 100, 80000, 2);
      ("Opel", "passenger", "red", 38000, 150, 30000, 3);
      ("Opel", "suv", "gray", 45000, 140, 40000, 4);
      ("BMW", "roadster", "red", 40000, 180, 20000, 5);
    ]

let env = [ ("car", Relation.make cars_schema car_rows) ]

let oids rel =
  List.map
    (fun t -> match Tuple.get_by_name (Relation.schema rel) t "oid" with
       | Value.Int i -> i
       | _ -> -1)
    (Relation.rows rel)
  |> List.sort compare

let test_exec_where () =
  let r = Exec.run env "SELECT * FROM car WHERE make = 'Opel'" in
  check_int "four opels" 4 (Relation.cardinality r.Exec.relation);
  let r2 = Exec.run env "SELECT * FROM car WHERE make = 'Opel' AND color <> 'gray'" in
  Alcotest.(check (list int)) "filtered" [ 1; 2; 3 ] (oids r2.Exec.relation)

let test_exec_paper_query1 () =
  let r =
    Exec.run env
      "SELECT * FROM car WHERE make = 'Opel' \
       PREFERRING (category = 'roadster' ELSE category <> 'passenger' AND \
       price AROUND 40000 AND HIGHEST(power)) \
       CASCADE color = 'red' CASCADE LOWEST(mileage)"
  in
  (* among Opels: roadsters 1 and 2 and suv 4 compete; roadster category is
     maximal for the POS/NEG part. Pareto with price/power keeps 1 and 2
     (unranked trade-off: 2 is closer on neither...), cascade prefers red. *)
  check "result non-empty" true (not (Relation.is_empty r.Exec.relation));
  check "only opels" true
    (List.for_all
       (fun t ->
         Value.equal (Tuple.get_by_name cars_schema t "make") (Value.Str "Opel"))
       (Relation.rows r.Exec.relation));
  (* the translated preference is available for explain *)
  check "preference recorded" true (r.Exec.preference <> None)

let test_exec_projection_and_top () =
  let r = Exec.run env "SELECT make, price FROM car PREFERRING LOWEST(price) TOP 3" in
  Alcotest.(check (list string)) "projected schema" [ "make"; "price" ]
    (Schema.names (Relation.schema r.Exec.relation));
  check_int "top 3 of ranked model" 3 (Relation.cardinality r.Exec.relation);
  (match Relation.rows r.Exec.relation with
  | first :: _ ->
    Alcotest.check Gen.value_testable "cheapest first" (Value.Int 38000)
      (Tuple.get first 1)
  | [] -> Alcotest.fail "empty")

let test_exec_grouping () =
  let r =
    Exec.run env "SELECT * FROM car PREFERRING LOWEST(price) GROUPING make"
  in
  (* best price per make: oid 3 for Opel, oid 5 for BMW *)
  Alcotest.(check (list int)) "per-make winners" [ 3; 5 ] (oids r.Exec.relation)

let test_exec_but_only () =
  let r =
    Exec.run env
      "SELECT * FROM car PREFERRING price AROUND 40000 BUT ONLY \
       DISTANCE(price) <= 100"
  in
  (* BMO winner is oid 5 at distance 0; BUT ONLY keeps it *)
  Alcotest.(check (list int)) "winner inside bound" [ 5 ] (oids r.Exec.relation);
  let r2 =
    Exec.run env
      "SELECT * FROM car WHERE make = 'Opel' PREFERRING price AROUND 40000 \
       BUT ONLY DISTANCE(price) <= 100"
  in
  (* Opel best is 39500 (distance 500) — filtered away: empty result *)
  check "quality bound can empty the result" true (Relation.is_empty r2.Exec.relation)

let test_exec_but_only_level () =
  let r =
    Exec.run env
      "SELECT * FROM car PREFERRING color = 'red' ELSE color <> 'gray' \
       BUT ONLY LEVEL(color) <= 1"
  in
  check "all results are red" true
    (List.for_all
       (fun t ->
         Value.equal (Tuple.get_by_name cars_schema t "color") (Value.Str "red"))
       (Relation.rows r.Exec.relation))

let test_multi_attr_grouping () =
  (* GROUPING over two attributes: best price per (make, category) pair *)
  let r =
    Exec.run env
      "SELECT * FROM car PREFERRING LOWEST(price) GROUPING make, category"
  in
  (* groups: Opel/roadster {1,2}, Opel/passenger {3}, Opel/suv {4},
     BMW/roadster {5} -> winners 2, 3, 4, 5 *)
  Alcotest.(check (list int)) "per-group winners" [ 2; 3; 4; 5 ]
    (oids r.Exec.relation)

let test_but_only_level_pospos () =
  let r =
    Exec.run env
      "SELECT * FROM car PREFERRING category = 'roadster' ELSE category = \
       'suv' BUT ONLY LEVEL(category) <= 2"
  in
  check "all results within two levels" true
    (List.for_all
       (fun t ->
         match Tuple.get_by_name cars_schema t "category" with
         | Value.Str ("roadster" | "suv") -> true
         | _ -> false)
       (Relation.rows r.Exec.relation))

let test_exec_errors () =
  check "unknown table" true
    (try
       ignore (Exec.run env "SELECT * FROM nope");
       false
     with Exec.Unknown_table { name = "nope"; hint = None } -> true);
  check "unknown table suggests a near miss" true
    (try
       ignore (Exec.run env "SELECT * FROM cars");
       false
     with Exec.Unknown_table { name = "cars"; hint = Some "car" } -> true);
  check "unknown column in where" true
    (try
       ignore (Exec.run env "SELECT * FROM car WHERE nope = 1");
       false
     with Exec.Error _ -> true);
  check "but only without preferring" true
    (try
       ignore (Exec.run env "SELECT * FROM car BUT ONLY LEVEL(color) <= 1");
       false
     with Exec.Error _ -> true)

let test_order_by () =
  let r =
    Exec.run env "SELECT oid, price FROM car ORDER BY price DESC, oid"
  in
  let prices =
    List.map
      (fun t -> Tuple.get t 1)
      (Relation.rows r.Exec.relation)
  in
  check "descending prices" true
    (prices
    = List.sort (fun a b -> Value.compare b a) prices);
  (* ordering composes with preferences and TOP *)
  let r2 =
    Exec.run env
      "SELECT oid, price FROM car PREFERRING LOWEST(price) AND \
       LOWEST(mileage) ORDER BY price TOP 2"
  in
  check_int "top 2 after ordering" 2 (Relation.cardinality r2.Exec.relation);
  (match Relation.rows r2.Exec.relation with
  | a :: b :: _ ->
    check "ascending within result" true
      (Value.compare (Tuple.get a 1) (Tuple.get b 1) <= 0)
  | _ -> Alcotest.fail "expected two rows");
  (* parses, prints, reparses *)
  let q = Parser.parse_query "SELECT * FROM car ORDER BY price DESC, oid ASC" in
  check "order_by parsed" true (q.Ast.order_by = [ ("price", false); ("oid", true) ]);
  let printed = Pretty.query_to_string q in
  check "roundtrip" true (Pretty.query_to_string (Parser.parse_query printed) = printed)

let test_exec_bmo_equivalence () =
  (* all three algorithms agree through the SQL layer *)
  let q = "SELECT * FROM car PREFERRING LOWEST(price) AND LOWEST(mileage)" in
  let with_algo algorithm =
    (Exec.run_cfg { Pref_bmo.Engine.default with algorithm } env q).Exec.relation
  in
  let naive = with_algo Pref_bmo.Query.Alg_naive in
  check "bnl agrees" true
    (Relation.equal_as_sets naive (with_algo Pref_bmo.Query.Alg_bnl));
  check "decompose agrees" true
    (Relation.equal_as_sets naive (with_algo Pref_bmo.Query.Alg_decompose))

let suite =
  [
    Gen.quick "lexer" test_lexer;
    Gen.quick "parse paper query 1" test_parse_paper_query1;
    Gen.quick "parse paper query 2" test_parse_paper_query2;
    Gen.quick "parse misc clauses" test_parse_misc;
    Gen.quick "parse explicit/score/rank" test_parse_explicit_score_rank;
    Gen.quick "pretty-print roundtrip" test_pretty_roundtrip;
    Gen.quick "translation" test_translate;
    Gen.quick "LIKE matching" test_like;
    Gen.quick "exec: where" test_exec_where;
    Gen.quick "exec: paper query 1" test_exec_paper_query1;
    Gen.quick "exec: projection and TOP" test_exec_projection_and_top;
    Gen.quick "exec: grouping" test_exec_grouping;
    Gen.quick "exec: BUT ONLY distance" test_exec_but_only;
    Gen.quick "exec: BUT ONLY level" test_exec_but_only_level;
    Gen.quick "exec: multi-attribute grouping" test_multi_attr_grouping;
    Gen.quick "exec: BUT ONLY level on POS/POS" test_but_only_level_pospos;
    Gen.quick "exec: errors" test_exec_errors;
    Gen.quick "exec: ORDER BY" test_order_by;
    Gen.quick "exec: algorithms agree" test_exec_bmo_equivalence;
  ]

(* Keyed dominance and the key columns it reads: the compiler against the
   tuple closure on every ordered pair, the columns' ownership per table
   version, concurrent first builds, and Value.equal keys for GROUPING,
   DISTINCT and the join pushdown. *)

open Pref_relation
open Preferences
open Pref_bmo
module G = QCheck.Gen

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Generators: Gen's terms plus ⊕ and +, over rows with NULL in every
   column, ints in the float column [d], a NaN and duplicates *)

let value_on = function
  | "a" | "b" ->
    G.frequency [ (5, G.oneofl Gen.int_values); (1, G.return Value.Null) ]
  | "c" -> G.frequency [ (5, G.oneofl Gen.str_values); (1, G.return Value.Null) ]
  | _ ->
    G.frequency
      [
        (4, G.oneofl Gen.float_values);
        (2, G.oneofl [ Value.Int 0; Value.Int 1; Value.Int 2 ]);
        (1, G.return Value.Null);
        (1, G.return (Value.Float Float.nan));
      ]

let tuple =
  G.map
    (fun (a, b, c, d) -> Tuple.make [ a; b; c; d ])
    (G.quad (value_on "a") (value_on "b") (value_on "c") (value_on "d"))

let rows =
  G.(
    list_size (int_range 0 18) tuple >>= fun rs ->
    match rs with
    | [] -> return []
    | _ ->
      map
        (fun picks -> rs @ List.map (List.nth rs) picks)
        (list_size (int_range 0 4) (int_range 0 (List.length rs - 1))))

(* Linear sums over [c] and over [a]: single-attribute operands with
   disjoint value domains. *)
let lsum =
  let s v = Value.Str v and i n = Value.Int n in
  G.oneofl
    [
      Pref.lsum ~attr:"c"
        (Pref.pos "c" [ s "x" ], [ s "x"; s "y" ])
        (Pref.neg "c" [ s "w" ], [ s "z"; s "w" ]);
      Pref.lsum ~attr:"a"
        (Pref.lowest "a", [ i 0; i 1 ])
        (Pref.explicit "a" [ (i 3, i 2) ], [ i 2; i 3; i 4 ]);
    ]

let term =
  G.frequency
    [
      (6, Gen.pref);
      (1, G.map2 Pref.dunion Gen.pref Gen.pref);
      (1, lsum);
      (1, G.map2 Pref.pareto lsum Gen.pref);
      (1, G.map Pref.dual (G.map2 Pref.prior Gen.pref Gen.pref));
    ]

let arb =
  QCheck.make
    (G.pair term rows)
    ~print:(fun (p, rs) ->
      Fmt.str "%a over %a" Show.pp p (Fmt.Dump.list Tuple.pp) rs)

(* + of arbitrary operands, and a linear sum over values outside its
   declared domains, need not be strict partial orders, where BNL and the
   naive scan may differ *)
let rec maybe_not_spo = function
  | Pref.Dunion _ | Pref.Lsum _ -> true
  | Pref.Dual p -> maybe_not_spo p
  | Pref.Pareto (p, q) | Pref.Prior (p, q) | Pref.Inter (p, q) | Pref.Rank (_, p, q)
    ->
    maybe_not_spo p || maybe_not_spo q
  | _ -> false

(* survivors as row indices: NaN rows equal nothing, not even
   themselves, so result sets compare by position *)
let keyed_bnl k =
  let r = Dominance.window k in
  (Array.to_list r.Bnl.survivors, r.Bnl.tests)

let closure_bnl dom arr =
  let r = Bnl.window dom arr in
  (Array.to_list r.Bnl.survivors, r.Bnl.tests)

(* Keyed agrees with Pref.compile on every ordered pair; its BNL pass is
   the closure's (rows, order and test count) and, for the strict partial
   orders, Naive.maxima's. *)
let keyed_agrees =
  QCheck.Test.make ~count:500 ~name:"keyed dominance = compiled closure" arb
    (fun (p, rs) ->
      let rel = Relation.make Gen.schema rs in
      Relation.store rel;
      let dom = Dominance.of_pref Gen.schema p in
      let k = Dominance.keyed Gen.schema p rel in
      let arr = Array.of_list rs in
      let n = Array.length arr in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if k.Dominance.dominates i j <> dom arr.(i) arr.(j) then
            QCheck.Test.fail_reportf "rows %d, %d: keyed %b, closure %b" i j
              (k.Dominance.dominates i j) (dom arr.(i) arr.(j))
        done
      done;
      let kb, kt = keyed_bnl k and cb, ct = closure_bnl dom arr in
      kb = cb
      && kt = ct
      && (maybe_not_spo p
         || kb
            = Naive.maxima (fun i j -> dom arr.(i) arr.(j)) (List.init n Fun.id))
      (* a restriction and every group of the stored [rel] read its
         columns at their positions: the same rows, in order, after the
         same tests *)
      && List.for_all
           (fun part ->
             let k = Dominance.keyed Gen.schema p part in
             let r = Dominance.window k in
             let arr = Relation.row_array part in
             let c = Bnl.window dom arr in
             k.Dominance.source == rel
             && r.Bnl.tests = c.Bnl.tests
             && List.equal ( == )
                  (Dominance.select k r.Bnl.survivors)
                  (Bnl.select arr c))
           (Relation.restrict (fun t -> Tuple.hash t land 1 = 0) rel
           :: Relation.group_by rel [ "c" ]))

(* ------------------------------------------------------------------ *)
(* Leaf rules                                                           *)

let num_schema = Schema.make [ ("x", Value.TFloat); ("s", Value.TStr) ]

let num_rel =
  Relation.make num_schema
    (List.map
       (fun (x, s) -> Tuple.make [ x; Value.Str s ])
       [
         (Value.Float 1.0, "red");
         (Value.Null, "blue");
         (Value.Float Float.nan, "red");
         (Value.Int 1, "green");
         (Value.Float 2.5, "blue");
       ])

let test_leaf_rules () =
  let lt p i j =
    (Dominance.keyed num_schema (Pref.dual p) num_rel).Dominance.dominates i j
  in
  (* LOWEST: a number beats NULL, NaN compares false both ways *)
  check "1.0 < NULL under LOWEST" true (lt (Pref.lowest "x") 1 0);
  check "NaN is not NULL: NULL loses to it" true
    (lt (Pref.lowest "x") 1 2 && not (lt (Pref.lowest "x") 2 1));
  check "NaN is incomparable" false
    (lt (Pref.lowest "x") 2 4 || lt (Pref.lowest "x") 4 2);
  (* a dual makes NULL the best value *)
  check "NULL best under a dual" true (lt (Pref.dual (Pref.lowest "x")) 0 1);
  (* Int 1 = Float 1.0 for the Pareto equality test *)
  let p = Pref.pareto (Pref.lowest "x") (Pref.pos "s" [ Value.Str "red" ]) in
  let k = Dominance.keyed num_schema p num_rel in
  check "int and float tie, POS decides" true (k.Dominance.dominates 0 3);
  check "no closure leaf" true (k.Dominance.closure_leaves = []);
  check "attrs name the form" true
    (List.mem ("dominance", "keyed") (Dominance.form_attrs (Dominance.form k)));
  (* SCORE reads the tuple closure and is listed *)
  let sc = Pref.score "x" ~name:"neg" (fun v ->
      match Value.as_float v with Some f -> -.f | None -> 0.) in
  let k = Dominance.keyed num_schema (Pref.pareto sc (Pref.lowest "x")) num_rel in
  check "score falls back" true
    (List.equal Pref.equal k.Dominance.closure_leaves [ sc ]);
  check "fallback listed" true
    (List.mem_assoc "closure_leaves" (Dominance.form_attrs (Dominance.form k)));
  (* a graph naming more distinct values than the class table takes
     falls back; repeated names count once *)
  let chain k =
    Pref.explicit "x"
      (List.init k (fun i ->
           (Value.Float (float_of_int (i + 10)), Value.Float (float_of_int i))))
  in
  let big = chain 300 in
  let k = Dominance.keyed num_schema big num_rel in
  check "large graph falls back" true
    (List.equal Pref.equal k.Dominance.closure_leaves [ big ]);
  let k = Dominance.keyed num_schema (chain 200) num_rel in
  check "210 distinct values stay keyed" true (k.Dominance.closure_leaves = [])

(* ------------------------------------------------------------------ *)
(* Column ownership                                                     *)

let all_built rel =
  List.iteri
    (fun i _ ->
      ignore (Relation.floats rel i);
      ignore (Relation.dict rel i))
    (Schema.names (Relation.schema rel))

let none_built rel =
  List.for_all
    (fun i -> not (Relation.has_floats rel i || Relation.has_dict rel i))
    (List.init (Schema.arity (Relation.schema rel)) Fun.id)

(* a record's columns are those a fresh record of its rows would build *)
let own_columns rel =
  let fresh = Relation.make (Relation.schema rel) (Relation.rows rel) in
  List.for_all
    (fun i ->
      let a = Relation.floats rel i and b = Relation.floats fresh i in
      let d = Relation.dict rel i and e = Relation.dict fresh i in
      Array.length a.Relation.values = Array.length b.Relation.values
      && Array.for_all2 Float.equal a.Relation.values b.Relation.values
      && Bytes.equal a.Relation.nulls b.Relation.nulls
      && d.Relation.ids = e.Relation.ids)
    (List.init (Schema.arity (Relation.schema rel)) Fun.id)

let test_fresh_slots () =
  let parent = Pref_workload.Cars.relation ~seed:3 ~n:300 () in
  Relation.store parent;
  all_built parent;
  let schema = Relation.schema parent in
  let first = List.hd (Relation.rows parent) in
  let children =
    [
      ("select", Relation.select (fun t -> Tuple.get t 0 <> Value.Int 0) parent);
      ("restrict", Relation.restrict (fun t -> Tuple.get t 0 <> Value.Int 0) parent);
      ("distinct", Relation.distinct parent);
      ("sort_by", Relation.sort_by (fun a b -> Tuple.compare b a) parent);
      ("add_row", Relation.add_row parent first);
      ("make", Relation.make schema (Relation.rows parent));
    ]
    @ List.map (fun g -> ("group_by", g)) (Relation.group_by parent [ "make" ])
  in
  List.iter
    (fun (name, child) ->
      check (name ^ ": starts with empty slots") true (none_built child);
      check (name ^ ": builds its own columns") true (own_columns child))
    children;
  check "parent keeps its columns" true (own_columns parent && not (none_built parent));
  (* a record nobody stores publishes nothing: each build is its caller's *)
  let loose = Relation.make schema (Relation.rows parent) in
  all_built loose;
  check "unstored record keeps no columns" true (none_built loose);
  check "its builds are still its own" true (own_columns loose)

(* A restriction (a WHERE selection, a group, a group of a selection)
   names its origin version and its rows' positions there; every plan over
   positions reads the origin's columns and answers as the closure does
   over the restriction's own rows. *)
let test_restrictions () =
  let parent = Pref_workload.Cars.relation ~seed:5 ~n:3000 () in
  let schema = Relation.schema parent in
  (* only a stored version is restricted: other records select *)
  let keep t = Tuple.get t 0 <> Value.Int 0 in
  check "restrict of an unstored record has no origin" true
    (Relation.origin (Relation.restrict keep parent) = None);
  check "its groups have none either" true
    (List.for_all
       (fun g -> Relation.origin g = None)
       (Relation.group_by parent [ "make" ]));
  Relation.store parent;
  let prow = Relation.row_array parent in
  let where = Relation.restrict keep parent in
  let price = Schema.index_of_exn schema "price" in
  let cheap =
    Relation.restrict (fun t -> Value.compare (Tuple.get t price) (Value.Int 20000) < 0) where
  in
  let parts =
    [ ("where", where); ("where of where", cheap) ]
    @ List.map (fun g -> ("group", g)) (Relation.group_by parent [ "make" ])
    @ List.map (fun g -> ("group of where", g)) (Relation.group_by where [ "color"; "make" ])
  in
  let skyline = Pref.pareto (Pref.lowest "price") (Pref.lowest "mileage") in
  let p = Pref.prior skyline (Pref.pos "color" [ Value.Str "red" ]) in
  let plans =
    [
      (p, Planner.Plan_bnl);
      (p, Planner.Plan_naive);
      (p, Planner.Plan_par_dnc { domains = 2 });
      ( skyline,
        Planner.Plan_par_sfs
          { attrs = [ "price"; "mileage" ]; maximize = false; domains = 2 } );
    ]
  in
  List.iter
    (fun (name, part) ->
      (match Relation.origin part with
      | None -> Alcotest.fail (name ^ ": no origin")
      | Some (o, pos) ->
        check (name ^ ": origin is the stored version") true (o == parent);
        check (name ^ ": positions name its rows") true
          (List.equal ( == ) (Relation.rows part)
             (Array.to_list (Array.map (Array.get prow) pos))));
      List.iter
        (fun (p, plan) ->
          let expected = Bnl.maxima (Dominance.of_pref schema p) (Relation.rows part) in
          let got = Relation.rows (Planner.execute schema p part plan) in
          check
            (Printf.sprintf "%s: %s = closure BNL" name (Planner.plan_kind plan))
            true
            (List.length got = List.length expected
            && List.for_all (fun t -> List.exists (( == ) t) expected) got))
        plans;
      check (name ^ ": builds no columns of its own") true (none_built part))
    parts

(* Two domains compile σ on one fresh relation at once: both race to build
   the same columns, one copy is published, both answers are exact. *)
let test_concurrent_first_build () =
  let rel = Pref_workload.Cars.relation ~seed:9 ~n:4000 () in
  Relation.store rel;
  let schema = Relation.schema rel in
  let p =
    Pref.prior
      (Pref.pareto (Pref.lowest "price") (Pref.lowest "mileage"))
      (Pref.pos "color" [ Value.Str "red" ])
  in
  let expected = Bnl.maxima (Dominance.of_pref schema p) (Relation.rows rel) in
  let run () = Relation.rows (Planner.execute schema p rel Planner.Plan_bnl) in
  let d1 = Domain.spawn run and d2 = Domain.spawn run in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  check "first domain exact" true (List.equal Tuple.equal expected r1);
  check "second domain exact" true (List.equal Tuple.equal expected r2);
  let i = Schema.index_of_exn schema "price" in
  check "one column published" true
    (Relation.floats rel i == Relation.floats rel i && Relation.has_floats rel i)

(* ------------------------------------------------------------------ *)
(* Value.equal keys: GROUPING, DISTINCT, the join pushdown              *)

let gschema = Schema.make [ ("g", Value.TFloat); ("c", Value.TStr); ("x", Value.TInt) ]

let grel rows =
  Relation.make gschema
    (List.map (fun (g, c, x) -> Tuple.make [ g; c; Value.Int x ]) rows)

let f v = Value.Float v
let s v = Value.Str v

(* floats 6 significant digits alike, the string 'NULL' beside NULL,
   and Int 3 beside Float 3.0 *)
let near = grel [ (f 1234567.5, s "a", 1); (f 1234568.5, s "a", 2) ]
let null_str = grel [ (f 1., s "NULL", 1); (f 1., Value.Null, 2) ]
let widened = grel [ (Value.Int 3, s "a", 1); (f 3., s "a", 2) ]

let test_group_keys () =
  let sizes rel by = List.map Relation.cardinality (Relation.group_by rel by) in
  Alcotest.(check (list int)) "near floats are two groups" [ 1; 1 ] (sizes near [ "g" ]);
  Alcotest.(check (list int)) "'NULL' is not NULL" [ 1; 1 ] (sizes null_str [ "c" ]);
  Alcotest.(check (list int)) "Int 3 = Float 3.0" [ 2 ] (sizes widened [ "g" ]);
  Alcotest.(check (list int)) "two attributes refine" [ 1; 1 ]
    (sizes near [ "c"; "g" ]);
  let nan = grel [ (f Float.nan, s "a", 1); (f Float.nan, s "a", 2) ] in
  Alcotest.(check (list int)) "NaN ≠ NaN" [ 1; 1 ] (sizes nan [ "g" ]);
  (* past 256 classes the ids leave the byte layout *)
  let wide =
    grel (List.init 600 (fun k -> (f 0., s (string_of_int (k mod 300)), k)))
  in
  check "int ids past 256 classes" true
    (match (Relation.dict wide 1).Relation.ids with
    | Relation.Int_ids _ -> true
    | Relation.Byte_ids _ -> false);
  Alcotest.(check (list int)) "300 groups of 2" (List.init 300 (fun _ -> 2))
    (sizes wide [ "c" ]);
  (* GROUPING winnows each group (Def. 16), as the antichain form does *)
  let p = Pref.lowest "x" in
  List.iter
    (fun (name, rel, by, expect) ->
      let got, _ =
        Query.sigma_groupby_within ~deadline:Engine.no_deadline Engine.default
          gschema p ~by rel
      in
      Alcotest.(check (list int))
        (name ^ ": grouped winnow")
        expect
        (List.map (fun t -> match Tuple.get t 2 with Value.Int i -> i | _ -> -1)
           (Relation.rows got));
      check (name ^ ": equals Def. 16") true
        (Relation.equal_as_sets got (Groupby.query_via_antichain gschema p ~by rel)))
    [
      ("near", near, [ "g" ], [ 1; 2 ]);
      ("null string", null_str, [ "c" ], [ 1; 2 ]);
      ("widened", widened, [ "g" ], [ 1 ]);
    ]

let test_distinct_keys () =
  let proj rel = Relation.cardinality (Relation.project_distinct rel [ "g" ]) in
  Alcotest.(check int) "near floats stay distinct" 2 (proj near);
  Alcotest.(check int) "Int 3 = Float 3.0" 1 (proj widened);
  Alcotest.(check int) "'NULL' is not NULL" 2
    (Relation.cardinality (Relation.project_distinct null_str [ "c" ]))

(* The pushdown winnows the distinct projection onto attrs(P): the near
   floats must stay two projections, or HIGHEST keeps the wrong one, and
   rows with a NaN price (incomparable, so in the BMO set) must stay. *)
let test_pushdown_keys () =
  let price i =
    match i mod 4 with
    | 1 -> f 1234568.5
    | 3 -> f Float.nan
    | _ -> f 1234567.5
  in
  let t1 =
    Relation.make
      (Schema.make [ ("id", Value.TInt); ("price", Value.TFloat) ])
      (List.init 40 (fun i -> Tuple.make [ Value.Int i; price i ]))
  in
  let t2 =
    Relation.make
      (Schema.make [ ("tag", Value.TStr) ])
      (List.init 5 (fun i -> Tuple.make [ s (string_of_int i) ]))
  in
  let cfg =
    { Engine.default with algorithm = Engine.Alg_auto; profile = true }
  in
  let r =
    Pref_sql.Exec.run_cfg cfg
      [ ("t1", t1); ("t2", t2) ]
      "SELECT * FROM t1, t2 PREFERRING HIGHEST(price)"
  in
  Alcotest.(check (option string))
    "served by the pushdown" (Some "pushdown")
    (Option.map (fun p -> p.Pref_obs.Profile.algorithm) r.Pref_sql.Exec.profile);
  Alcotest.(check int) "20 ids x 5 tags" 100
    (Relation.cardinality r.Pref_sql.Exec.relation);
  check "the higher price or NaN" true
    (List.for_all
       (fun t ->
         match Tuple.get t 1 with
         | Value.Float p -> p = 1234568.5 || Float.is_nan p
         | _ -> false)
       (Relation.rows r.Pref_sql.Exec.relation))

let suite =
  [
    Gen.quick "leaf rules" test_leaf_rules;
    Gen.quick "derived records own their columns" test_fresh_slots;
    Gen.quick "restrictions read their origin's columns" test_restrictions;
    Gen.quick "two domains build one relation's columns" test_concurrent_first_build;
    Gen.quick "GROUPING keys by Value.equal" test_group_keys;
    Gen.quick "DISTINCT keys by Value.equal" test_distinct_keys;
    Gen.quick "join pushdown keys by Value.equal" test_pushdown_keys;
  ]
  @ Gen.qsuite [ keyed_agrees ]

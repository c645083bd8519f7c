(* Preference revision: the classifier on canonical forms, the session's
   REFINE served by the result cache's tiers (exact / prior-prefix / cold),
   REFINE after single-row DML, and a QCheck property checking that
   arbitrary revision sequences interleaved with DML always agree with a
   cache-off evaluation of the revised statement. *)

open Pref_relation
open Preferences
open Pref_engine

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Classifier                                                          *)

let test_classify () =
  let p = Pref.lowest "a" and q = Pref.highest "b" and r = Pref.lowest "d" in
  let kind = Alcotest.testable
      (fun ppf k -> Fmt.string ppf (Revise.kind_to_string k))
      (fun a b -> a = b)
  in
  let classify ~old_p ~new_p = Revise.classify ~old_p ~new_p in
  Alcotest.check kind "same term" Revise.Same (classify ~old_p:p ~new_p:p);
  (* canonical reordering of a Pareto never masks equality *)
  Alcotest.check kind "pareto commutes" Revise.Same
    (classify ~old_p:(Pref.pareto p q) ~new_p:(Pref.pareto q p));
  (* P' = P & S: the old prioritisation spine is a strict prefix *)
  Alcotest.check kind "prior suffix" Revise.Prior_suffix
    (classify ~old_p:p ~new_p:(Pref.prior p q));
  Alcotest.check kind "longer prior suffix" Revise.Prior_suffix
    (classify ~old_p:(Pref.prior p q) ~new_p:(Pref.prior (Pref.prior p q) r));
  (* P' = P ⊗ Q: the old Pareto operands are a strict subset *)
  Alcotest.check kind "pareto extend" Revise.Pareto_extend
    (classify ~old_p:p ~new_p:(Pref.pareto p q));
  Alcotest.check kind "pareto extend from pair" Revise.Pareto_extend
    (classify ~old_p:(Pref.pareto p q) ~new_p:(Pref.pareto (Pref.pareto p q) r));
  (* dropping operands is a contraction, whatever the operator *)
  Alcotest.check kind "prior contraction" Revise.Contraction
    (classify ~old_p:(Pref.prior p q) ~new_p:p);
  Alcotest.check kind "pareto contraction" Revise.Contraction
    (classify ~old_p:(Pref.pareto p q) ~new_p:p);
  Alcotest.check kind "unrelated" Revise.Disjoint
    (classify ~old_p:p ~new_p:q)

(* ------------------------------------------------------------------ *)
(* Session REFINE routes                                               *)

let cars_schema =
  Schema.make
    [ ("price", Value.TInt); ("power", Value.TInt); ("mileage", Value.TInt) ]

let car (p, w, m) = Tuple.make [ Value.Int p; Value.Int w; Value.Int m ]

let cars =
  Relation.make cars_schema
    (List.map car
       [
         (10_000, 100, 50_000);
         (12_000, 160, 20_000);
         (9_000, 90, 90_000);
         (20_000, 220, 10_000);
         (15_000, 160, 60_000);
         (9_000, 120, 70_000);
         (11_000, 140, 40_000);
       ])

let fresh_session () =
  Session.create ~env:[ ("cars", cars) ] ()

let cache_off = { Pref_bmo.Engine.default with cache = false }

let cold session sql =
  (Pref_sql.Exec.run_cfg cache_off (Session.env session) sql).Pref_sql.Exec.relation

let base_sql = "SELECT * FROM cars PREFERRING LOWEST(price)"

let test_refine_routes () =
  Gen.with_cache @@ fun () ->
  let session = fresh_session () in
  ignore (Session.run session base_sql);
  let refine term kind plan =
    let o = Session.refine session term in
    check_str (term ^ ": kind") (Revise.kind_to_string kind)
      (Revise.kind_to_string o.Revise.o_kind);
    check_str (term ^ ": served by") plan o.Revise.o_plan;
    check (term ^ ": exact") true
      (Relation.equal_as_sets o.Revise.o_result.Pref_sql.Exec.relation
         (cold session ("SELECT * FROM cars PREFERRING " ^ term)))
  in
  (* the same term: the base statement's cached answer *)
  refine "LOWEST(price)" Revise.Same "cache:exact";
  (* prior-suffix: the prior-prefix tier re-winnows the cached answer *)
  refine "LOWEST(price) PRIOR TO HIGHEST(power)" Revise.Prior_suffix
    "cache:semantic:prior-prefix";
  (* the revised statement became the session's last statement; its
     derived answer was not stored, so extending its Pareto finds no
     cached operand and runs cold *)
  refine "(LOWEST(price) PRIOR TO HIGHEST(power)) AND LOWEST(mileage)"
    Revise.Pareto_extend "bnl";
  (* an unrelated term: cold *)
  refine "HIGHEST(mileage)" Revise.Disjoint "bnl"

let test_refine_requires_statement () =
  let session = fresh_session () in
  let refuses what =
    check what true
      (try
         ignore (Session.refine session "LOWEST(price)");
         false
       with Pref_sql.Exec.Error _ -> true)
  in
  refuses "no previous statement raises";
  (* any statement with a preference arms REFINE, WHERE included *)
  ignore
    (Session.run session
       "SELECT * FROM cars WHERE price <= 15000 PREFERRING HIGHEST(power)");
  let o = Session.refine session "LOWEST(price)" in
  check "the WHERE clause is kept" true
    (Relation.equal_as_sets o.Revise.o_result.Pref_sql.Exec.relation
       (cold session "SELECT * FROM cars WHERE price <= 15000 PREFERRING LOWEST(price)"));
  (* a statement without a preference disarms it *)
  ignore (Session.run session "SELECT * FROM cars");
  refuses "a preference-free statement disarms refine"

let test_refine_after_dml () =
  Gen.with_cache @@ fun () ->
  let session = fresh_session () in
  ignore (Session.run session base_sql);
  (* DML through the session patches the cached answer and moves it to
     the new table version *)
  check_int "insert patches the cached answer" 1
    (Session.insert session "cars" (car (8_000, 80, 120_000)));
  (* deleting the new best match promotes the rows it alone dominated *)
  (match Session.delete session "cars" (car (8_000, 80, 120_000)) with
  | Some patched -> check_int "delete patches the cached answer" 1 patched
  | None -> Alcotest.fail "delete missed a present row");
  (match Session.delete session "cars" (car (9_000, 90, 90_000)) with
  | Some _ -> ()
  | None -> Alcotest.fail "delete missed a present row");
  let o = Session.refine session "LOWEST(price) PRIOR TO HIGHEST(power)" in
  check_str "served from the patched answer" "cache:semantic:prior-prefix"
    o.Revise.o_plan;
  check "patched answer stayed exact across DML" true
    (Relation.equal_as_sets o.Revise.o_result.Pref_sql.Exec.relation
       (cold session
          "SELECT * FROM cars PREFERRING LOWEST(price) PRIOR TO \
           HIGHEST(power)"));
  (* replacing the table wholesale keeps the statement: refine runs cold
     against the new table *)
  Session.add_table session "cars" cars;
  let o = Session.refine session "LOWEST(price)" in
  check "refine over the replaced table" true
    (Relation.equal_as_sets o.Revise.o_result.Pref_sql.Exec.relation
       (cold session base_sql))

let test_refine_explain () =
  Gen.with_cache @@ fun () ->
  let session = fresh_session () in
  ignore (Session.run session base_sql);
  let text =
    String.concat "\n"
      (Pref_bmo.Explain.Plan.to_text
         (Session.refine_explain session
            "LOWEST(price) PRIOR TO HIGHEST(power)"))
  in
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  check "plan has a refine operator" true (contains text "refine");
  check "plan names the class" true (contains text "prior-suffix");
  check "plan names the cache tier" true
    (contains text "cache(semantic:prior-prefix)")

(* ------------------------------------------------------------------ *)
(* Property: revision sequences interleaved with DML ≡ from scratch    *)

let atoms = [ "LOWEST(a)"; "HIGHEST(a)"; "LOWEST(b)"; "HIGHEST(b)"; "LOWEST(d)" ]

type step =
  | S_insert of Tuple.t
  | S_delete of Tuple.t
  | S_suffix of string  (* new term = prev PRIOR TO atom *)
  | S_pareto of string  (* new term = prev AND atom *)
  | S_fresh of string  (* unrelated / contracting term *)

let step_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun t -> S_insert t) Gen.tuple);
        (2, map (fun t -> S_delete t) Gen.tuple);
        (2, map (fun a -> S_suffix a) (oneofl atoms));
        (2, map (fun a -> S_pareto a) (oneofl atoms));
        (1, map (fun a -> S_fresh a) (oneofl atoms));
      ])

let pp_step ppf = function
  | S_insert t -> Fmt.pf ppf "insert %a" Tuple.pp t
  | S_delete t -> Fmt.pf ppf "delete %a" Tuple.pp t
  | S_suffix a -> Fmt.pf ppf "refine-suffix %s" a
  | S_pareto a -> Fmt.pf ppf "refine-pareto %s" a
  | S_fresh a -> Fmt.pf ppf "refine-fresh %s" a

let prop_refine_matches_cold =
  QCheck.Test.make ~count:120
    ~name:"Session.refine = from-scratch run over revision/DML sequences"
    (QCheck.make
       QCheck.Gen.(
         triple (oneofl atoms)
           (list_size (int_range 0 12) Gen.tuple)
           (list_size (int_range 1 10) step_gen))
       ~print:(fun (t0, rows, steps) ->
         Fmt.str "start %s, %d rows, [%a]" t0 (List.length rows)
           (Fmt.list ~sep:Fmt.semi pp_step)
           steps))
    (fun (t0, rows, steps) ->
      Gen.with_cache @@ fun () ->
      let session =
        Session.create ~env:[ ("t", Relation.make Gen.schema rows) ] ()
      in
      ignore (Session.run session ("SELECT * FROM t PREFERRING " ^ t0));
      let term = ref t0 in
      List.for_all
        (fun step ->
          match step with
          | S_insert t ->
            ignore (Session.insert session "t" t);
            true
          | S_delete t ->
            ignore (Session.delete session "t" t);
            true
          | S_suffix a | S_pareto a | S_fresh a ->
            let new_term =
              match step with
              | S_suffix _ -> Printf.sprintf "(%s) PRIOR TO %s" !term a
              | S_pareto _ -> Printf.sprintf "(%s) AND %s" !term a
              | _ -> a
            in
            term := new_term;
            let o = Session.refine session new_term in
            let expected =
              cold session ("SELECT * FROM t PREFERRING " ^ new_term)
            in
            Relation.equal_as_sets o.Revise.o_result.Pref_sql.Exec.relation
              expected)
        steps)

let suite =
  [
    Gen.quick "revise: classifier" test_classify;
    Gen.quick "revise: session routes" test_refine_routes;
    Gen.quick "revise: refine requires a preference statement"
      test_refine_requires_statement;
    Gen.quick "revise: refine after DML reuses the patched cache"
      test_refine_after_dml;
    Gen.quick "revise: EXPLAIN shows the refine node" test_refine_explain;
  ]
  @ Gen.qsuite [ prop_refine_matches_cold ]

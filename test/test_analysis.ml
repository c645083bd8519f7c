(* Static-analysis tests: one trigger per diagnostic code, fuzz soundness
   of the query checker against the executor (both directions), and a JSON
   report snapshot for the prefcheck --json payload. *)

open Pref_relation
open Preferences
open Pref_analysis
module A = Pref_sql.Ast
module Exec = Pref_sql.Exec
module G = QCheck.Gen

let codes ds = List.map (fun d -> d.Diagnostic.code) ds
let has code ds = List.mem code (codes ds)

let check_has name code ds =
  Alcotest.(check bool)
    (Printf.sprintf "%s reports %s (got: %s)" name code
       (String.concat "," (codes ds)))
    true (has code ds)

let check_has_not name code ds =
  Alcotest.(check bool)
    (Printf.sprintf "%s must not report %s (got: %s)" name code
       (String.concat "," (codes ds)))
    false (has code ds)

let find code ds = List.find (fun d -> d.Diagnostic.code = code) ds

let pref_testable = Alcotest.testable Show.pp Pref.equal

(* A fixed two-table environment: [r] over the shared test schema and a
   second table [s] so join paths get exercised. *)
let schema_s = Schema.make [ ("e", Value.TInt); ("f", Value.TStr) ]

let rel_r =
  Gen.rel
    [
      Tuple.make [ Value.Int 0; Value.Int 1; Value.Str "x"; Value.Float 0.5 ];
      Tuple.make [ Value.Int 2; Value.Int 3; Value.Str "y"; Value.Float 1.0 ];
    ]

let rel_s =
  Relation.make schema_s
    [
      Tuple.make [ Value.Int 0; Value.Str "x" ];
      Tuple.make [ Value.Int 2; Value.Str "w" ];
    ]

let env = [ ("r", rel_r); ("s", rel_s) ]

let q ?(select = [ A.Star ]) ?(from = [ "r" ]) ?where ?preferring
    ?(cascade = []) ?(but_only = []) ?(grouping = []) ?(order_by = []) ?top ()
    =
  {
    A.select;
    from;
    where;
    preferring;
    cascade;
    but_only;
    grouping;
    order_by;
    top;
  }

(* ------------------------------------------------------------------ *)
(* Term-level checks (raw terms bypass the smart constructors).        *)

let sx = Value.Str "x"
let sy = Value.Str "y"

let term_cases () =
  check_has "cyclic explicit" "E001"
    (Term_check.check (Pref.Explicit ("c", [ (sx, sy); (sy, sx) ])));
  check_has "overlapping pos/neg" "E002"
    (Term_check.check (Pref.Pos_neg ("c", [ sx ], [ sx ])));
  check_has "inverted between" "E003"
    (Term_check.check (Pref.Between ("a", 3.0, 1.0)));
  Alcotest.(check (option pref_testable))
    "between fixit swaps the bounds"
    (Some (Pref.between "a" ~low:1.0 ~up:3.0))
    (find "E003" (Term_check.check (Pref.Between ("a", 3.0, 1.0))))
      .Diagnostic.fixit;
  check_has "rank over non-scorable" "E004"
    (Term_check.check
       (Pref.Rank (Pref.weighted_sum 1.0 1.0, Pref.pos "c" [ sx ],
                   Pref.lowest "a")));
  check_has "inter attribute mismatch" "E005"
    (Term_check.check (Pref.Inter (Pref.lowest "a", Pref.lowest "b")));
  check_has "lsum over multi-attribute operand" "E006"
    (Term_check.check
       (Pref.Lsum
          {
            ls_attr = "m";
            ls_left = Pref.Pareto (Pref.lowest "a", Pref.lowest "b");
            ls_left_dom = [ Value.Int 0 ];
            ls_right = Pref.lowest "d";
            ls_right_dom = [ Value.Int 9 ];
          }))

let term_schema_cases () =
  check_has "unknown attribute" "E102"
    (Term_check.check ~schema:Gen.schema (Pref.lowest "zz"));
  check_has "numeric constructor on string column" "W014"
    (Term_check.check ~schema:Gen.schema (Pref.lowest "c"))

let term_law_cases () =
  check_has "dead prior operand" "W010"
    (Term_check.check (Pref.prior (Pref.lowest "a") (Pref.highest "a")));
  check_has "pareto on shared attributes" "W011"
    (Term_check.check
       (Pref.pareto (Pref.pos "c" [ sx ]) (Pref.neg "c" [ sy ])));
  check_has "root antichain is trivial" "W012"
    (Term_check.check (Pref.antichain [ "a" ]));
  check_has "dual pair collapses" "W012"
    (Term_check.check (Pref.pareto (Pref.lowest "a") (Pref.highest "a")));
  check_has "antichain pareto operand" "W013"
    (Term_check.check (Pref.pareto (Pref.antichain [ "a" ]) (Pref.lowest "b")));
  check_has "duplicate pareto operand" "H020"
    (Term_check.check (Pref.pareto (Pref.lowest "a") (Pref.lowest "a")));
  check_has "double dual" "H021"
    (Term_check.check (Pref.dual (Pref.dual (Pref.lowest "a"))));
  Alcotest.(check (option pref_testable))
    "double-dual fixit is the inner term"
    (Some (Pref.lowest "a"))
    (find "H021" (Term_check.check (Pref.dual (Pref.dual (Pref.lowest "a")))))
      .Diagnostic.fixit;
  check_has "rewritable dual" "H022"
    (Term_check.check (Pref.dual (Pref.lowest "a")));
  Alcotest.(check (option pref_testable))
    "dual(lowest) fixit is highest"
    (Some (Pref.highest "a"))
    (find "H022" (Term_check.check (Pref.dual (Pref.lowest "a"))))
      .Diagnostic.fixit

(* The compile-side twin of E004: the executor raises the same structured
   code the analyzer reports, so rejection messages line up. *)
let compile_parity () =
  let bad =
    Pref.Rank (Pref.weighted_sum 1.0 1.0, Pref.pos "c" [ sx ], Pref.lowest "a")
  in
  let t = Tuple.make [ Value.Int 0; Value.Int 1; sx; Value.Float 0.5 ] in
  match Pref.compile Gen.schema bad t t with
  | _ -> Alcotest.fail "compiling rank over POS did not raise"
  | exception Pref.Ill_formed { code; _ } ->
    Alcotest.(check string) "Ill_formed carries the analyzer code" "E004" code

(* Codes with no reachable trigger (defensive backstops) still live in the
   table so reports can name them. *)
let code_table () =
  List.iter
    (fun (code, slug, sev) ->
      Alcotest.(check string) code slug (Diagnostic.meaning code);
      Alcotest.(check bool) (code ^ " severity") true
        (Diagnostic.severity_of_code code = sev))
    [
      ("E007", "multi-attribute-base", Diagnostic.Error);
      ("E010", "construction-failure", Diagnostic.Error);
      ("H023", "simplifiable", Diagnostic.Hint);
    ]

(* ------------------------------------------------------------------ *)
(* Surface-syntax checks.                                              *)

let ast_pref_cases () =
  check_has "unknown scoring function" "E103"
    (Ast_check.check_pref (A.P_score ("a", "nosuch")));
  check_has "unknown combining function" "E104"
    (Ast_check.check_pref
       (A.P_rank ("nosuch", A.P_lowest "a", A.P_lowest "b")));
  check_has "non-numeric around bound" "E105"
    (Ast_check.check_pref (A.P_around ("a", Value.Str "oops")));
  check_has "cyclic explicit (surface)" "E001"
    (Ast_check.check_pref (A.P_explicit ("c", [ (sx, sy); (sy, sx) ])));
  check_has "rank over non-scorable (surface)" "E004"
    (Ast_check.check_pref
       (A.P_rank ("sum", A.P_pos ("c", [ sx ]), A.P_lowest "a")))

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let typo_suggestions () =
  let msg =
    (find "E103" (Ast_check.check_pref (A.P_score ("a", "negatee"))))
      .Diagnostic.message
  in
  Alcotest.(check bool)
    (Printf.sprintf "suggestion in %S" msg)
    true
    (contains ~needle:{|did you mean "negate"?|} msg)

let query_cases () =
  let run q = Ast_check.check_query ~env q in
  check_has "unknown table" "E101" (run (q ~from:[ "nope" ] ()));
  check_has "unknown attribute in preferring" "E102"
    (run (q ~preferring:(A.P_lowest "zz") ()));
  check_has "but only without preferring" "E106"
    (run (q ~but_only:[ A.Q_level ("a", A.Le, 2) ] ()));
  check_has "level over around base" "E107"
    (run
       (q
          ~preferring:(A.P_around ("a", Value.Int 2))
          ~but_only:[ A.Q_level ("a", A.Le, 1) ]
          ()));
  check_has "distance over lowest base" "E108"
    (run
       (q ~preferring:(A.P_lowest "a")
          ~but_only:[ A.Q_distance ("a", A.Le, 1.0) ]
          ()));
  check_has "star mixed with columns" "E109"
    (run (q ~select:[ A.Star; A.Column "a" ] ()));
  check_has "empty from" "E110" (run (q ~from:[] ()));
  check_has "duplicate table" "E112" (run (q ~from:[ "r"; "r" ] ()));
  (* [r, R] is a legal self-join: the executor qualifies columns with the
     written table name, so nothing collides *)
  check_has_not "case-differing self-join is legal" "E112"
    (run (q ~from:[ "r"; "R" ] ()));
  check_has "syntax error" "E111"
    (Ast_check.check_source ~env "SELECT WHERE nonsense");
  Alcotest.(check (list string))
    "clean query has no findings" []
    (codes (run (q ~preferring:(A.P_lowest "a") ())))

let xpath_cases () =
  let doc =
    Pref_xpath.Xml_parser.parse
      {|<CARS><CAR price="10" color="red"/></CARS>|}
  in
  check_has "unknown xml attribute" "W101"
    (Xpath_check.check_source ~doc {|/CARS/CAR #[(@nosuch) lowest]#|});
  check_has "unknown xml tag" "W102"
    (Xpath_check.check_source ~doc {|/CARS/NOPE #[(@price) lowest]#|});
  check_has "xpath syntax error" "E111" (Xpath_check.check_source "%%%");
  Alcotest.(check (list string))
    "clean path has no findings" []
    (codes (Xpath_check.check_source ~doc {|/CARS/CAR #[(@price) lowest]#|}))

(* ------------------------------------------------------------------ *)
(* Executor integration: ~check:true rejects on error findings.        *)

let exec_rejects () =
  Install.install ();
  (match Exec.run_cfg { Pref_bmo.Engine.default with check = true } env "SELECT * FROM r PREFERRING LOWEST(zz)" with
  | _ -> Alcotest.fail "checked run of a broken query did not raise"
  | exception Exec.Rejected findings ->
    Alcotest.(check bool)
      "rejection carries E102" true
      (List.exists (fun f -> f.Exec.check_code = "E102") findings));
  let result =
    Exec.run_cfg { Pref_bmo.Engine.default with check = true } env "SELECT * FROM r PREFERRING LOWEST(a)"
  in
  Alcotest.(check int)
    "checked run of a clean query still executes" 1
    (Relation.cardinality result.Exec.relation)

(* ------------------------------------------------------------------ *)
(* JSON snapshot of the prefcheck --json payload.                      *)

let json_snapshot () =
  let ds = Ast_check.check_source ~env "SELECT * FROM r PREFERRING LOWEST(zz)" in
  Alcotest.(check string)
    "report_json shape"
    {|{"source":"q1","errors":1,"warnings":0,"hints":0,"findings":[{"code":"E102","severity":"error","slug":"unknown-attribute","path":"preferring","message":"unknown attribute \"zz\""}]}|}
    (Pref_obs.Json.to_string (Diagnostic.report_json ~source:"q1" ds))

(* Every code in the table renders to JSON with its slug and severity. *)
let json_per_code () =
  List.iter
    (fun (code, slug) ->
      let d = Diagnostic.make ~path:[ "preferring" ] code "synthetic" in
      let json = Pref_obs.Json.to_string (Diagnostic.to_json d) in
      Alcotest.(check string)
        (code ^ " renders")
        (Printf.sprintf
           {|{"code":"%s","severity":"%s","slug":"%s","path":"preferring","message":"synthetic"}|}
           code
           (Diagnostic.severity_to_string (Diagnostic.severity_of_code code))
           slug)
        json)
    Diagnostic.codes

(* ------------------------------------------------------------------ *)
(* The v2 layers: satisfiability lints, data/workload flow checks and
   shard-aware classification.                                         *)

(* rel_r has two rows with a = 0, 2 (pairwise distinct) and b = 1, 3. *)
let sat_cases () =
  check_has "duplicate set values" "H201"
    (Term_check.check (Pref.Pos ("c", [ sx; sx; sy ])));
  check_has "explicit edges type-incompatible with the column" "W201"
    (Term_check.check ~schema:Gen.schema
       (Pref.Explicit ("c", [ (Value.Int 1, Value.Int 2) ])));
  check_has "no integer between fractional bounds" "W202"
    (Term_check.check ~schema:Gen.schema (Pref.Between ("a", 10.2, 10.8)));
  check_has "pareto operands want disjoint zones" "W203"
    (Term_check.check
       (Pref.Pareto
          (Pref.Between ("a", 0., 1.), Pref.Between ("a", 5., 6.))));
  check_has "pos subset of sibling neg" "W203"
    (Term_check.check
       (Pref.Pareto (Pref.Pos ("c", [ sx ]), Pref.Neg ("c", [ sx; sy ]))));
  check_has_not "satisfiable zones stay quiet" "W203"
    (Term_check.check
       (Pref.Pareto
          (Pref.Between ("a", 0., 5.), Pref.Between ("a", 3., 6.))))

(* [dup] repeats a = 0, so a LOWEST(a) prefix does not discriminate. *)
let rel_dup =
  Gen.rel
    [
      Tuple.make [ Value.Int 0; Value.Int 1; Value.Str "x"; Value.Float 0.5 ];
      Tuple.make [ Value.Int 0; Value.Int 3; Value.Str "y"; Value.Float 1.0 ];
    ]

let flow_env =
  ("empty", Relation.make Gen.schema []) :: ("dup", rel_dup) :: env

let flow_cases () =
  let run query = Flow_check.check_query ~env:flow_env query in
  check_has "conflicting WHERE bounds" "W210"
    (run
       (q
          ~where:
            (A.And
               (A.Cmp ("a", A.Gt, Value.Int 5), A.Cmp ("a", A.Lt, Value.Int 3)))
          ()));
  check_has "between covering every row is a total winnow" "W211"
    (run (q ~preferring:(A.P_between ("a", Value.Int 0, Value.Int 100)) ()));
  check_has "empty table" "W212"
    (run (q ~from:[ "empty" ] ~preferring:(A.P_lowest "a") ()));
  check_has "distinct prefix shadows the suffix" "W220"
    (run
       (q ~preferring:(A.P_prior (A.P_lowest "a", A.P_lowest "b")) ()));
  check_has_not "non-discriminating prefix keeps its suffix" "W220"
    (run
       (q ~from:[ "dup" ]
          ~preferring:(A.P_prior (A.P_lowest "a", A.P_lowest "b"))
          ()));
  check_has_not "clean query stays clean" "W211"
    (run (q ~preferring:(A.P_lowest "a") ()))

let workload ss =
  List.concat_map snd
    (Flow_check.check_statements ~env
       (List.mapi (fun i s -> (Printf.sprintf "w:%d" (i + 1), s)) ss))

let workload_cases () =
  check_has "unknown SET knob" "E210" (workload [ "SET warp = 9" ]);
  check_has "SET overwritten before any query" "W222"
    (workload
       [ "SET algorithm = bnl"; "SET algorithm = naive"; "SELECT * FROM r" ]);
  check_has "repeated statement" "W221"
    (workload
       [
         "SELECT * FROM r PREFERRING LOWEST(a)";
         "SELECT * FROM r PREFERRING LOWEST(a)";
       ]);
  check_has "refinement reuses the earlier prefix" "H210"
    (workload
       [
         "SELECT * FROM r PREFERRING LOWEST(a)";
         "SELECT * FROM r PREFERRING LOWEST(a) PRIOR TO LOWEST(b)";
       ]);
  Alcotest.(check int)
    "reports align 1:1 with statements" 3
    (List.length
       (Flow_check.check_statements ~env
          [ ("1", "SET cache = on"); ("2", "SELECT * FROM r"); ("3", "zzz") ]))

let shard_cases () =
  let specs ss = snd (Shard_check.check_specs ~env ss) in
  check_has "shard key not in the table" "E201" (specs [ "r=hash:zz" ]);
  check_has "non-numeric range bounds" "E202" (specs [ "r=range:a:x,y" ]);
  check_has "duplicate shard table" "E203" (specs [ "r=hash:a"; "r=hash:b" ]);
  let classify ss query =
    Shard_check.classify ~shard_map:(fst (Shard_check.check_specs ~env ss))
      query
  in
  check_has "join of two sharded tables" "E220"
    (classify [ "r=hash:a"; "s=hash:e" ] (q ~from:[ "r"; "s" ] ()));
  check_has "unsharded table proxies" "H222" (classify [ "r=hash:a" ] (q ~from:[ "s" ] ()));
  check_has "scatter without preference is exact" "H220"
    (classify [ "r=hash:a" ] (q ()));
  check_has "scatter with preference needs the final winnow" "H221"
    (classify [ "r=hash:a" ] (q ~preferring:(A.P_lowest "b") ()));
  check_has "merge-skipped scatter with preference is placement-fragile"
    "W223"
    (classify [ "r=hash:a" ]
       (q ~preferring:(A.P_lowest "b") ~grouping:[ "a" ] ()))

(* Completeness: every code in the registry must have a live trigger —
   adding a code to the table without a way to raise it is a bug. The
   only exceptions are the defensive codes (structurally unreachable
   through the public constructors / checkers). *)
let completeness () =
  let xdoc =
    Pref_xpath.Xml_parser.parse {|<CARS><CAR price="10" color="red"/></CARS>|}
  in
  let term p () = Term_check.check p in
  let term_s p () = Term_check.check ~schema:Gen.schema p in
  let pref p () = Ast_check.check_pref p in
  let query qq () = Ast_check.check_query ~env qq in
  let source s () = Ast_check.check_source ~env s in
  let xpath s () = Xpath_check.check_source ~doc:xdoc s in
  let flow qq () = Flow_check.check_query ~env:flow_env qq in
  let specs ss () = snd (Shard_check.check_specs ~env ss) in
  let classify ss qq () =
    Shard_check.classify ~shard_map:(fst (Shard_check.check_specs ~env ss)) qq
  in
  let triggers =
    [
      ("E001", term (Pref.Explicit ("c", [ (sx, sy); (sy, sx) ])));
      ("E002", term (Pref.Pos_neg ("c", [ sx ], [ sx ])));
      ("E003", term (Pref.Between ("a", 3.0, 1.0)));
      ( "E004",
        pref (A.P_rank ("sum", A.P_pos ("c", [ sx ]), A.P_lowest "a")) );
      ("E005", term (Pref.Inter (Pref.lowest "a", Pref.lowest "b")));
      ( "E006",
        term
          (Pref.Lsum
             {
               ls_attr = "m";
               ls_left = Pref.Pareto (Pref.lowest "a", Pref.lowest "b");
               ls_left_dom = [ Value.Int 0 ];
               ls_right = Pref.lowest "d";
               ls_right_dom = [ Value.Int 9 ];
             }) );
      ("E101", query (q ~from:[ "nope" ] ()));
      ("E102", query (q ~preferring:(A.P_lowest "zz") ()));
      ("E103", pref (A.P_score ("a", "nosuch")));
      ("E104", pref (A.P_rank ("nosuch", A.P_lowest "a", A.P_lowest "b")));
      ("E105", pref (A.P_around ("a", Value.Str "oops")));
      ("E106", query (q ~but_only:[ A.Q_level ("a", A.Le, 2) ] ()));
      ( "E107",
        query
          (q
             ~preferring:(A.P_around ("a", Value.Int 2))
             ~but_only:[ A.Q_level ("a", A.Le, 1) ]
             ()) );
      ( "E108",
        query
          (q ~preferring:(A.P_lowest "a")
             ~but_only:[ A.Q_distance ("a", A.Le, 1.0) ]
             ()) );
      ("E109", query (q ~select:[ A.Star; A.Column "a" ] ()));
      ("E110", query (q ~from:[] ()));
      ("E111", source "SELECT WHERE nonsense");
      ("E112", query (q ~from:[ "r"; "r" ] ()));
      ("E201", specs [ "r=hash:zz" ]);
      ("E202", specs [ "r=range:a:x,y" ]);
      ("E203", specs [ "r=hash:a"; "r=hash:b" ]);
      ( "E210",
        fun () -> workload [ "SET warp = 9" ] );
      ("E220", classify [ "r=hash:a"; "s=hash:e" ] (q ~from:[ "r"; "s" ] ()));
      ("W010", term (Pref.prior (Pref.lowest "a") (Pref.highest "a")));
      ( "W011",
        term (Pref.pareto (Pref.pos "c" [ sx ]) (Pref.neg "c" [ sy ])) );
      ("W012", term (Pref.antichain [ "a" ]));
      ( "W013",
        term (Pref.pareto (Pref.antichain [ "a" ]) (Pref.lowest "b")) );
      ("W014", term_s (Pref.lowest "c"));
      ("W101", xpath {|/CARS/CAR #[(@nosuch) lowest]#|});
      ("W102", xpath {|/CARS/NOPE #[(@price) lowest]#|});
      ( "W201",
        term_s (Pref.Explicit ("c", [ (Value.Int 1, Value.Int 2) ])) );
      ("W202", term_s (Pref.Between ("a", 10.2, 10.8)));
      ( "W203",
        term
          (Pref.Pareto (Pref.Between ("a", 0., 1.), Pref.Between ("a", 5., 6.)))
      );
      ( "W210",
        flow
          (q
             ~where:
               (A.And
                  ( A.Cmp ("a", A.Gt, Value.Int 5),
                    A.Cmp ("a", A.Lt, Value.Int 3) ))
             ()) );
      ( "W211",
        flow (q ~preferring:(A.P_between ("a", Value.Int 0, Value.Int 100)) ())
      );
      ("W212", flow (q ~from:[ "empty" ] ~preferring:(A.P_lowest "a") ()));
      ( "W220",
        flow (q ~preferring:(A.P_prior (A.P_lowest "a", A.P_lowest "b")) ()) );
      ( "W221",
        fun () ->
          workload
            [
              "SELECT * FROM r PREFERRING LOWEST(a)";
              "SELECT * FROM r PREFERRING LOWEST(a)";
            ] );
      ( "W222",
        fun () ->
          workload
            [
              "SET algorithm = bnl"; "SET algorithm = naive"; "SELECT * FROM r";
            ] );
      ( "W223",
        classify [ "r=hash:a" ]
          (q ~preferring:(A.P_lowest "b") ~grouping:[ "a" ] ()) );
      ("H020", term (Pref.pareto (Pref.lowest "a") (Pref.lowest "a")));
      ("H021", term (Pref.dual (Pref.dual (Pref.lowest "a"))));
      ("H022", term (Pref.dual (Pref.lowest "a")));
      ("H201", term (Pref.Pos ("c", [ sx; sx ])));
      ( "H210",
        fun () ->
          workload
            [
              "SELECT * FROM r PREFERRING LOWEST(a)";
              "SELECT * FROM r PREFERRING LOWEST(a) PRIOR TO LOWEST(b)";
            ] );
      ("H220", classify [ "r=hash:a" ] (q ()));
      ("H221", classify [ "r=hash:a" ] (q ~preferring:(A.P_lowest "b") ()));
      ("H222", classify [ "r=hash:a" ] (q ~from:[ "s" ] ()));
    ]
  in
  (* defensive codes: emitted only from internal invariants the public
     surface cannot violate (E007/E010), or a fallback shadowed by more
     specific lints at every known instance (H023) *)
  let defensive = [ "E007"; "E010"; "H023" ] in
  List.iter
    (fun (code, _slug) ->
      if not (List.mem code defensive) then
        match List.assoc_opt code triggers with
        | None -> Alcotest.failf "no trigger registered for %s" code
        | Some t -> check_has ("trigger for " ^ code) code (t ()))
    Diagnostic.codes;
  List.iter
    (fun (code, _) ->
      Alcotest.(check bool)
        (code ^ " is a registered code")
        true
        (List.mem_assoc code Diagnostic.codes))
    triggers

(* ------------------------------------------------------------------ *)
(* Fuzz soundness: random (frequently ill-formed) queries against the
   two-table environment. Error findings and execution failures must
   agree in both directions; E107/E108 fire on the first tuple reaching
   the BUT ONLY filter, so an empty result may mask them. *)

let attr =
  G.frequency
    [ (8, G.oneofl [ "a"; "b"; "c"; "d" ]); (2, G.oneofl [ "e"; "f" ]);
      (1, G.return "zz"); (1, G.oneofl [ "r.a"; "s.e" ]) ]

let lit =
  G.oneof
    [
      G.map (fun i -> Value.Int i) (G.int_range 0 4);
      G.map (fun s -> Value.Str s) (G.oneofl [ "x"; "y"; "z" ]);
      G.map (fun f -> Value.Float f) (G.oneofl [ 0.0; 1.0; 2.5 ]);
    ]

let lits = G.list_size (G.int_range 0 3) lit
let score_name = G.oneofl [ "identity"; "negate"; "length"; "nosuch" ]
let combine_name = G.oneofl [ "sum"; "min"; "max"; "product"; "nosuch" ]

let base_pref_g =
  G.oneof
    [
      G.map2 (fun a vs -> A.P_pos (a, vs)) attr lits;
      G.map2 (fun a vs -> A.P_neg (a, vs)) attr lits;
      G.map3 (fun a p n -> A.P_pos_neg (a, p, n)) attr lits lits;
      G.map3 (fun a p1 p2 -> A.P_pos_pos (a, p1, p2)) attr lits lits;
      G.map2 (fun a v -> A.P_around (a, v)) attr lit;
      G.map3 (fun a l u -> A.P_between (a, l, u)) attr lit lit;
      G.map (fun a -> A.P_lowest a) attr;
      G.map (fun a -> A.P_highest a) attr;
      G.map2
        (fun a es -> A.P_explicit (a, es))
        attr
        (G.list_size (G.int_range 0 3) (G.pair lit lit));
      G.map2 (fun a s -> A.P_score (a, s)) attr score_name;
    ]

let rec pref_g n =
  if n <= 0 then base_pref_g
  else
    G.frequency
      [
        (4, base_pref_g);
        (2, G.map2 (fun p q -> A.P_pareto (p, q)) (pref_g (n / 2))
              (pref_g (n / 2)));
        (2, G.map2 (fun p q -> A.P_prior (p, q)) (pref_g (n / 2))
              (pref_g (n / 2)));
        (1, G.map (fun p -> A.P_dual p) (pref_g (n - 1)));
        (1, G.map3 (fun f p q -> A.P_rank (f, p, q)) combine_name
              (pref_g (n / 2)) (pref_g (n / 2)));
      ]

let cond_leaf =
  G.oneof
    [
      G.map3
        (fun a op v -> A.Cmp (a, op, v))
        attr
        (G.oneofl [ A.Eq; A.Neq; A.Lt; A.Le; A.Gt; A.Ge ])
        lit;
      G.map2 (fun a b -> A.Cmp_attr (a, A.Eq, b)) attr attr;
      G.map2 (fun a vs -> A.In (a, vs)) attr lits;
      G.map2 (fun a vs -> A.Not_in (a, vs)) attr lits;
      G.map3 (fun a l u -> A.Between_cond (a, l, u)) attr lit lit;
      G.map2 (fun a p -> A.Like (a, p)) attr (G.oneofl [ "x%"; "_"; "%z" ]);
      G.map (fun a -> A.Is_null a) attr;
      G.map (fun a -> A.Is_not_null a) attr;
    ]

let cond_g =
  G.oneof
    [
      cond_leaf;
      G.map2 (fun c d -> A.And (c, d)) cond_leaf cond_leaf;
      G.map2 (fun c d -> A.Or (c, d)) cond_leaf cond_leaf;
      G.map (fun c -> A.Not c) cond_leaf;
    ]

let quality_g =
  G.oneof
    [
      G.map2 (fun a k -> A.Q_level (a, A.Le, k)) attr (G.int_range 0 3);
      G.map2
        (fun a d -> A.Q_distance (a, A.Le, float_of_int d))
        attr (G.int_range 0 3);
    ]

let query_g =
  let select_g =
    G.frequency
      [
        (5, G.return [ A.Star ]);
        (3, G.map (fun a -> [ A.Column a ]) attr);
        (1, G.return [ A.Star; A.Column "a" ]);
      ]
  in
  let from_g =
    G.frequency
      [
        (8, G.return [ "r" ]);
        (3, G.return [ "r"; "s" ]);
        (1, G.return [ "nope" ]);
        (1, G.return [ "r"; "R" ]);
        (1, G.return []);
      ]
  in
  let grouping_g =
    G.frequency [ (5, G.return []); (1, G.map (fun a -> [ a ]) attr) ]
  in
  let order_g =
    G.frequency
      [ (4, G.return []); (1, G.map (fun a -> [ (a, true) ]) attr) ]
  in
  let top_g =
    G.frequency
      [ (4, G.return None); (1, G.map (fun k -> Some k) (G.int_range 1 4)) ]
  in
  G.map2
    (fun (select, from, where, preferring)
         (cascade, but_only, grouping, (order_by, top)) ->
      {
        A.select;
        from;
        where;
        preferring;
        cascade;
        but_only;
        grouping;
        order_by;
        top;
      })
    (G.quad select_g from_g (G.option cond_g) (G.option (pref_g 3)))
    (G.quad
       (G.list_size (G.int_range 0 2) (pref_g 2))
       (G.list_size (G.int_range 0 2) quality_g)
       grouping_g (G.pair order_g top_g))

let tuple_s =
  G.map2
    (fun e f -> Tuple.make [ e; f ])
    (G.oneofl Gen.int_values) (G.oneofl Gen.str_values)

let arb_query_env =
  QCheck.make
    (G.triple query_g Gen.rows (G.list_size (G.int_range 0 8) tuple_s))
    ~print:(fun (query, _, _) -> Pref_sql.Pretty.query_to_string query)

let fuzz_soundness =
  QCheck.Test.make ~count:500 ~name:"error findings <=> execution failure"
    arb_query_env
    (fun (query, rows_r, rows_s) ->
      let env =
        [ ("r", Gen.rel rows_r); ("s", Relation.make schema_s rows_s) ]
      in
      let errors =
        List.filter Diagnostic.is_error (Ast_check.check_query ~env query)
      in
      match
        Exec.run_query_within ~deadline:Pref_bmo.Engine.no_deadline
          Pref_bmo.Engine.default env query
      with
      | result ->
        errors = []
        || (List.for_all
              (fun d ->
                d.Diagnostic.code = "E107" || d.Diagnostic.code = "E108")
              errors
           && Relation.cardinality result.Exec.relation = 0)
      | exception _ -> errors <> [])

(* The term checker must never raise, whatever raw term comes in. *)
let term_check_total =
  QCheck.Test.make ~count:300 ~name:"term checker never raises" Gen.arb_pref
    (fun p ->
      ignore (Term_check.check ~schema:Gen.schema p);
      ignore (Term_check.check (Pref.Dual p));
      true)

(* The shard classification must agree with the router's own planner:
   exactly one finding per statement, and its code mirrors the plan-time
   accept/reject/merge decision. *)
let shard_classify_agrees =
  let shard_map = fst (Shard_check.check_specs [ "r=hash:a" ]) in
  QCheck.Test.make ~count:300
    ~name:"shard classification agrees with the router's plan" arb_query_env
    (fun (query, _, _) ->
      match
        (Pref_router.Merge.plan ~shard_map query,
         codes (Shard_check.classify ~shard_map query))
      with
      | Error _, [ "E220" ] -> true
      | Ok Pref_router.Merge.Proxy, [ "H222" ] -> true
      | Ok (Pref_router.Merge.Scatter d), [ code ] ->
        if d.Pref_router.Merge.merge_needed then code = "H221"
        else if query.A.preferring <> None || query.A.cascade <> [] then
          code = "W223"
        else code = "H220"
      | _ -> false)

let suite =
  [
    Gen.quick "term side conditions" term_cases;
    Gen.quick "term schema findings" term_schema_cases;
    Gen.quick "term law findings" term_law_cases;
    Gen.quick "compile raises the analyzer code" compile_parity;
    Gen.quick "defensive codes stay in the table" code_table;
    Gen.quick "surface pref findings" ast_pref_cases;
    Gen.quick "typo suggestions" typo_suggestions;
    Gen.quick "query findings" query_cases;
    Gen.quick "xpath findings" xpath_cases;
    Gen.quick "checked execution rejects errors" exec_rejects;
    Gen.quick "json report snapshot" json_snapshot;
    Gen.quick "every code renders to json" json_per_code;
    Gen.quick "satisfiability findings" sat_cases;
    Gen.quick "data-flow findings" flow_cases;
    Gen.quick "workload findings" workload_cases;
    Gen.quick "shard findings" shard_cases;
    Gen.quick "every registered code has a trigger" completeness;
  ]
  @ Gen.qsuite [ fuzz_soundness; term_check_total; shard_classify_agrees ]

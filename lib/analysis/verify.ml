open Preferences
open Pref_relation

type failure = {
  f_section : string;
  f_rule : string;
  f_term : Pref.t;
  f_rewritten : Pref.t option;
  f_relation : Relation.t;
  f_detail : string;
}

type section = {
  s_name : string;
  s_rules : int;
  s_cases : int;
  s_failures : failure list;
}

type report = { sections : section list; elapsed_ms : float; scope : string }

let broken_rule_hook : (Pref.t -> Pref.t option) ref = ref (fun _ -> None)

(* ------------------------------------------------------------------ *)
(* The small scope                                                     *)

let schema = Schema.make [ ("a", Value.TInt); ("b", Value.TInt) ]
let domain = [ 0; 1; 2 ]

let universe =
  List.concat_map
    (fun a -> List.map (fun b -> Tuple.make [ Value.Int a; Value.Int b ]) domain)
    domain

(* All ordered sublists of [universe] with at most [max_rows] elements,
   produced in increasing size — the first failing relation is minimal. *)
let relations max_rows =
  let rec subsets k = function
    | _ when k = 0 -> [ [] ]
    | [] -> [ [] ]
    | x :: rest ->
      subsets k rest @ List.map (fun s -> x :: s) (subsets (k - 1) rest)
  in
  let all = subsets max_rows universe in
  let sized = List.map (fun rows -> (List.length rows, rows)) all in
  List.stable_sort (fun (n1, _) (n2, _) -> compare n1 n2) sized
  |> List.map (fun (_, rows) -> Relation.make schema rows)

let bmo p rel = Pref_bmo.Naive.query schema p rel

(* ------------------------------------------------------------------ *)
(* Equivalence checking                                                *)

let pp_rows rel =
  List.map
    (fun t -> Fmt.str "  (%a)" Fmt.(list ~sep:comma Value.pp) (Tuple.to_list t))
    (Relation.rows rel)

(* Definition 13 equivalence on the tuple universe: lt must agree on
   every pair. A disagreeing pair is itself a 2-row counterexample. *)
let order_counterexample p q =
  let exception Found of Tuple.t * Tuple.t * bool * bool in
  try
    List.iter
      (fun x ->
        List.iter
          (fun y ->
            let lp = Pref.lt schema p x y and lq = Pref.lt schema q x y in
            if lp <> lq then raise (Found (x, y, lp, lq)))
          universe)
      universe;
    None
  with Found (x, y, lp, lq) ->
    Some
      ( Relation.make schema [ x; y ],
        Fmt.str "lt(%a, %a) is %b under the original but %b under the rewrite"
          Tuple.pp x Tuple.pp y lp lq )

let bmo_counterexample rels p q =
  List.find_map
    (fun rel ->
      let rp = bmo p rel and rq = bmo q rel in
      if Relation.equal_as_sets rp rq then None
      else
        Some
          ( rel,
            Fmt.str "BMO sets differ: {%s} vs {%s}"
              (String.concat "; " (List.map String.trim (pp_rows rp)))
              (String.concat "; " (List.map String.trim (pp_rows rq))) ))
    rels

(* ------------------------------------------------------------------ *)
(* Section 1: Rewrite.step rules                                       *)

let a0 = Value.Int 0
let a1 = Value.Int 1
let a2 = Value.Int 2

let lsum_term =
  Pref.lsum ~attr:"a"
    (Pref.pos "a" [ a0 ], [ a0; a1 ])
    (Pref.pos "a" [ a2 ], [ a2 ])

(* One term per Rewrite.step rule; the verifier fails if an entry stops
   firing, so the catalog and the rule set cannot drift apart. *)
let rewrite_catalog =
  [
    ("dual-dual", Pref.Dual (Pref.Dual (Pref.lowest "a")));
    ("dual-lowest", Pref.Dual (Pref.lowest "a"));
    ("dual-highest", Pref.Dual (Pref.highest "a"));
    ("dual-pos", Pref.Dual (Pref.pos "a" [ a0 ]));
    ("dual-neg", Pref.Dual (Pref.neg "a" [ a0 ]));
    ("dual-antichain", Pref.Dual (Pref.antichain [ "a" ]));
    ("dual-lsum", Pref.Dual lsum_term);
    ("inter-idempotent", Pref.Inter (Pref.lowest "a", Pref.lowest "a"));
    ("inter-dual-pair", Pref.Inter (Pref.lowest "a", Pref.highest "a"));
    ( "inter-antichain-right",
      Pref.Inter (Pref.lowest "a", Pref.antichain [ "a" ]) );
    ( "inter-antichain-left",
      Pref.Inter (Pref.antichain [ "a" ], Pref.lowest "a") );
    ("prior-idempotent", Pref.Prior (Pref.lowest "a", Pref.lowest "a"));
    ("prior-dual-pair", Pref.Prior (Pref.lowest "a", Pref.highest "a"));
    ( "prior-antichain-absorbed",
      Pref.Prior (Pref.lowest "a", Pref.antichain [ "a" ]) );
    ( "prior-antichain-blocks",
      Pref.Prior (Pref.antichain [ "a" ], Pref.lowest "a") );
    ("prior-covered-4a", Pref.Prior (Pref.pos "a" [ a0 ], Pref.highest "a"));
    ("pareto-idempotent", Pref.Pareto (Pref.lowest "a", Pref.lowest "a"));
    ("pareto-dual-pair", Pref.Pareto (Pref.lowest "a", Pref.highest "a"));
    ( "pareto-antichain-left",
      Pref.Pareto (Pref.antichain [ "a" ], Pref.lowest "b") );
    ( "pareto-antichain-right",
      Pref.Pareto (Pref.lowest "b", Pref.antichain [ "a" ]) );
    ("pareto-shared-attrs-6", Pref.Pareto (Pref.pos "a" [ a0 ], Pref.neg "a" [ a1 ]));
    ( "dunion-antichain-right",
      Pref.Dunion (Pref.pos "a" [ a0; a1 ], Pref.antichain [ "a" ]) );
    ( "dunion-antichain-left",
      Pref.Dunion (Pref.antichain [ "a" ], Pref.pos "a" [ a0; a1 ]) );
  ]

(* Extra terms the injected-rule hook is applied to: shapes on which a
   plausible-but-wrong rule (e.g. "P & Q => P") actually differs. *)
let hook_pool =
  List.map snd rewrite_catalog
  @ [
      Pref.Prior (Pref.lowest "a", Pref.lowest "b");
      Pref.Pareto (Pref.lowest "a", Pref.highest "b");
      Pref.Inter (Pref.pos "a" [ a0 ], Pref.neg "a" [ a2 ]);
      Pref.Dunion (Pref.pos "a" [ a0 ], Pref.pos "a" [ a2 ]);
    ]

let check_equiv ~section ~rule rels p q failures =
  match order_counterexample p q with
  | Some (rel, detail) ->
    failures :=
      {
        f_section = section;
        f_rule = rule;
        f_term = p;
        f_rewritten = Some q;
        f_relation = rel;
        f_detail = detail;
      }
      :: !failures
  | None -> (
    match bmo_counterexample rels p q with
    | Some (rel, detail) ->
      failures :=
        {
          f_section = section;
          f_rule = rule;
          f_term = p;
          f_rewritten = Some q;
          f_relation = rel;
          f_detail = detail;
        }
        :: !failures
    | None -> ())

let rewrite_section rels =
  let failures = ref [] in
  let cases = ref 0 in
  List.iter
    (fun (rule, term) ->
      match Rewrite.step term with
      | None ->
        failures :=
          {
            f_section = "rewrite";
            f_rule = rule;
            f_term = term;
            f_rewritten = None;
            f_relation = Relation.empty schema;
            f_detail =
              "catalogued rule did not fire: Rewrite.step returned None \
               (catalog and rule set have drifted apart)";
          }
          :: !failures
      | Some q ->
        cases := !cases + List.length rels;
        check_equiv ~section:"rewrite" ~rule rels term q failures)
    rewrite_catalog;
  let injected =
    List.filter_map
      (fun term ->
        match !broken_rule_hook term with
        | Some q -> Some (term, q)
        | None -> None)
      hook_pool
  in
  List.iter
    (fun (term, q) ->
      cases := !cases + List.length rels;
      check_equiv ~section:"rewrite" ~rule:"injected" rels term q failures)
    injected;
  {
    s_name = "rewrite";
    s_rules = List.length rewrite_catalog + (if injected = [] then 0 else 1);
    s_cases = !cases;
    s_failures = List.rev !failures;
  }

(* ------------------------------------------------------------------ *)
(* Section 2: the Constraints prover                                   *)

let v7 = Value.Int 7
let v8 = Value.Int 8

(* One term per prover rule; every entry must produce at least one proof
   somewhere in the enumerated scope, and every proof must be true. *)
let constraints_catalog =
  [
    ("constancy", Pref.around "a" 1.);
    ("antichain", Pref.antichain [ "a" ]);
    ("dual", Pref.dual (Pref.pos "a" [ v7 ]));
    ("pos-none-in-set", Pref.pos "a" [ v7 ]);
    ("pos-all-in-set", Pref.pos "a" [ a0; a1; a2 ]);
    ("neg", Pref.neg "a" [ v7 ]);
    ("pos-neg", Pref.pos_neg "a" ~pos:[ v7 ] ~neg:[ v8 ]);
    ("pos-pos", Pref.pos_pos "a" ~pos1:[ v7 ] ~pos2:[ v8 ]);
    ("explicit", Pref.explicit "a" [ (v7, v8) ]);
    ("between", Pref.between "a" ~low:(-1.) ~up:3.);
    ("pareto", Pref.pareto (Pref.pos "a" [ v7 ]) (Pref.neg "b" [ v8 ]));
    ("prior", Pref.prior (Pref.pos "a" [ v7 ]) (Pref.neg "b" [ v8 ]));
    ("dunion", Pref.dunion (Pref.pos "a" [ v7 ]) (Pref.pos "a" [ v8 ]));
    ("inter", Pref.inter (Pref.pos "a" [ v7 ]) (Pref.lowest "a"));
  ]

let constraints_section rels =
  let failures = ref [] in
  let cases = ref 0 in
  List.iter
    (fun (rule, term) ->
      let fired = ref 0 in
      List.iter
        (fun rel ->
          incr cases;
          match Constraints.redundant schema term rel with
          | None -> ()
          | Some reason ->
            incr fired;
            let res = bmo term rel in
            if not (Relation.equal_as_sets res rel) then
              failures :=
                {
                  f_section = "constraints";
                  f_rule = rule;
                  f_term = term;
                  f_rewritten = None;
                  f_relation = rel;
                  f_detail =
                    Fmt.str
                      "prover claimed \"%s\" but the winnow drops rows: \
                       |input| = %d, |BMO| = %d"
                      reason (Relation.cardinality rel)
                      (Relation.cardinality res);
                }
                :: !failures)
        rels;
      if !fired = 0 then
        failures :=
          {
            f_section = "constraints";
            f_rule = rule;
            f_term = term;
            f_rewritten = None;
            f_relation = Relation.empty schema;
            f_detail = "prover rule never fired at this scope";
          }
          :: !failures)
    constraints_catalog;
  {
    s_name = "constraints";
    s_rules = List.length constraints_catalog;
    s_cases = !cases;
    s_failures = List.rev !failures;
  }

(* ------------------------------------------------------------------ *)
(* Section 3: cache decomposition tiers                                *)

(* Per tier: the composite term, the operands to pre-cache, and the
   tier name Cache.lookup must report. *)
let cache_catalog =
  [
    ( "prior-prefix",
      Pref.prior (Pref.lowest "a") (Pref.lowest "b"),
      [ Pref.lowest "a" ] );
    ( "dunion-inter",
      Pref.dunion (Pref.pos "a" [ a0 ]) (Pref.pos "a" [ a2 ]),
      [ Pref.pos "a" [ a0 ]; Pref.pos "a" [ a2 ] ] );
    ( "pareto-restrict",
      Pref.pareto (Pref.lowest "a") (Pref.highest "b"),
      [ Pref.lowest "a" ] );
  ]

let cache_section rels =
  let failures = ref [] in
  let cases = ref 0 in
  List.iter
    (fun (tier, term, operands) ->
      let hits = ref 0 in
      List.iter
        (fun rel ->
          if not (Relation.is_empty rel) then begin
            incr cases;
            let c = Pref_bmo.Cache.create () in
            List.iter
              (fun op -> Pref_bmo.Cache.store c schema op rel (bmo op rel))
              operands;
            match Pref_bmo.Cache.lookup c ~gate:false schema term rel with
            | Some (res, Pref_bmo.Cache.Semantic t) when t = tier ->
              incr hits;
              let expect = bmo term rel in
              if not (Relation.equal_as_sets res expect) then
                failures :=
                  {
                    f_section = "cache";
                    f_rule = tier;
                    f_term = term;
                    f_rewritten = None;
                    f_relation = rel;
                    f_detail =
                      Fmt.str
                        "tier %s reconstructed a wrong result: |derived| = \
                         %d, |σ[P](R)| = %d"
                        tier (Relation.cardinality res)
                        (Relation.cardinality expect);
                  }
                  :: !failures
            | Some (_, reuse) ->
              let name =
                match reuse with
                | Pref_bmo.Cache.Exact -> "exact"
                | Pref_bmo.Cache.Semantic t -> t
              in
              failures :=
                {
                  f_section = "cache";
                  f_rule = tier;
                  f_term = term;
                  f_rewritten = None;
                  f_relation = rel;
                  f_detail =
                    Fmt.str "expected tier %s, lookup answered via %s" tier
                      name;
                }
                :: !failures
            | None -> ()
          end)
        rels;
      if !hits = 0 then
        failures :=
          {
            f_section = "cache";
            f_rule = tier;
            f_term = term;
            f_rewritten = None;
            f_relation = Relation.empty schema;
            f_detail = "decomposition tier never matched at this scope";
          }
          :: !failures)
    cache_catalog;
  {
    s_name = "cache";
    s_rules = List.length cache_catalog;
    s_cases = !cases;
    s_failures = List.rev !failures;
  }

(* ------------------------------------------------------------------ *)
(* Section 4: the maintenance rule                                     *)

(* {!Pref_bmo.Incremental}'s rule, which the result cache patches its
   entries with, against recomputation: inserting any universe tuple, and
   deleting any maximal tuple d while screening only d's cone (the cone
   lemma: in a finite SPO every other non-maximal tuple keeps a maximal
   dominator besides d). Each half must change a result at least once. *)
let maintain_catalog =
  [
    Pref.lowest "a";
    Pref.pareto (Pref.lowest "a") (Pref.highest "b");
    Pref.prior (Pref.pos "a" [ a1 ]) (Pref.lowest "b");
    Pref.pareto (Pref.around "a" 1.) (Pref.around "b" 1.);
  ]

let maintain_section rels =
  let failures = ref [] and cases = ref 0 in
  let fired = Hashtbl.create 2 in
  let check rule p rel ~expect (got, changed) =
    incr cases;
    if changed then Hashtbl.replace fired rule ();
    if not (Relation.equal_as_sets (Relation.make schema got) expect) then
      failures :=
        {
          f_section = "maintain";
          f_rule = rule;
          f_term = p;
          f_rewritten = None;
          f_relation = rel;
          f_detail =
            Fmt.str "patched |σ| = %d, recomputed |σ| = %d" (List.length got)
              (Relation.cardinality expect);
        }
        :: !failures
  in
  List.iter
    (fun p ->
      let dominates = Pref_bmo.Dominance.of_pref schema p in
      List.iter
        (fun rel ->
          let rows = Relation.rows rel in
          let result = Relation.rows (bmo p rel) in
          List.iter
            (fun t ->
              let got, d = Pref_bmo.Incremental.insert_rule dominates ~result t in
              check "insert" p rel
                ~expect:(bmo p (Relation.make schema (rows @ [ t ])))
                (got, d.Pref_bmo.Incremental.removed <> []))
            universe;
          List.iter
            (fun d ->
              let rest = Pref_bmo.Incremental.remove_first (Tuple.equal d) rows in
              match
                Pref_bmo.Incremental.delete_rule dominates ~result ~domain:rest d
              with
              | Some (got, delta) ->
                check "delete-cone" p rel
                  ~expect:(bmo p (Relation.make schema rest))
                  (got, delta.Pref_bmo.Incremental.added <> [])
              | None -> ())
            result)
        rels)
    maintain_catalog;
  List.iter
    (fun rule ->
      if not (Hashtbl.mem fired rule) then
        failures :=
          {
            f_section = "maintain";
            f_rule = rule;
            f_term = List.hd maintain_catalog;
            f_rewritten = None;
            f_relation = Relation.empty schema;
            f_detail = "the rule never changed a result at this scope";
          }
          :: !failures)
    [ "insert"; "delete-cone" ];
  {
    s_name = "maintain";
    s_rules = 2;
    s_cases = !cases;
    s_failures = List.rev !failures;
  }

(* ------------------------------------------------------------------ *)
(* Section 5: the router merge                                         *)

let merge_queries =
  [
    "select * from t preferring lowest(a)";
    "select * from t preferring lowest(a) and highest(b)";
    "select * from t preferring lowest(a) prior to lowest(b)";
    "select * from t";
    "select * from t where a >= 1 preferring lowest(b)";
    "select * from t preferring lowest(b) grouping a";
  ]

let merge_schemes =
  [
    Pref_router.Shard_map.Hash "a";
    Pref_router.Shard_map.Range ("a", [ Value.Int 1 ]);
  ]

let merge_section rels =
  let module Shard_map = Pref_router.Shard_map in
  let module Merge = Pref_router.Merge in
  let module Engine = Pref_bmo.Engine in
  let config =
    { Engine.default with Engine.check = false; cache = false; profile = false }
  in
  let failures = ref [] in
  let cases = ref 0 in
  let fail ~rule ?(rel = Relation.empty schema) term detail =
    failures :=
      {
        f_section = "merge";
        f_rule = rule;
        f_term = term;
        f_rewritten = None;
        f_relation = rel;
        f_detail = detail;
      }
      :: !failures
  in
  List.iter
    (fun q_str ->
      let q = Pref_sql.Parser.parse_query q_str in
      let term =
        match Pref_sql.Exec.full_preference q with
        | Some p -> p
        | None -> Pref.antichain [ "a" ]
      in
      List.iter
        (fun scheme ->
          let rule =
            Fmt.str "%s | %s" q_str (Shard_map.scheme_to_string scheme)
          in
          let shard_map = Shard_map.add Shard_map.empty ~table:"t" scheme in
          match Merge.plan ~shard_map q with
          | Error msg -> fail ~rule term ("planner rejected the query: " ^ msg)
          | Ok Merge.Proxy ->
            fail ~rule term "planner proxied a query over the sharded table"
          | Ok (Merge.Scatter d) ->
            List.iter
              (fun rel ->
                incr cases;
                let parts = Shard_map.partition scheme ~shards:2 rel in
                let shard_answers =
                  Array.to_list parts
                  |> List.map (fun part ->
                         let r =
                           Pref_sql.Exec.run_cfg config
                             [ ("t", part) ]
                             d.Merge.shard_sql
                         in
                         (r.Pref_sql.Exec.relation, r.Pref_sql.Exec.flags))
                in
                match Merge.gather shard_answers with
                | Error msg -> fail ~rule ~rel term ("gather failed: " ^ msg)
                | Ok (union, _) ->
                  let fin =
                    Merge.finish ~config
                      ~deadline:(Engine.deadline_of config)
                      d union
                  in
                  let single =
                    Pref_sql.Exec.run_query_within
                      ~deadline:(Engine.deadline_of config) config
                      [ ("t", rel) ] q
                  in
                  if
                    not
                      (Relation.equal_as_sets fin.Pref_sql.Exec.relation
                         single.Pref_sql.Exec.relation)
                  then
                    fail ~rule ~rel term
                      (Fmt.str
                         "scatter-gather differs from single-node: |merged| \
                          = %d, |single| = %d"
                         (Relation.cardinality fin.Pref_sql.Exec.relation)
                         (Relation.cardinality single.Pref_sql.Exec.relation)))
              rels)
        merge_schemes)
    merge_queries;
  {
    s_name = "merge";
    s_rules = List.length merge_queries * List.length merge_schemes;
    s_cases = !cases;
    s_failures = List.rev !failures;
  }

(* ------------------------------------------------------------------ *)
(* Section 6: seeded-random large scope                                *)

let random_base st =
  let attr = if Random.State.bool st then "a" else "b" in
  let value () = Value.Int (Random.State.int st 5) in
  let set () = List.init (1 + Random.State.int st 3) (fun _ -> value ()) in
  match Random.State.int st 7 with
  | 0 -> Pref.Lowest attr
  | 1 -> Pref.Highest attr
  | 2 -> Pref.Pos (attr, set ())
  | 3 -> Pref.Neg (attr, set ())
  | 4 -> Pref.Around (attr, float_of_int (Random.State.int st 5))
  | 5 ->
    let l = float_of_int (Random.State.int st 5) in
    Pref.Between (attr, l, l +. float_of_int (Random.State.int st 3))
  | _ -> Pref.Antichain [ attr ]

let rec random_term st depth =
  if depth = 0 then random_base st
  else
    let sub () = random_term st (depth - 1) in
    match Random.State.int st 6 with
    | 0 -> Pref.Pareto (sub (), sub ())
    | 1 -> Pref.Prior (sub (), sub ())
    | 2 -> Pref.Dunion (sub (), sub ())
    | 3 -> Pref.Dual (sub ())
    | 4 ->
      (* ♦ needs equal attribute sets: draw both operands over one attr *)
      let attr = if Random.State.bool st then "a" else "b" in
      let base () =
        match Random.State.int st 3 with
        | 0 -> Pref.Lowest attr
        | 1 -> Pref.Pos (attr, [ Value.Int (Random.State.int st 5) ])
        | _ -> Pref.Highest attr
      in
      Pref.Inter (base (), base ())
    | _ -> random_base st

let random_relation st =
  let n = Random.State.int st 9 in
  Relation.make schema
    (List.init n (fun _ ->
         Tuple.make
           [ Value.Int (Random.State.int st 5); Value.Int (Random.State.int st 5) ]))

let random_section ~seed ~cases ~budget_s =
  let st = Random.State.make [| seed |] in
  let failures = ref [] in
  let ran = ref 0 in
  let t0 = Pref_obs.Clock.now_ns () in
  (try
     for _ = 1 to cases do
       if Pref_obs.Clock.elapsed_ms ~since:t0 > budget_s *. 1000. then
         raise Exit;
       incr ran;
       let p = random_term st 2 in
       let rel = random_relation st in
       let q = Rewrite.simplify p in
       if not (Relation.equal_as_sets (bmo p rel) (bmo q rel)) then
         failures :=
           {
             f_section = "random";
             f_rule = "simplify";
             f_term = p;
             f_rewritten = Some q;
             f_relation = rel;
             f_detail = "Rewrite.simplify changed the BMO set";
           }
           :: !failures;
       match Constraints.redundant schema p rel with
       | Some reason when not (Relation.equal_as_sets (bmo p rel) rel) ->
         failures :=
           {
             f_section = "random";
             f_rule = "constraints";
             f_term = p;
             f_rewritten = None;
             f_relation = rel;
             f_detail = "unsound proof: " ^ reason;
           }
           :: !failures
       | _ -> ()
     done
   with Exit -> ());
  {
    s_name = "random";
    s_rules = 2;
    s_cases = !ran;
    s_failures = List.rev !failures;
  }

(* ------------------------------------------------------------------ *)
(* Driver and rendering                                                *)

let run ?(max_rows = 3) ?(seed = 42) ?(random_cases = 150) ?(budget_s = 30.)
    () =
  let t0 = Pref_obs.Clock.now_ns () in
  let rels = relations max_rows in
  let sections =
    [
      rewrite_section rels;
      constraints_section rels;
      cache_section rels;
      maintain_section rels;
      merge_section rels;
      random_section ~seed ~cases:random_cases ~budget_s;
    ]
  in
  {
    sections;
    elapsed_ms = Pref_obs.Clock.elapsed_ms ~since:t0;
    scope =
      Fmt.str
        "2 int attributes x domain {0, 1, 2}; all %d relations up to %d \
         rows; seed %d"
        (List.length rels) max_rows seed;
  }

let ok report = List.for_all (fun s -> s.s_failures = []) report.sections

let counterexample_lines f =
  [
    Fmt.str "counterexample in %s/%s:" f.f_section f.f_rule;
    Fmt.str "  term:      %s" (Show.to_string f.f_term);
  ]
  @ (match f.f_rewritten with
    | Some q -> [ Fmt.str "  rewritten: %s" (Show.to_string q) ]
    | None -> [])
  @ [ Fmt.str "  relation over (a, b), %d rows:" (Relation.cardinality f.f_relation) ]
  @ pp_rows f.f_relation
  @ [ Fmt.str "  detail: %s" f.f_detail ]

let report_lines report =
  let total_cases =
    List.fold_left (fun acc s -> acc + s.s_cases) 0 report.sections
  and total_failures =
    List.fold_left (fun acc s -> acc + List.length s.s_failures) 0 report.sections
  in
  [ "verify scope: " ^ report.scope ]
  @ List.map
      (fun s ->
        Fmt.str "  %-12s %3d rules  %6d cases  %s" s.s_name s.s_rules s.s_cases
          (match s.s_failures with
          | [] -> "ok"
          | fs -> Fmt.str "%d FAILURE%s" (List.length fs)
                    (if List.length fs = 1 then "" else "S")))
      report.sections
  @ List.concat_map
      (fun s ->
        List.concat_map counterexample_lines
          (match s.s_failures with
          | a :: b :: c :: _ -> [ a; b; c ]
          | fs -> fs))
      report.sections
  @ [
      (if ok report then
         Fmt.str "VERIFY OK (%d cases in %.0f ms)" total_cases
           report.elapsed_ms
       else
         Fmt.str "VERIFY FAILED (%d failures over %d cases in %.0f ms)"
           total_failures total_cases report.elapsed_ms);
    ]

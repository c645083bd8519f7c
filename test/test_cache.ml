open Pref_relation
open Preferences
open Pref_bmo

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let batch p rows =
  Relation.make Gen.schema (Naive.maxima (Dominance.of_pref Gen.schema p) rows)

let t4 a b c d =
  Tuple.make [ Value.Int a; Value.Int b; Value.Str c; Value.Float d ]

let sample_rows =
  [
    t4 0 4 "x" 0.0;
    t4 1 3 "y" 0.5;
    t4 2 2 "z" 1.0;
    t4 3 1 "w" 2.5;
    t4 4 0 "x" 1.0;
    t4 0 0 "y" 0.0;
  ]

(* --- canonical keys ---------------------------------------------------- *)

let test_canonical_keys () =
  let p = Pref.lowest "a" and q = Pref.highest "b" and r = Pref.pos "c" [ Value.Str "x" ] in
  check "pareto commutes" true
    (String.equal (Canon.key (Pref.pareto p q)) (Canon.key (Pref.pareto q p)));
  check "pareto reassociates" true
    (String.equal
       (Canon.key (Pref.pareto (Pref.pareto p q) r))
       (Canon.key (Pref.pareto p (Pref.pareto q r))));
  check "prior keeps operand order" false
    (String.equal (Canon.key (Pref.prior p q)) (Canon.key (Pref.prior q p)));
  check "prior reassociates" true
    (String.equal
       (Canon.key (Pref.prior (Pref.prior p q) r))
       (Canon.key (Pref.prior p (Pref.prior q r))));
  check "POS value sets are sets" true
    (String.equal
       (Canon.key (Pref.pos "a" [ Value.Int 1; Value.Int 2; Value.Int 2 ]))
       (Canon.key (Pref.pos "a" [ Value.Int 2; Value.Int 1 ])));
  check "different value sets differ" false
    (String.equal
       (Canon.key (Pref.pos "a" [ Value.Int 1 ]))
       (Canon.key (Pref.pos "a" [ Value.Int 2 ])))

let prop_canonical_preserves_bmo =
  QCheck.Test.make ~count:200 ~name:"sigma[canonical p] = sigma[p]"
    Gen.arb_pref_rows
    (fun (p, rows) ->
      Relation.equal_as_sets (batch p rows) (batch (Canon.canonical p) rows))

let prop_canonical_idempotent =
  QCheck.Test.make ~count:200 ~name:"canonical is idempotent" Gen.arb_pref
    (fun p ->
      String.equal (Canon.key p) (Canon.key (Canon.canonical p)))

(* --- exact tier -------------------------------------------------------- *)

let test_exact_hit () =
  let cache = Cache.create () in
  let rel = Relation.make Gen.schema sample_rows in
  let p = Pref.pareto (Pref.lowest "a") (Pref.highest "b") in
  let fresh = batch p sample_rows in
  check "cold lookup misses" true
    (Cache.lookup cache Gen.schema p rel = None);
  Cache.store cache Gen.schema p rel fresh;
  (match Cache.lookup cache Gen.schema p rel with
  | Some (r, Cache.Exact) -> check "hit returns stored set" true
      (Relation.equal_as_sets r fresh)
  | _ -> Alcotest.fail "expected an exact hit");
  (* the commuted term shares the entry *)
  (match
     Cache.lookup cache Gen.schema
       (Pref.pareto (Pref.highest "b") (Pref.lowest "a"))
       rel
   with
  | Some (_, Cache.Exact) -> ()
  | _ -> Alcotest.fail "commuted Pareto term should hit the same entry");
  let s = Cache.stats cache in
  check_int "hits" 2 s.Cache.hits;
  check_int "misses" 1 s.Cache.misses;
  (* a different relation version misses *)
  let rel' = Relation.add_row rel (t4 2 3 "w" 0.5) in
  check "changed relation misses" true
    (Cache.lookup cache Gen.schema p rel' = None)

(* --- semantic tiers ---------------------------------------------------- *)

let test_semantic_prior () =
  let cache = Cache.create () in
  let rel = Relation.make Gen.schema sample_rows in
  let p1 = Pref.lowest "a" and p2 = Pref.highest "b" in
  Cache.store cache Gen.schema p1 rel (batch p1 sample_rows);
  (match Cache.lookup cache Gen.schema (Pref.prior p1 p2) rel with
  | Some (r, Cache.Semantic "prior-prefix") ->
    check "prior refinement derived from cached prefix" true
      (Relation.equal_as_sets r (batch (Pref.prior p1 p2) sample_rows))
  | _ -> Alcotest.fail "expected semantic prior-prefix reuse");
  (* derived results are not stored: the repeat is derived again from
     the one cached entry *)
  (match Cache.lookup cache Gen.schema (Pref.prior p1 p2) rel with
  | Some (_, Cache.Semantic "prior-prefix") -> ()
  | _ -> Alcotest.fail "the repeat should be derived again");
  check_int "only the cold evaluation is stored" 1
    (Cache.stats cache).Cache.entries

let test_semantic_pareto () =
  let cache = Cache.create () in
  let rel = Relation.make Gen.schema sample_rows in
  let p1 = Pref.lowest "a" and p2 = Pref.highest "b" in
  Cache.store cache Gen.schema p1 rel (batch p1 sample_rows);
  match Cache.lookup cache Gen.schema (Pref.pareto p1 p2) rel with
  | Some (r, Cache.Semantic "pareto-restrict") ->
    check "pareto composition derived from cached operand" true
      (Relation.equal_as_sets r (batch (Pref.pareto p1 p2) sample_rows))
  | _ -> Alcotest.fail "expected semantic pareto-restrict reuse"

let test_semantic_dunion () =
  let cache = Cache.create () in
  let rel = Relation.make Gen.schema sample_rows in
  let p1 = Pref.pos "a" [ Value.Int 0; Value.Int 1 ]
  and p2 = Pref.pos "a" [ Value.Int 2; Value.Int 3 ] in
  Cache.store cache Gen.schema p1 rel (batch p1 sample_rows);
  Cache.store cache Gen.schema p2 rel (batch p2 sample_rows);
  match Cache.lookup cache Gen.schema (Pref.dunion p1 p2) rel with
  | Some (r, Cache.Semantic "dunion-inter") ->
    check "disjoint union derived as intersection" true
      (Relation.equal_as_sets r (batch (Pref.dunion p1 p2) sample_rows))
  | _ -> Alcotest.fail "expected semantic dunion-inter reuse"

let prop_prior_reuse =
  QCheck.Test.make ~count:300
    ~name:"semantic prior reuse = naive over random terms" Gen.arb_pref2_rows
    (fun (p, q, rows) ->
      let cache = Cache.create () in
      let rel = Relation.make Gen.schema rows in
      Cache.store cache Gen.schema p rel (batch p rows);
      match Cache.lookup cache Gen.schema (Pref.prior p q) rel with
      | Some (r, _) -> Relation.equal_as_sets r (batch (Pref.prior p q) rows)
      | None -> false)

let prop_pareto_reuse =
  QCheck.Test.make ~count:300
    ~name:"semantic pareto reuse = naive over disjoint attribute terms"
    Gen.arb_disjoint_prefs_rows
    (fun ((p, q), rows) ->
      let cache = Cache.create () in
      let rel = Relation.make Gen.schema rows in
      Cache.store cache Gen.schema p rel (batch p rows);
      match Cache.lookup cache Gen.schema (Pref.pareto p q) rel with
      | Some (r, _) -> Relation.equal_as_sets r (batch (Pref.pareto p q) rows)
      | None ->
        (* the gate may refuse (e.g. overlapping attrs after rewriting);
           refusal is sound, a wrong answer is not *)
        true)

(* --- incremental patching ---------------------------------------------- *)

(* The acceptance property: under interleaved inserts, deletes and
   (refined) queries, everything the cache serves — exact hits, semantic
   derivations, patched entries — equals a fresh naive evaluation. *)
let prop_patched_matches_fresh =
  let ops_gen =
    QCheck.Gen.(
      list_size (int_range 1 30)
        (pair (frequency [ (3, return true); (2, return false) ]) Gen.tuple))
  in
  QCheck.Test.make ~count:200
    ~name:"cache = naive under interleaved insert/delete/refine"
    (QCheck.make
       QCheck.Gen.(triple Gen.pref Gen.pref ops_gen)
       ~print:(fun (p, q, ops) ->
         Fmt.str "%a refined by %a with %d ops" Show.pp p Show.pp q
           (List.length ops)))
    (fun (p, q, ops) ->
      let cache = Cache.create () in
      let rel = ref (Relation.make Gen.schema []) in
      let rows = ref [] in
      let query term =
        match Cache.lookup cache Gen.schema term !rel with
        | Some (r, _) -> Relation.equal_as_sets r (batch term !rows)
        | None ->
          Cache.store cache Gen.schema term !rel (batch term !rows);
          true
      in
      List.for_all
        (fun (is_insert, t) ->
          (if is_insert then begin
             let new_rel = Relation.add_row !rel t in
             ignore (Cache.on_insert cache ~old_rel:!rel ~new_rel t);
             rel := new_rel;
             rows := !rows @ [ t ]
           end
           else if List.exists (Tuple.equal t) !rows then begin
             let removed = ref false in
             let rows' =
               List.filter
                 (fun u ->
                   if (not !removed) && Tuple.equal u t then begin
                     removed := true;
                     false
                   end
                   else true)
                 !rows
             in
             let new_rel = Relation.make Gen.schema rows' in
             ignore (Cache.on_delete cache ~old_rel:!rel ~new_rel t);
             rel := new_rel;
             rows := rows'
           end);
          (* exact-or-store, then patched on the next update *)
          query p
          (* semantic (prior refinement) against the same entries *)
          && query (Pref.prior p q))
        ops)

let test_patch_counts () =
  let cache = Cache.create () in
  let rel = Relation.make Gen.schema sample_rows in
  let p = Pref.lowest "a" in
  Cache.store cache Gen.schema p rel (batch p sample_rows);
  let row = t4 0 2 "z" 2.5 in
  let new_rel = Relation.add_row rel row in
  check_int "one entry patched" 1
    (Cache.on_insert cache ~old_rel:rel ~new_rel row);
  (match Cache.lookup cache Gen.schema p new_rel with
  | Some (r, Cache.Exact) ->
    check "patched entry equals fresh evaluation" true
      (Relation.equal_as_sets r (batch p (Relation.rows new_rel)))
  | _ -> Alcotest.fail "expected the patched entry to hit");
  check_int "patched counter" 1 (Cache.stats cache).Cache.patched_entries

(* A patch moves each entry to the new version's key (the old key is
   gone) and keeps its LRU position: a write is not a use. *)
let test_patch_rekeys () =
  let cache = Cache.create ~max_entries:2 () in
  let rel = Relation.make Gen.schema sample_rows in
  let p1 = Pref.lowest "a" and p2 = Pref.highest "b" in
  Cache.store cache Gen.schema p1 rel (batch p1 sample_rows);
  Cache.store cache Gen.schema p2 rel (batch p2 sample_rows);
  (* use p1 last: p2 is now the least recently used *)
  ignore (Cache.lookup cache Gen.schema p1 rel);
  let row = t4 2 2 "w" 0.5 in
  let new_rel = Relation.add_row rel row in
  check_int "both entries patched" 2
    (Cache.on_insert cache ~old_rel:rel ~new_rel row);
  check_int "old keys removed" 2 (Cache.stats cache).Cache.entries;
  check "the old version misses" true
    (Cache.lookup cache Gen.schema p1 rel = None);
  (* a third entry evicts the least recently used: p2, as before the
     write *)
  let p3 = Pref.lowest "b" in
  Cache.store cache Gen.schema p3 new_rel (batch p3 (Relation.rows new_rel));
  check "LRU order survived the patch" true
    (Cache.probe cache Gen.schema p2 new_rel = None
    && Cache.probe cache Gen.schema p1 new_rel = Some Cache.Exact);
  (* an empty cache patches nothing *)
  Cache.clear cache;
  check_int "empty cache" 0
    (Cache.on_delete cache ~old_rel:new_rel ~new_rel:rel row)

(* --- eviction under budget --------------------------------------------- *)

let test_eviction_max_entries () =
  let cache = Cache.create ~max_entries:3 () in
  let rel = Relation.make Gen.schema sample_rows in
  let prefs =
    List.map
      (fun v -> Pref.pos "a" [ Value.Int v ])
      [ 0; 1; 2; 3; 4 ]
  in
  List.iter
    (fun p -> Cache.store cache Gen.schema p rel (batch p sample_rows))
    prefs;
  let s = Cache.stats cache in
  check_int "capped at max_entries" 3 s.Cache.entries;
  check_int "two evictions" 2 s.Cache.evictions;
  (* LRU: the first two stored entries are gone, the last three remain *)
  check "oldest entry evicted" true
    (Cache.lookup cache Gen.schema (List.nth prefs 0) rel = None);
  check "newest entry survives" true
    (Cache.lookup cache Gen.schema (List.nth prefs 4) rel <> None)

let test_eviction_byte_budget () =
  let cache = Cache.create ~budget_bytes:1 () in
  let rel = Relation.make Gen.schema sample_rows in
  let p = Pref.lowest "a" in
  Cache.store cache Gen.schema p rel (batch p sample_rows);
  let s = Cache.stats cache in
  check_int "nothing fits a one-byte budget" 0 s.Cache.entries;
  check "bytes accounting returns to zero" true (s.Cache.bytes = 0);
  check_int "eviction recorded" 1 s.Cache.evictions

(* --- planner & query integration --------------------------------------- *)

let test_planner_cache_plans () =
  Gen.with_cache @@ fun () ->
  let rel = Relation.make Gen.schema sample_rows in
  let p = Pref.pareto (Pref.lowest "a") (Pref.highest "b") in
  let auto = { Engine.default with algorithm = Query.Alg_auto } in
  let run p =
    Query.run_within ~deadline:Engine.no_deadline auto Gen.schema p rel
  in
  let cold = run p in
  let warm = run p in
  Alcotest.(check (option string))
    "exact hit plan" (Some "cache:exact") warm.Engine.Result.plan;
  check "plan serves from cache" true
    (Relation.equal_as_sets warm.Engine.Result.rows cold.Engine.Result.rows);
  (* a refinement is served by semantic reuse *)
  let refined = Pref.prior p (Pref.lowest "d") in
  let r = run refined in
  Alcotest.(check (option string))
    "semantic plan" (Some "cache:semantic:prior-prefix") r.Engine.Result.plan;
  check "semantic plan result is correct" true
    (Relation.equal_as_sets r.Engine.Result.rows (batch refined sample_rows));
  (* the planner itself only picks evaluation plans; the probe it is
     handed lands in the trace *)
  let plan, trace = Planner.choose_traced ~cache:true Gen.schema p rel in
  check "choose_traced plans an evaluation" true
    (plan = Planner.choose Gen.schema p rel);
  check "probe recorded" true
    (match trace.Planner.t_probes with
    | { Cache.tier = "exact"; hit = true; _ } :: _ -> true
    | _ -> false)

let test_query_cache_integration () =
  Gen.with_cache @@ fun () ->
  let rel = Relation.make Gen.schema sample_rows in
  let p = Pref.pareto (Pref.lowest "a") (Pref.highest "d") in
  let hits0 = (Cache.stats Cache.global).Cache.hits in
  let r1 = Query.sigma Gen.schema p rel in
  let r2 = Query.sigma Gen.schema p rel in
  check "cached result equals first evaluation" true
    (Relation.equal_as_sets r1 r2);
  check_int "second call hit" (hits0 + 1) (Cache.stats Cache.global).Cache.hits;
  let prof =
    Option.get
      (Query.run_within ~deadline:Engine.no_deadline
         { Engine.default with profile = true }
         Gen.schema p rel)
        .Engine.Result.profile
  in
  Alcotest.(check string)
    "profile reports the cache tier" "cache:exact"
    prof.Pref_obs.Profile.algorithm;
  (* per-call opt-out evaluates but does not count *)
  let before = (Cache.stats Cache.global).Cache.hits in
  let r3 =
    fst
      (Query.sigma_within ~deadline:Engine.no_deadline
         { Engine.default with cache = false }
         Gen.schema p rel)
  in
  check "opt-out still correct" true (Relation.equal_as_sets r1 r3);
  check_int "opt-out did not touch the cache" before
    (Cache.stats Cache.global).Cache.hits

(* servers rely on it: the library's process-wide cache starts on *)
let test_starts_enabled () =
  check "Cache.global starts enabled" true Gen.cache_enabled_at_start

let test_disabled_is_noop () =
  (* the global cache is disabled outside [Gen.with_cache]: lookups
     return None and count nothing, stores do not allocate entries *)
  let rel = Relation.make Gen.schema sample_rows in
  let p = Pref.lowest "a" in
  let before = Cache.stats Cache.global in
  check "disabled lookup" true
    (Cache.lookup Cache.global Gen.schema p rel = None);
  Cache.store Cache.global Gen.schema p rel (batch p sample_rows);
  let s = Cache.stats Cache.global in
  check_int "no entries" 0 s.Cache.entries;
  check_int "no misses counted" before.Cache.misses s.Cache.misses

let suite =
  [
    Gen.quick "canonical keys" test_canonical_keys;
    Gen.quick "exact hit" test_exact_hit;
    Gen.quick "semantic prior" test_semantic_prior;
    Gen.quick "semantic pareto" test_semantic_pareto;
    Gen.quick "semantic dunion" test_semantic_dunion;
    Gen.quick "patch counts" test_patch_counts;
    Gen.quick "patch re-keys entries in LRU order" test_patch_rekeys;
    Gen.quick "eviction by entry count" test_eviction_max_entries;
    Gen.quick "eviction by byte budget" test_eviction_byte_budget;
    Gen.quick "planner cache plans" test_planner_cache_plans;
    Gen.quick "query integration" test_query_cache_integration;
    Gen.quick "global cache starts enabled" test_starts_enabled;
    Gen.quick "disabled cache is a no-op" test_disabled_is_noop;
  ]
  @ Gen.qsuite
      [
        prop_canonical_preserves_bmo;
        prop_canonical_idempotent;
        prop_prior_reuse;
        prop_pareto_reuse;
        prop_patched_matches_fresh;
      ]

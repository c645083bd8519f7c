open Pref_relation
open Preferences
open Pref_bmo

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let batch schema p rows =
  Relation.make schema (Naive.maxima (Dominance.of_pref schema p) rows)

(* --- Example 9 replayed through the incremental engine --------------- *)

let test_example9_incremental () =
  let schema =
    Schema.make
      [ ("fe", Value.TInt); ("ir", Value.TInt); ("nick", Value.TStr) ]
  in
  let car (f, i, n) = Tuple.make [ Value.Int f; Value.Int i; Value.Str n ] in
  let p = Pref.pareto (Pref.highest "fe") (Pref.highest "ir") in
  let inc = Incremental.create schema p [ car (100, 3, "frog") ] in
  check_int "one car, one best" 1 (Incremental.size inc);
  Incremental.insert inc (car (50, 3, "cat"));
  check_int "cat dominated" 1 (Incremental.size inc);
  Incremental.insert inc (car (50, 10, "shark"));
  check_int "shark joins" 2 (Incremental.size inc);
  Incremental.insert inc (car (100, 10, "turtle"));
  check_int "turtle evicts both" 1 (Incremental.size inc);
  (* delete the turtle: frog and shark resurrect *)
  check "delete succeeds" true (Incremental.delete inc (car (100, 10, "turtle")));
  check_int "resurrection" 2 (Incremental.size inc);
  check "missing delete is reported" false
    (Incremental.delete inc (car (1, 1, "ghost")))

(* --- Random edit sequences agree with batch recomputation ------------- *)

let ops_gen =
  QCheck.Gen.(
    list_size (int_range 1 40)
      (pair (frequency [ (3, return true); (2, return false) ]) Gen.tuple))

let prop_matches_batch =
  QCheck.Test.make ~count:300
    ~name:"incremental = batch over random insert/delete sequences"
    (QCheck.make
       QCheck.Gen.(pair Gen.pref ops_gen)
       ~print:(fun (p, ops) ->
         Fmt.str "%a with %d ops" Preferences.Show.pp p (List.length ops)))
    (fun (p, ops) ->
      let inc = Incremental.create Gen.schema p [] in
      let rows = ref [] in
      List.for_all
        (fun (is_insert, t) ->
          if is_insert then begin
            Incremental.insert inc t;
            rows := t :: !rows;
            true
          end
          else begin
            let present = List.exists (Tuple.equal t) !rows in
            let deleted = Incremental.delete inc t in
            if present then begin
              let rec remove_one acc = function
                | [] -> List.rev acc
                | x :: rest ->
                  if Tuple.equal x t then List.rev_append acc rest
                  else remove_one (x :: acc) rest
              in
              rows := remove_one [] !rows
            end;
            deleted = present
          end
          &&
          Relation.equal_as_sets (Incremental.result inc)
            (batch Gen.schema p !rows))
        ops)

let test_cardinality_tracking () =
  let p = Pref.lowest "a" in
  let inc = Incremental.create Gen.schema p [] in
  let t n = Tuple.make [ Value.Int n; Value.Int 0; Value.Str "x"; Value.Float 0. ] in
  List.iter (Incremental.insert inc) [ t 3; t 1; t 2; t 1 ];
  check_int "total rows" 4 (Incremental.cardinality inc);
  check_int "two minimal duplicates" 2 (Incremental.size inc);
  ignore (Incremental.delete inc (t 1));
  check_int "one of the duplicates remains best" 1 (Incremental.size inc);
  check_int "three rows left" 3 (Incremental.cardinality inc)

(* --- delta-reporting updates ------------------------------------------- *)

let test_deltas () =
  let schema =
    Schema.make
      [ ("fe", Value.TInt); ("ir", Value.TInt); ("nick", Value.TStr) ]
  in
  let car (f, i, n) = Tuple.make [ Value.Int f; Value.Int i; Value.Str n ] in
  let p = Pref.pareto (Pref.highest "fe") (Pref.highest "ir") in
  let inc = Incremental.create schema p [ car (100, 3, "frog") ] in
  (* a dominated insert changes nothing *)
  let d = Incremental.insert_delta inc (car (50, 3, "cat")) in
  check "dominated insert is silent" true (d = Incremental.no_delta);
  (* an incomparable insert joins without evicting *)
  let d = Incremental.insert_delta inc (car (50, 10, "shark")) in
  check "incomparable insert adds itself" true
    (d.Incremental.added = [ car (50, 10, "shark") ]
    && d.Incremental.removed = []);
  (* a dominating insert reports its evictions *)
  let d = Incremental.insert_delta inc (car (100, 10, "turtle")) in
  check "evicting insert adds itself" true
    (d.Incremental.added = [ car (100, 10, "turtle") ]);
  check "and removes both losers" true
    (List.length d.Incremental.removed = 2);
  (* deleting a shadow row is a present-but-silent update *)
  check "shadow delete" true
    (Incremental.delete_delta inc (car (50, 3, "cat"))
    = Some Incremental.no_delta);
  (* deleting a best match reports the promotions *)
  (match Incremental.delete_delta inc (car (100, 10, "turtle")) with
  | None -> Alcotest.fail "turtle was present"
  | Some d ->
    check "removal reported" true (d.Incremental.removed = [ car (100, 10, "turtle") ]);
    check "both resurrect" true (List.length d.Incremental.added = 2));
  (* an absent row is None, distinguishing it from the silent cases *)
  check "absent delete" true
    (Incremental.delete_delta inc (car (1, 1, "ghost")) = None)

(* replaying the reported deltas reconstructs σ[P](R) exactly *)
let prop_delta_replay =
  QCheck.Test.make ~count:200
    ~name:"replaying insert/delete deltas reconstructs the BMO set"
    (QCheck.make
       QCheck.Gen.(pair Gen.pref ops_gen)
       ~print:(fun (p, ops) ->
         Fmt.str "%a with %d ops" Preferences.Show.pp p (List.length ops)))
    (fun (p, ops) ->
      let inc = Incremental.create Gen.schema p [] in
      let replica = ref [] in
      let remove_one t l =
        let rec go acc = function
          | [] -> List.rev acc
          | x :: rest ->
            if Tuple.equal x t then List.rev_append acc rest
            else go (x :: acc) rest
        in
        go [] l
      in
      let apply (d : Incremental.delta) =
        replica := List.fold_left (fun acc t -> remove_one t acc) !replica d.Incremental.removed;
        replica := !replica @ d.Incremental.added
      in
      List.for_all
        (fun (is_insert, t) ->
          (if is_insert then apply (Incremental.insert_delta inc t)
           else
             match Incremental.delete_delta inc t with
             | Some d -> apply d
             | None -> ());
          Relation.equal_as_sets
            (Relation.make Gen.schema !replica)
            (Incremental.result inc))
        ops)

(* --- The maintenance rule, through both of its users ------------------- *)

(* An edit of the current multiset: a fresh row, a value-duplicate of a
   present row, a delete of a best match, of any present row, or of a
   row that may be absent. Indices are taken modulo the current sizes. *)
type edit =
  | Ins of Tuple.t
  | Dup of int
  | Del_best of int
  | Del_any of int
  | Del of Tuple.t

let edit_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun t -> Ins t) Gen.tuple);
        (2, map (fun i -> Dup i) nat);
        (3, map (fun i -> Del_best i) nat);
        (2, map (fun i -> Del_any i) nat);
        (1, map (fun t -> Del t) Gen.tuple);
      ])

let pp_edit ppf = function
  | Ins t -> Fmt.pf ppf "insert %a" Tuple.pp t
  | Dup i -> Fmt.pf ppf "duplicate #%d" i
  | Del_best i -> Fmt.pf ppf "delete best #%d" i
  | Del_any i -> Fmt.pf ppf "delete #%d" i
  | Del t -> Fmt.pf ppf "delete %a" Tuple.pp t

let same_multiset a b =
  List.equal Tuple.equal (List.sort Tuple.compare a) (List.sort Tuple.compare b)

(* Cached entries patched by Cache.on_insert/on_delete and Incremental
   structures updated by insert_delta/delete_delta both follow the one
   rule: after every edit each answer is Naive.maxima of the current
   multiset (multiplicities included), the subscriber replica built from
   the deltas agrees, and every entry sits under the current version's key
   alone. *)
let prop_rule_matches_naive =
  QCheck.Test.make ~count:300
    ~name:"maintenance rule = naive for the cache and Incremental"
    (QCheck.make
       QCheck.Gen.(
         triple (pair Gen.pref Gen.pref)
           (list_size (int_range 0 12) Gen.tuple)
           (list_size (int_range 1 30) edit_gen))
       ~print:(fun ((p, q), rows, edits) ->
         Fmt.str "%a / %a over %d rows: [%a]" Preferences.Show.pp p
           Preferences.Show.pp q (List.length rows)
           (Fmt.list ~sep:Fmt.semi pp_edit)
           edits))
    (fun ((p, q), rows0, edits) ->
      let prefs = [ p; q ] in
      let naive p rows = Naive.maxima (Dominance.of_pref Gen.schema p) rows in
      let cache = Cache.create () in
      let rel = ref (Relation.make Gen.schema rows0) in
      List.iter
        (fun p -> Cache.store cache Gen.schema p !rel (batch Gen.schema p rows0))
        prefs;
      let incs = List.map (fun p -> Incremental.create Gen.schema p rows0) prefs in
      let replicas = List.map (fun p -> ref (naive p rows0)) prefs in
      let apply replica (d : Incremental.delta) =
        replica :=
          List.fold_left
            (fun l r -> Incremental.remove_first (Tuple.equal r) l)
            !replica d.Incremental.removed
          @ d.Incremental.added
      in
      let nth l i = List.nth l (i mod List.length l) in
      let step edit =
        let rows = Relation.rows !rel in
        let insert t =
          let new_rel = Relation.add_row !rel t in
          ignore (Cache.on_insert cache ~old_rel:!rel ~new_rel t);
          List.iter2
            (fun inc r -> apply r (Incremental.insert_delta inc t))
            incs replicas;
          rel := new_rel
        in
        let delete t =
          let present = List.exists (Tuple.equal t) rows in
          let new_rel =
            Relation.make Gen.schema (Incremental.remove_first (Tuple.equal t) rows)
          in
          if present then ignore (Cache.on_delete cache ~old_rel:!rel ~new_rel t);
          let ok =
            List.for_all2
              (fun inc r ->
                match Incremental.delete_delta inc t with
                | Some d ->
                  apply r d;
                  present
                | None -> not present)
              incs replicas
          in
          rel := new_rel;
          ok
        in
        match edit with
        | Ins t -> insert t; true
        | Dup i -> if rows = [] then true else (insert (nth rows i); true)
        | Del_best i -> (
          match naive p rows with [] -> true | best -> delete (nth best i))
        | Del_any i -> if rows = [] then true else delete (nth rows i)
        | Del t -> delete t
      in
      List.for_all
        (fun edit ->
          step edit
          &&
          let rows = Relation.rows !rel in
          (Cache.stats cache).Cache.entries
          = List.length (List.sort_uniq String.compare (List.map Canon.key prefs))
          && List.for_all2
               (fun p (inc, replica) ->
                 let expected = naive p rows in
                 (match Cache.lookup cache Gen.schema p !rel with
                 | Some (r, Cache.Exact) -> same_multiset (Relation.rows r) expected
                 | _ -> false)
                 && same_multiset (Relation.rows (Incremental.result inc)) expected
                 && same_multiset !replica expected
                 && Incremental.cardinality inc = List.length rows)
               prefs
               (List.combine incs replicas))
        edits)

(* --- sigma_levels ------------------------------------------------------ *)

let test_sigma_levels () =
  let schema = Schema.make [ ("x", Value.TInt) ] in
  let t n = Tuple.make [ Value.Int n ] in
  let rel = Relation.make schema (List.map t [ 5; 3; 9; 1; 7 ]) in
  let p = Pref.highest "x" in
  check_int "level 1" 1
    (Relation.cardinality (Query.sigma_levels schema p ~levels:1 rel));
  check_int "levels 1-3" 3
    (Relation.cardinality (Query.sigma_levels schema p ~levels:3 rel));
  check "levels beyond depth return everything" true
    (Relation.equal_as_sets rel (Query.sigma_levels schema p ~levels:99 rel));
  check "level 1 = sigma" true
    (Relation.equal_as_sets
       (Query.sigma_levels schema p ~levels:1 rel)
       (Query.sigma schema p rel));
  Alcotest.check_raises "levels < 1"
    (Invalid_argument "Query.sigma_levels: levels must be >= 1") (fun () ->
      ignore (Query.sigma_levels schema p ~levels:0 rel))

let prop_sigma_levels_nested =
  QCheck.Test.make ~count:150 ~name:"sigma_levels grows monotonically with k"
    Gen.arb_pref_rows
    (fun (p, rows) ->
      let rel = Gen.rel rows in
      let l1 = Pref_bmo.Query.sigma_levels Gen.schema p ~levels:1 rel in
      let l2 = Pref_bmo.Query.sigma_levels Gen.schema p ~levels:2 rel in
      let l3 = Pref_bmo.Query.sigma_levels Gen.schema p ~levels:3 rel in
      List.for_all (Relation.mem l2) (Relation.rows l1)
      && List.for_all (Relation.mem l3) (Relation.rows l2))

(* --- exhaustive Definition 13 over finite domains ---------------------- *)

let test_agree_on_domains () =
  let colours = List.map (fun s -> Value.Str s) [ "r"; "g"; "b" ] in
  let prices = List.map (fun n -> Value.Int n) [ 1; 2; 3 ] in
  let domains = [ ("color", colours); ("price", prices) ] in
  (* non-discrimination theorem, checked over the whole domain product *)
  let p1 = Pref.pos "color" [ Value.Str "r" ] and p2 = Pref.lowest "price" in
  check "prop 5 over the full domain" true
    (Equiv.agree_on_domains domains
       (Pref.pareto p1 p2)
       (Pref.inter (Pref.prior p1 p2) (Pref.prior p2 p1)));
  check "inequivalent terms are detected" false
    (Equiv.agree_on_domains domains (Pref.pareto p1 p2) (Pref.prior p1 p2));
  let schema, tuples = Equiv.domain_tuples domains in
  check_int "3x3 product" 9 (List.length tuples);
  check_int "two columns" 2 (Pref_relation.Schema.arity schema)

let suite =
  [
    Gen.quick "example 9 incrementally" test_example9_incremental;
    Gen.quick "cardinality tracking" test_cardinality_tracking;
    Gen.quick "delta-reporting updates" test_deltas;
    Gen.quick "sigma_levels" test_sigma_levels;
    Gen.quick "exhaustive domain equivalence" test_agree_on_domains;
  ]
  @ Gen.qsuite
      [
        prop_matches_batch;
        prop_delta_replay;
        prop_rule_matches_naive;
        prop_sigma_levels_nested;
      ]

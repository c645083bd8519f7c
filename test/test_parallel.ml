open Pref_relation
open Preferences
open Pref_bmo
module Synthetic = Pref_workload.Synthetic

let sigma_alg algorithm schema p rel =
  fst
    (Query.sigma_within ~deadline:Engine.no_deadline
       { Engine.default with algorithm } schema p rel)

let check = Alcotest.(check bool)

let par_dnc ~domains schema p rel =
  Planner.execute schema p rel (Planner.Plan_par_dnc { domains })

let par_sfs ~domains schema ~attrs ~maximize p rel =
  Planner.execute schema p rel
    (Planner.Plan_par_sfs { attrs; maximize; domains })

(* ------------------------------------------------------------------ *)
(* Pool *)

let test_pool () =
  let pool = Pool.create ~domains:4 in
  Alcotest.(check int) "size" 4 (Pool.size pool);
  let xs = Array.init 100 Fun.id in
  Alcotest.(check (array int))
    "map keeps input order"
    (Array.map (fun x -> x * x) xs)
    (Pool.map pool (fun x -> x * x) xs);
  Array.iter
    (fun id -> check "worker id in range" true (id >= 0 && id < 4))
    (Pool.map pool (fun () -> Pool.self ()) (Array.make 64 ()));
  check "caller is domain 0 outside jobs" true (Pool.self () = 0);
  (try
     ignore
       (Pool.map pool
          (fun i -> if i = 5 then failwith "boom" else i)
          (Array.init 10 Fun.id));
     Alcotest.fail "expected the job exception to propagate"
   with Pool.Job_error { index; exn = Failure m; _ } ->
     Alcotest.(check int) "failing item index" 5 index;
     Alcotest.(check string) "exception message" "boom" m);
  (* the pool survives a failed batch *)
  Alcotest.(check int) "reusable after exception" 8
    (Array.length (Pool.map pool string_of_int (Array.init 8 Fun.id)));
  Pool.shutdown pool

let test_chunks () =
  List.iter
    (fun (domains, n) ->
      let cs = Pool.chunks ~domains n in
      Alcotest.(check int)
        "chunks cover all elements" n
        (Array.fold_left (fun a (_, l) -> a + l) 0 cs);
      Array.iteri
        (fun i (off, len) ->
          check "chunk non-empty" true (len > 0 || n = 0);
          if i > 0 then begin
            let poff, plen = cs.(i - 1) in
            Alcotest.(check int) "chunks contiguous" (poff + plen) off
          end)
        cs;
      check "at most [domains] chunks" true (Array.length cs <= max 1 domains);
      check "balanced" true
        (let lens = Array.map snd cs in
         Array.length lens = 0
         || Array.fold_left max 0 lens - Array.fold_left min max_int lens <= 1))
    [ (1, 10); (4, 10); (4, 3); (8, 64); (3, 100); (4, 0); (6, 6) ]

(* ------------------------------------------------------------------ *)
(* Parallel DnC ≡ sequential naive, over random preferences/relations *)

let par_dnc_equiv =
  QCheck.Test.make ~count:60
    ~name:"parallel dnc = naive BMO set (1, 2, 4 domains)" Gen.arb_pref_rows
    (fun (p, rows) ->
      let rel = Gen.rel rows in
      let naive = sigma_alg Query.Alg_naive Gen.schema p rel in
      List.for_all
        (fun d ->
          Relation.equal_as_sets naive (par_dnc ~domains:d Gen.schema p rel))
        [ 1; 2; 4 ])

let par_sfs_equiv =
  (* skyline preferences only: the sum key must be topological *)
  QCheck.Test.make ~count:40 ~name:"parallel sfs = naive BMO set"
    Gen.arb_rows
    (fun rows ->
      let rel = Gen.rel rows in
      List.for_all
        (fun (attrs, maximize) ->
          let chain = if maximize then Pref.highest else Pref.lowest in
          let p = Pref.pareto_all (List.map chain attrs) in
          let naive = sigma_alg Query.Alg_naive Gen.schema p rel in
          List.for_all
            (fun d ->
              Relation.equal_as_sets naive
                (par_sfs ~domains:d Gen.schema ~attrs ~maximize p rel))
            [ 1; 2; 4 ])
        [ ([ "a"; "b" ], true); ([ "a"; "d" ], false); ([ "b"; "d"; "a" ], true) ])

let test_par_on_synthetic () =
  (* larger inputs than the random generator produces, all three data
     families, checking both strategies and the order of parallel SFS *)
  List.iter
    (fun (n, dims, family) ->
      let rel = Synthetic.relation ~seed:11 ~n ~dims family in
      let schema = Relation.schema rel in
      let attrs = Synthetic.dim_names dims in
      let p = Pref.pareto_all (List.map Pref.highest attrs) in
      let naive = sigma_alg Query.Alg_naive schema p rel in
      let seq_sfs =
        Sfs.maxima
          ~key:(Sfs.sum_key schema attrs ~maximize:true)
          (Dominance.of_pref schema p) (Relation.rows rel)
      in
      List.iter
        (fun d ->
          let dnc = par_dnc ~domains:d schema p rel in
          check "par dnc = naive" true (Relation.equal_as_sets naive dnc);
          let sfs = par_sfs ~domains:d schema ~attrs ~maximize:true p rel in
          (* same rows in the same (descending key) order as sequential *)
          check "par sfs keeps sequential order" true
            (List.equal Tuple.equal seq_sfs (Relation.rows sfs)))
        [ 1; 2; 3; 4 ])
    [
      (500, 3, Synthetic.Independent);
      (1000, 2, Synthetic.Anti_correlated);
      (800, 4, Synthetic.Correlated);
    ]

let test_kernel_stats () =
  let rel = Synthetic.relation ~seed:3 ~n:2000 ~dims:3 Synthetic.Independent in
  let schema = Relation.schema rel in
  let attrs = Synthetic.dim_names 3 in
  let p = Pref.pareto_all (List.map Pref.highest attrs) in
  let k = Dominance.keyed schema p rel in
  check "numeric skyline reads no tuple closure" true
    (k.Dominance.closure_leaves = []);
  let best, stats =
    Parallel.maxima_dnc ~domains:4 k.Dominance.dominates (Dominance.points k)
  in
  Alcotest.(check int) "4 chunks" 4 (Array.length stats.Parallel.s_chunks);
  Alcotest.(check int)
    "chunk rows sum to input" 2000
    (Array.fold_left
       (fun a c -> a + c.Parallel.c_rows)
       0 stats.Parallel.s_chunks);
  check "chunks performed dominance tests" true
    (Array.for_all (fun c -> c.Parallel.c_tests > 0) stats.Parallel.s_chunks);
  check "total includes merge" true
    (Parallel.total_tests stats >= stats.Parallel.s_merge_tests);
  (* the naive knob runs keyed too: the oracle is the tuple closure *)
  let naive = Naive.query schema p rel in
  check "stats run is exact" true
    (Relation.equal_as_sets naive
       (Relation.make schema (Dominance.select k best)))

(* ------------------------------------------------------------------ *)
(* Query / planner integration *)

let test_sigma_parallel_profiled () =
  let rel = Synthetic.relation ~seed:7 ~n:2000 ~dims:3 Synthetic.Independent in
  let schema = Relation.schema rel in
  let p = Pref.pareto_all (List.map Pref.highest (Synthetic.dim_names 3)) in
  let naive = sigma_alg Query.Alg_naive schema p rel in
  let res =
    Query.run_within ~deadline:Engine.no_deadline
      {
        Engine.default with
        algorithm = Query.Alg_parallel;
        domains = Some 4;
        profile = true;
      }
      schema p rel
  in
  let r = res.Engine.Result.rows and prof = Option.get res.Engine.Result.profile in
  check "parallel sigma is exact" true (Relation.equal_as_sets naive r);
  Alcotest.(check string) "algorithm" "par_dnc" prof.Pref_obs.Profile.algorithm;
  check "comparisons tracked" true (prof.Pref_obs.Profile.comparisons > 0);
  let phase_names =
    List.map
      (fun ph -> ph.Pref_obs.Profile.phase_name)
      prof.Pref_obs.Profile.phases
  in
  List.iter
    (fun name -> check ("profile has phase " ^ name) true (List.mem name phase_names))
    [ "compile"; "local"; "merge"; "evaluate" ];
  List.iter
    (fun key ->
      check ("profile has attr " ^ key) true
        (List.mem_assoc key prof.Pref_obs.Profile.attrs))
    [ "domains"; "chunk_rows"; "chunk_tests"; "merge_ms" ]

let test_planner_parallel_choice () =
  (* the keyed window runs a 3-d skyline of 17 000 rows in about a
     millisecond, below the fan-out's fixed cost: it takes a 5-d one of
     50 000 rows to pay for four domains *)
  let big = Synthetic.relation ~seed:5 ~n:50_000 ~dims:5 Synthetic.Independent in
  let n = 17_000 in
  let rel = Synthetic.relation ~seed:5 ~n ~dims:3 Synthetic.Independent in
  let schema = Relation.schema rel in
  let skyline = Pref.pareto_all (List.map Pref.highest (Synthetic.dim_names 5)) in
  let non_chain =
    Pref.pareto (Pref.highest "d0") (Pref.around "d1" 0.5)
  in
  (* cost model: a big 5-d skyline over 4 domains pays for the fan-out,
     and the parallel plan computes the BNL answer *)
  let big_schema = Relation.schema big in
  (match Planner.choose ~domains:4 big_schema skyline big with
  | (Planner.Plan_par_dnc _ | Planner.Plan_par_sfs _) as plan ->
    check "fanned-out skyline executes exactly" true
      (Relation.equal_as_sets
         (sigma_alg Query.Alg_bnl big_schema skyline big)
         (Planner.execute big_schema skyline big plan))
  | other ->
    Alcotest.failf "expected a parallel plan, got %s"
      (Planner.plan_to_string other));
  (* cost model: small flat inputs must never pay the parallel fixed cost
     (the B9 n=5000, d=2 regression) *)
  let small = Synthetic.relation ~seed:5 ~n:5000 ~dims:2 Synthetic.Independent in
  let small_schema = Relation.schema small in
  let sky2 = Pref.pareto_all (List.map Pref.highest (Synthetic.dim_names 2)) in
  (match Planner.choose ~domains:4 small_schema sky2 small with
  | Planner.Plan_par_dnc _ | Planner.Plan_par_sfs _ ->
    Alcotest.fail "cost model must keep n=5000 d=2 sequential"
  | _ -> ());
  (* one domain -> never a parallel plan *)
  (match Planner.choose ~domains:1 schema non_chain rel with
  | Planner.Plan_par_dnc _ | Planner.Plan_par_sfs _ ->
    Alcotest.fail "domains:1 must not plan parallel"
  | _ -> ());
  (* parallel plans execute exactly *)
  let naive = sigma_alg Query.Alg_naive schema non_chain rel in
  let plan = Planner.choose ~domains:2 schema non_chain rel in
  check "par plan executes exactly" true
    (Relation.equal_as_sets naive (Planner.execute schema non_chain rel plan))

(* [\set costmodel off] is no second planner: the structural rules still
   apply (n <= 64 runs naive, a chain-headed prioritisation cascades),
   and everything else runs BNL without pricing an alternative. *)
let test_costmodel_off () =
  let off =
    { Engine.default with algorithm = Engine.Alg_auto; costmodel = false }
  in
  let plan_of schema p rel =
    (Query.run_within ~deadline:Engine.no_deadline off schema p rel)
      .Engine.Result.plan
  in
  let rel =
    Synthetic.relation ~seed:5 ~n:17_000 ~dims:3 Synthetic.Independent
  in
  let schema = Relation.schema rel in
  let skyline =
    Pref.pareto_all (List.map Pref.highest (Synthetic.dim_names 3))
  in
  Alcotest.(check (option string))
    "big skyline runs bnl" (Some "auto:bnl") (plan_of schema skyline rel);
  let plan, tr =
    Planner.choose_traced ~cache:false ~costmodel:false ~domains:2 schema
      skyline rel
  in
  check "traced plan is bnl" true (plan = Planner.Plan_bnl);
  check "nothing priced" true (tr.Planner.t_costs = []);
  let names_knob (_, why) =
    let k = "costmodel" in
    let n = String.length k in
    let rec go i =
      i + n <= String.length why && (String.sub why i n = k || go (i + 1))
    in
    go 0
  in
  check "rejected list names the knob" true
    (List.exists names_knob tr.Planner.t_rejected);
  let tiny = Synthetic.relation ~seed:5 ~n:64 ~dims:3 Synthetic.Independent in
  Alcotest.(check (option string))
    "64 rows run naive" (Some "auto:naive")
    (plan_of (Relation.schema tiny) skyline tiny);
  let cars = Pref_workload.Cars.relation ~seed:4 ~n:500 () in
  let prior =
    Pref.prior (Pref.lowest "price") (Pref.pos "color" [ Str "red" ])
  in
  Alcotest.(check (option string))
    "chain-headed prioritisation cascades" (Some "auto:cascade")
    (plan_of (Relation.schema cars) prior cars)

(* ------------------------------------------------------------------ *)
(* Float columns: NULL loses to every number, two NULLs tie *)

let test_float_path_nulls () =
  let schema = Schema.make [ ("x", Value.TFloat); ("y", Value.TFloat) ] in
  let t vs = Tuple.make vs in
  let rows =
    [
      t [ Value.Float 1.0; Value.Null ];
      t [ Value.Null; Value.Float 1.0 ];
      t [ Value.Float 1.0; Value.Float 1.0 ];
      t [ Value.Null; Value.Null ];
      t [ Value.Float 0.5; Value.Float 2.0 ];
      t [ Value.Float 1.0; Value.Null ];
    ]
  in
  let rel = Relation.make schema rows in
  let p = Pref.pareto (Pref.highest "x") (Pref.highest "y") in
  let k = Dominance.keyed schema p rel in
  check "float columns apply" true (k.Dominance.closure_leaves = []);
  let naive = Naive.query schema p rel in
  check "keyed kernel matches the closure on NULLs" true
    (Relation.equal_as_sets naive
       (Relation.make schema
          (Dominance.select k
             (Dominance.window k)
               .Bnl.survivors)));
  List.iter
    (fun d ->
      check "parallel matches naive on NULLs" true
        (Relation.equal_as_sets naive (par_dnc ~domains:d schema p rel)))
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Anti-chain window regression *)

(* The pre-rewrite BNL scan recursed once per window tuple, so a pure
   anti-chain (window = whole input) overflowed the stack on large inputs.
   The iterative pass must survive any window size. Certifying an
   anti-chain inherently costs Ω(n²) dominance tests, so the default size
   keeps the suite fast; set PREF_ANTICHAIN_N=100000 to run the full-scale
   regression (verified: all 100k rows survive, ~n² tests). *)
let antichain_n () =
  match Sys.getenv_opt "PREF_ANTICHAIN_N" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 1 -> n | _ -> 12_000)
  | None -> 12_000

let antichain_rows n =
  List.init n (fun i ->
      Tuple.make
        [ Value.Float (float_of_int i); Value.Float (float_of_int (n - i)) ])

let test_antichain_window () =
  let n = antichain_n () in
  let schema = Schema.make [ ("x", Value.TFloat); ("y", Value.TFloat) ] in
  let p = Pref.pareto (Pref.highest "x") (Pref.highest "y") in
  let k = Dominance.keyed schema p (Relation.make schema (antichain_rows n)) in
  let r = Dominance.window k in
  Alcotest.(check int) "every anti-chain row survives" n
    (Array.length r.Bnl.survivors);
  check "quadratic test count reached (window really grew)" true
    (r.Bnl.tests >= n * (n - 1) / 2);
  (* the traced list pass agrees and reports the full window as its peak *)
  let small = 2_000 in
  let rows = antichain_rows small in
  let dom = Dominance.of_pref schema p in
  let arr = Array.of_list rows in
  let traced = Bnl.window dom arr in
  let best = Bnl.select arr traced and peak = traced.Bnl.peak in
  Alcotest.(check int) "traced pass keeps all rows" small (List.length best);
  Alcotest.(check int) "window peak = input size" small peak;
  check "closure pass keeps every row in input order" true
    (List.equal Tuple.equal rows best)

(* ------------------------------------------------------------------ *)
(* Tuple.hash *)

let test_tuple_hash () =
  (* hash must be consistent with Tuple.equal, including Int/Float
     widening (Value.equal (Int 1) (Float 1.) holds) *)
  check "int/float widening hashes equal" true
    (Tuple.hash (Tuple.make [ Value.Int 1; Value.Str "x" ])
    = Tuple.hash (Tuple.make [ Value.Float 1.0; Value.Str "x" ]));
  check "null tuple hash is stable" true
    (Tuple.hash (Tuple.make [ Value.Null ])
    = Tuple.hash (Tuple.make [ Value.Null ]));
  (* collision sanity over many distinct tuples *)
  let seen = Hashtbl.create 1024 in
  let total = 10_000 in
  for i = 0 to total - 1 do
    let t =
      Tuple.make
        [
          Value.Int (i mod 100);
          Value.Str (string_of_int (i / 100));
          Value.Float (float_of_int i /. 7.0);
          (if i mod 13 = 0 then Value.Null else Value.Bool (i mod 2 = 0));
        ]
    in
    Hashtbl.replace seen (Tuple.hash t) ()
  done;
  check "few hash collisions over 10k distinct tuples" true
    (Hashtbl.length seen > total * 99 / 100)

let hash_consistent_with_equal =
  QCheck.Test.make ~count:300 ~name:"tuple hash consistent with equality"
    (QCheck.pair Gen.arb_tuple Gen.arb_tuple) (fun (t, u) ->
      (not (Tuple.equal t u)) || Tuple.hash t = Tuple.hash u)

(* ------------------------------------------------------------------ *)

let suite =
  [
    Gen.quick "domain pool" test_pool;
    Gen.quick "chunking" test_chunks;
    Gen.quick "parallel on synthetic workloads" test_par_on_synthetic;
    Gen.quick "kernel stats" test_kernel_stats;
    Gen.quick "sigma parallel profiled" test_sigma_parallel_profiled;
    Gen.quick "planner picks parallel plans" test_planner_parallel_choice;
    Gen.quick "costmodel off keeps only the structural rules"
      test_costmodel_off;
    Gen.quick "float path NULL semantics" test_float_path_nulls;
    Gen.quick "anti-chain window regression" test_antichain_window;
    Gen.quick "tuple hash" test_tuple_hash;
  ]
  @ Gen.qsuite [ par_dnc_equiv; par_sfs_equiv; hash_consistent_with_equal ]

(* Router tests. Pure merge soundness first: for random relations and
   random partitions, per-shard execution of the planned shard statement
   + gather + final pass must equal single-node execution — across all
   three decomposition regimes (final winnow needed; GROUPING covers the
   shard key so the merge is skipped; no preference at all). Then the
   router end-to-end over real sockets: parity with a single node,
   graceful degradation when a backend dies mid-flight, STATS
   aggregation, trace propagation, prepared statements, and the
   final-pass row cap. *)

open Pref_relation
open Pref_bmo
open Pref_sql
open Pref_router
module Server = Pref_server.Server
module Client = Pref_server.Client

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let host = "127.0.0.1"

(* synthetic cars: a categorical shard/group attribute plus numeric
   preference dimensions *)
let makes = [| "audi"; "bmw"; "opel"; "vw"; "ford" |]

let cars_schema =
  Schema.make
    [
      ("make", Value.TStr);
      ("price", Value.TInt);
      ("power", Value.TInt);
      ("mileage", Value.TInt);
    ]

let cars ~seed ~n =
  let st = Random.State.make [| seed; 0xca5 |] in
  Relation.make cars_schema
    (List.init n (fun _ ->
         Tuple.make
           [
             Value.Str makes.(Random.State.int st (Array.length makes));
             Value.Int (Random.State.int st 50_000);
             Value.Int (Random.State.int st 300);
             Value.Int (Random.State.int st 200_000);
           ]))

(* ------------------------------------------------------------------ *)
(* Pure merge soundness                                                *)

(* Execute [sql] sharded: plan, run the shard statement on every
   partition, gather, final pass. Returns the decision and the result. *)
let sharded_run ~scheme ~shards rel sql =
  let q = Parser.parse_query sql in
  let shard_map = Shard_map.add Shard_map.empty ~table:"cars" scheme in
  match Merge.plan ~shard_map q with
  | Error e -> Alcotest.fail e
  | Ok Merge.Proxy -> Alcotest.fail ("expected a scatter plan for " ^ sql)
  | Ok (Merge.Scatter d) ->
    let parts = Shard_map.partition scheme ~shards rel in
    let shard_results =
      Array.to_list parts
      |> List.map (fun part ->
             let r = Exec.run [ ("cars", part) ] d.Merge.shard_sql in
             (r.Exec.relation, r.Exec.flags))
    in
    (match Merge.gather shard_results with
    | Error e -> Alcotest.fail e
    | Ok (union, _) ->
      let r =
        Merge.finish ~config:Engine.default
          ~deadline:(Engine.deadline_of Engine.default)
          d union
      in
      (d, r.Exec.relation))

let merge_parity ~scheme ~shards ~expect_merge rel sql =
  let expected = (Exec.run [ ("cars", rel) ] sql).Exec.relation in
  let d, got = sharded_run ~scheme ~shards rel sql in
  check
    (Printf.sprintf "merge_needed for %s" sql)
    expect_merge d.Merge.merge_needed;
  check
    (Printf.sprintf "sharded = single-node for %s (%d shards)" sql shards)
    true
    (Relation.equal_as_sets got expected)

let test_merge_winnow_regime () =
  (* regime 1: a final winnow pass over the gathered union *)
  List.iter
    (fun seed ->
      List.iter
        (fun shards ->
          let rel = cars ~seed ~n:(120 + (37 * seed)) in
          merge_parity ~scheme:(Shard_map.Hash "mileage") ~shards
            ~expect_merge:true rel
            "SELECT * FROM cars PREFERRING LOWEST(price) AND HIGHEST(power)";
          merge_parity
            ~scheme:
              (Shard_map.Range ("price", [ Value.Int 15_000; Value.Int 35_000 ]))
            ~shards:3 ~expect_merge:true rel
            "SELECT make, price FROM cars WHERE mileage <= 150000 PREFERRING \
             LOWEST(price) CASCADE HIGHEST(power)";
          (* GROUPING on an attribute that is NOT the shard key still
             needs the final winnow: one group spans shards *)
          merge_parity ~scheme:(Shard_map.Hash "mileage") ~shards
            ~expect_merge:true rel
            "SELECT * FROM cars PREFERRING LOWEST(price) GROUPING make")
        [ 2; 3; 4 ])
    [ 0; 1; 2 ]

let test_merge_grouping_regime () =
  (* regime 2: GROUPING covers the hash key — groups are shard-local,
     the union is already exact and the final winnow is skipped *)
  List.iter
    (fun seed ->
      let rel = cars ~seed ~n:150 in
      merge_parity ~scheme:(Shard_map.Hash "make") ~shards:3
        ~expect_merge:false rel
        "SELECT * FROM cars PREFERRING LOWEST(price) GROUPING make";
      merge_parity ~scheme:(Shard_map.Hash "make") ~shards:4
        ~expect_merge:false rel
        "SELECT make, price FROM cars WHERE power >= 50 PREFERRING \
         LOWEST(price) GROUPING make")
    [ 3; 4; 5 ]

let test_merge_no_pref_regime () =
  (* regime 3: no preference — a plain scan unions exactly *)
  List.iter
    (fun shards ->
      let rel = cars ~seed:6 ~n:140 in
      merge_parity ~scheme:(Shard_map.Hash "make") ~shards ~expect_merge:false
        rel "SELECT * FROM cars WHERE price <= 30000")
    [ 2; 3 ]

let test_shard_statement_shape () =
  let plan_for ~scheme sql =
    let q = Parser.parse_query sql in
    let shard_map = Shard_map.add Shard_map.empty ~table:"cars" scheme in
    match Merge.plan ~shard_map q with
    | Ok (Merge.Scatter d) -> d
    | Ok Merge.Proxy -> Alcotest.fail "expected Scatter"
    | Error e -> Alcotest.fail e
  in
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  (* BUT ONLY may only run in the final pass *)
  let d =
    plan_for ~scheme:(Shard_map.Hash "make")
      "SELECT * FROM cars PREFERRING price AROUND 20000 BUT ONLY \
       DISTANCE(price) <= 5000"
  in
  check "shard statement drops BUT ONLY" false
    (contains d.Merge.shard_sql "BUT ONLY");
  check "final keeps BUT ONLY" true (d.Merge.final.Ast.but_only <> []);
  (* TOP over a non-scorable BMO set must not truncate shard results *)
  let d =
    plan_for ~scheme:(Shard_map.Hash "make")
      "SELECT * FROM cars PREFERRING LOWEST(price) GROUPING make TOP 5"
  in
  check "TOP stripped from shard statement" false
    (contains d.Merge.shard_sql "TOP");
  (* no preference: TOP + ORDER BY survive on the shards *)
  let d =
    plan_for ~scheme:(Shard_map.Hash "make")
      "SELECT * FROM cars ORDER BY price TOP 5"
  in
  check "no-pref TOP kept on shards" true (contains d.Merge.shard_sql "TOP");
  check "no-pref ORDER BY kept on shards" true
    (contains d.Merge.shard_sql "ORDER BY");
  (* joins against a sharded table are rejected *)
  let q = Parser.parse_query "SELECT * FROM cars, specs" in
  let shard_map =
    Shard_map.add Shard_map.empty ~table:"cars" (Shard_map.Hash "make")
  in
  check "sharded join rejected" true
    (match Merge.plan ~shard_map q with Error _ -> true | Ok _ -> false);
  (* replicated and unregistered tables proxy *)
  let q = Parser.parse_query "SELECT * FROM specs" in
  check "unregistered proxies" true
    (Merge.plan ~shard_map q = Ok Merge.Proxy)

(* ------------------------------------------------------------------ *)
(* End-to-end over sockets                                             *)

let specs =
  Relation.make
    (Schema.make [ ("part", Value.TStr); ("weight", Value.TInt) ])
    [
      Tuple.make [ Value.Str "engine"; Value.Int 120 ];
      Tuple.make [ Value.Str "wheel"; Value.Int 9 ];
    ]

let fleet = cars ~seed:11 ~n:240

let with_cluster ?(shards = 3) ?(scheme = Shard_map.Hash "mileage") f =
  let parts = Shard_map.partition scheme ~shards fleet in
  let servers =
    Array.to_list parts
    |> List.map (fun part ->
           Server.start
             ~config:
               {
                 Server.default_config with
                 host;
                 port = 0;
                 executors = 1;
                 max_inflight = 8;
               }
             ~env:[ ("cars", part); ("specs", specs) ]
             ())
  in
  let backends =
    List.map (fun s -> { Router.bhost = host; bport = Server.port s }) servers
  in
  let config =
    {
      Router.default_config with
      host;
      port = 0;
      backends;
      shard_map = Shard_map.add Shard_map.empty ~table:"cars" scheme;
      shard_timeout_s = 5.;
      down_backoff_s = 0.005;
    }
  in
  let router = Router.start ~config () in
  Fun.protect
    ~finally:(fun () ->
      Router.stop router;
      List.iter (fun s -> try Server.stop s with _ -> ()) servers)
    (fun () -> f router servers)

let with_client router f =
  let c = Client.connect ~host ~port:(Router.port router) () in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let pref_sql =
  "SELECT * FROM cars PREFERRING LOWEST(price) AND HIGHEST(power)"

let test_router_parity () =
  with_cluster (fun router _servers ->
      with_client router (fun c ->
          check "ping" true (Client.ping c);
          let expected =
            (Exec.run [ ("cars", fleet) ] pref_sql).Exec.relation
          in
          (match Client.query_reply c pref_sql with
          | Error e -> Alcotest.fail e
          | Ok reply ->
            check "scatter = single-node" true
              (Relation.equal_as_sets reply.Client.rel expected);
            check "complete" true (reply.Client.flags = Engine.complete);
            check "served by all shards" true
              (reply.Client.served = Some (3, 3)));
          (* merge-skipped regime over the wire: GROUPING covers the
             shard key on a make-sharded cluster is exercised below; here
             GROUPING over the mileage-sharded cluster still merges *)
          let grouped =
            "SELECT * FROM cars PREFERRING LOWEST(price) GROUPING make"
          in
          let expected =
            (Exec.run [ ("cars", fleet) ] grouped).Exec.relation
          in
          (match Client.query_reply c grouped with
          | Error e -> Alcotest.fail e
          | Ok reply ->
            check "grouped scatter = single-node" true
              (Relation.equal_as_sets reply.Client.rel expected));
          (* unsharded tables proxy verbatim, no served word *)
          match Client.query_reply c "SELECT * FROM specs" with
          | Error e -> Alcotest.fail e
          | Ok reply ->
            check "proxied parity" true
              (Relation.equal_as_sets reply.Client.rel specs);
            check "proxied responses carry no served" true
              (reply.Client.served = None)))

let test_router_merge_skip_wire () =
  with_cluster ~scheme:(Shard_map.Hash "make") (fun router _servers ->
      with_client router (fun c ->
          let grouped =
            "SELECT * FROM cars PREFERRING LOWEST(price) GROUPING make"
          in
          let expected =
            (Exec.run [ ("cars", fleet) ] grouped).Exec.relation
          in
          match Client.query_reply c grouped with
          | Error e -> Alcotest.fail e
          | Ok reply ->
            check "shard-local groups = single-node" true
              (Relation.equal_as_sets reply.Client.rel expected));
      let skipped =
        List.assoc_opt "router.merge_skipped" (Router.counters router)
      in
      check "merge was skipped" true (skipped = Some 1))

let test_router_partial_on_dead_backend () =
  with_cluster (fun router servers ->
      with_client router (fun c ->
          (* warm parity first *)
          (match Client.query_reply c pref_sql with
          | Ok reply -> check "warm 3/3" true (reply.Client.served = Some (3, 3))
          | Error e -> Alcotest.fail e);
          (* kill one backend; the router degrades instead of failing *)
          Server.stop (List.nth servers 2);
          match Client.query_reply c pref_sql with
          | Error e -> Alcotest.fail e
          | Ok reply ->
            check "served=2/3 after a death" true
              (reply.Client.served = Some (2, 3));
            check "partial flagged" true reply.Client.flags.Engine.partial;
            (* the rows that did arrive are still sound: maxima of the
               two surviving partitions *)
            let survivors =
              let parts =
                Shard_map.partition (Shard_map.Hash "mileage") ~shards:3 fleet
              in
              Relation.make (Relation.schema fleet)
                (Relation.rows parts.(0) @ Relation.rows parts.(1))
            in
            let expected =
              (Exec.run [ ("cars", survivors) ] pref_sql).Exec.relation
            in
            check "partial result = maxima of surviving shards" true
              (Relation.equal_as_sets reply.Client.rel expected));
      check "shard_down counted" true
        (match List.assoc_opt "router.shard_down" (Router.counters router) with
        | Some n -> n > 0
        | None -> false))

let test_router_session_state () =
  with_cluster (fun router _servers ->
      with_client router (fun c ->
          (* maxrows caps once, at the final pass *)
          (match Client.set c ~key:"maxrows" ~value:"2" with
          | Ok line -> check "set confirms" true (line = "maxrows: 2")
          | Error e -> Alcotest.fail e);
          (match Client.query_reply c pref_sql with
          | Ok reply ->
            check "row cap applies at the final pass" true
              (Relation.cardinality reply.Client.rel = 2
              && reply.Client.flags.Engine.truncated)
          | Error e -> Alcotest.fail e);
          (match Client.set c ~key:"maxrows" ~value:"off" with
          | Ok _ -> ()
          | Error e -> Alcotest.fail e);
          (* prepared statements live at the router *)
          (match Client.prepare c ~name:"best" pref_sql with
          | Ok _ -> ()
          | Error e -> Alcotest.fail e);
          let expected =
            (Exec.run [ ("cars", fleet) ] pref_sql).Exec.relation
          in
          (match Client.query_reply c "@best" with
          | Ok reply ->
            check "prepared = direct" true
              (Relation.equal_as_sets reply.Client.rel expected)
          | Error e -> Alcotest.fail e);
          (* sessions are isolated: a second connection sees no cap *)
          with_client router (fun c2 ->
              match Client.query_reply c2 pref_sql with
              | Ok reply ->
                check "fresh connection uncapped" true
                  (not reply.Client.flags.Engine.truncated)
              | Error e -> Alcotest.fail e)))

let test_router_trace_and_stats () =
  with_cluster (fun router _servers ->
      with_client router (fun c ->
          let trace = Client.fresh_trace () in
          (match Client.query_reply ~trace c pref_sql with
          | Ok reply ->
            check "router echoes the request trace" true
              (reply.Client.echoed = Some trace)
          | Error e -> Alcotest.fail e);
          match Client.stats c with
          | Error e -> Alcotest.fail e
          | Ok kvs ->
            check "router.queries counted" true
              (match List.assoc_opt "router.queries" kvs with
              | Some v -> int_of_string v >= 1
              | None -> false);
            check "backend counters summed under shards." true
              (match List.assoc_opt "shards.server.queries" kvs with
              | Some v -> int_of_string v >= 3
              | None -> false);
            check "per-shard health exported" true
              (List.assoc_opt "shard.0.up" kvs = Some "1")))

let test_router_explain () =
  with_cluster (fun router _servers ->
      with_client router (fun c ->
          let contains s sub =
            let n = String.length sub in
            let rec go i =
              i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
            in
            go 0
          in
          match Client.explain c pref_sql with
          | Error e -> Alcotest.fail e
          | Ok body ->
            check "explain names the scatter-gather" true
              (contains body "scatter-gather over 3 shard(s)");
            check "explain prices the plan" true (contains body "<- chosen");
            check "explain shows the shard statement" true
              (contains body "shard statement:");
            check "explain includes per-shard plans" true
              (contains body "shard 0 plan:")))

(* ------------------------------------------------------------------ *)
(* Changing preferences through the router                             *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* A stand-in backend: answers each SET with DONE and records it, and
   every other request with an error. *)
let with_recording_backend f =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen sock 4;
  let port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  let m = Mutex.create () and sets = ref [] in
  let serve fd =
    let rec loop () =
      match Pref_server.Protocol.read_frame fd with
      | None -> ()
      | Some payload ->
        let resp =
          match Pref_server.Protocol.parse_request payload with
          | Ok (Pref_server.Protocol.Set (k, v)) ->
            Mutex.protect m (fun () -> sets := (k, v) :: !sets);
            Pref_server.Protocol.Done (k ^ ": " ^ v)
          | _ ->
            Pref_server.Protocol.Err
              { kind = "exec"; retriable = false; message = "stand-in"; trace = None }
        in
        Pref_server.Protocol.write_frame fd (Pref_server.Protocol.encode_response resp);
        loop ()
    in
    (try loop () with _ -> ());
    try Unix.close fd with _ -> ()
  in
  let acceptor =
    Thread.create
      (fun () ->
        try
          while true do
            let fd, _ = Unix.accept sock in
            ignore (Thread.create serve fd)
          done
        with _ -> ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.shutdown sock Unix.SHUTDOWN_ALL with _ -> ());
      Thread.join acceptor;
      Unix.close sock)
    (fun () -> f port (fun () -> Mutex.protect m (fun () -> List.rev !sets)))

let test_router_set_replay () =
  with_recording_backend (fun bport replayed ->
      let config =
        {
          Router.default_config with
          host;
          port = 0;
          backends = [ { Router.bhost = host; bport } ];
          shard_timeout_s = 5.;
        }
      in
      let router = Router.start ~config () in
      Fun.protect ~finally:(fun () -> Router.stop router) @@ fun () ->
      with_client router (fun c ->
          let set key value =
            match Client.set c ~key ~value with
            | Ok _ -> ()
            | Error e -> Alcotest.fail e
          in
          (* no shard channel is open yet: the SETs are only logged *)
          for i = 1 to 1000 do
            set "deadline" (string_of_int i)
          done;
          set "profile" "on";
          set "DEADLINE" "5000";
          (* the first shard request dials the backend and replays the log *)
          ignore (Client.query c "SELECT * FROM cars");
          Alcotest.(check (list (pair string string)))
            "one SET per key, latest value, first-set order"
            [ ("deadline", "5000"); ("profile", "on") ]
            (replayed ())))

let test_router_refine () =
  with_cluster (fun router _servers ->
      with_client router (fun c ->
          (* no preceding statement: a clean error, connection survives *)
          (match Client.refine c "LOWEST(price)" with
          | Ok _ -> Alcotest.fail "refine without a seed must fail"
          | Error msg -> check "names the problem" true (contains msg "refine"));
          check "connection survives" true (Client.ping c);
          (match Client.query c pref_sql with
          | Ok _ -> ()
          | Error e -> Alcotest.fail e);
          (* the revision re-runs over the same shard channels and equals
             a single-node evaluation of the revised statement *)
          let term = "LOWEST(price) PRIOR TO LOWEST(mileage)" in
          let expected =
            (Exec.run [ ("cars", fleet) ]
               ("SELECT * FROM cars PREFERRING " ^ term))
              .Exec.relation
          in
          (match Client.refine c term with
          | Ok (rel, _) ->
            check "routed refine = single-node" true
              (Relation.equal_as_sets rel expected)
          | Error e -> Alcotest.fail e);
          (* the revised statement is now the seed for the next REFINE *)
          let term2 = "(" ^ term ^ ") AND HIGHEST(power)" in
          let expected2 =
            (Exec.run [ ("cars", fleet) ]
               ("SELECT * FROM cars PREFERRING " ^ term2))
              .Exec.relation
          in
          match Client.refine c term2 with
          | Ok (rel, _) ->
            check "chained routed refine" true
              (Relation.equal_as_sets rel expected2)
          | Error e -> Alcotest.fail e))

let test_router_dml () =
  with_cluster (fun router _servers ->
      with_client router (fun c ->
          let count table =
            match Client.query c ("SELECT * FROM " ^ table) with
            | Ok (rel, _) -> Relation.cardinality rel
            | Error e -> Alcotest.fail e
          in
          check_int "fleet before" 240 (count "cars");
          (* a sharded insert lands on the owning shard only *)
          (match Client.insert c ~table:"cars" "vw,1,299,1" with
          | Ok line -> check "ack" true (contains line "inserted into cars")
          | Error e -> Alcotest.fail e);
          check_int "fleet grew" 241 (count "cars");
          (* deletes broadcast; exactly one shard matches *)
          (match Client.delete c ~table:"cars" "vw,1,299,1" with
          | Ok line ->
            check "delete ack names one shard" true
              (contains line "deleted from cars (1 shard(s))")
          | Error e -> Alcotest.fail e);
          check_int "fleet shrank back" 240 (count "cars");
          (* absent rows are a plain error after the broadcast *)
          (match Client.delete c ~table:"cars" "vw,1,299,1" with
          | Ok _ -> Alcotest.fail "deleting an absent row must fail"
          | Error msg ->
            check "absent delete" true (contains msg "no matching row"));
          (* unregistered tables are replicated: inserts keep every
             backend in step *)
          (match Client.insert c ~table:"specs" "bolt,1" with
          | Ok line ->
            check "replicated ack" true
              (contains line "inserted into specs on 3/3 backend(s)")
          | Error e -> Alcotest.fail e);
          check_int "replicated insert visible via proxy" 3 (count "specs");
          match Client.delete c ~table:"specs" "bolt,1" with
          | Ok line ->
            check "replicated delete hits all copies" true
              (contains line "deleted from specs (3 shard(s))")
          | Error e -> Alcotest.fail e))

let test_router_subscribe () =
  with_cluster (fun router _servers ->
      with_client router (fun sub ->
          with_client router (fun writer ->
              let replica = ref [] in
              let apply (d : Client.delta) =
                let remove_one t l =
                  let rec go acc = function
                    | [] -> List.rev acc
                    | x :: rest ->
                      if Tuple.equal x t then List.rev_append acc rest
                      else go (x :: acc) rest
                  in
                  go [] l
                in
                if d.Client.d_resync then
                  replica := Relation.rows d.Client.d_added
                else
                  replica :=
                    List.fold_left
                      (fun acc t -> remove_one t acc)
                      !replica
                      (Relation.rows d.Client.d_removed)
                    @ Relation.rows d.Client.d_added
              in
              let replica_rel () = Relation.make cars_schema !replica in
              let expected_now rel =
                (Exec.run [ ("cars", rel) ] pref_sql).Exec.relation
              in
              (match Client.subscribe sub pref_sql with
              | Ok (snapshot, flags) ->
                check "routed snapshot = single-node" true
                  (Relation.equal_as_sets snapshot (expected_now fleet));
                check "complete" true (flags = Engine.complete);
                replica := Relation.rows snapshot
              | Error e -> Alcotest.fail e);
              (* a dominating insert through a second router connection
                 arrives as one plain delta after the final winnow *)
              (match Client.insert writer ~table:"cars" "vw,0,999,1" with
              | Ok _ -> ()
              | Error e -> Alcotest.fail e);
              let champion =
                Tuple.make
                  [
                    Value.Str "vw"; Value.Int 0; Value.Int 999; Value.Int 1;
                  ]
              in
              (match Client.next_delta ~timeout_s:5. sub with
              | Some d ->
                check "plain delta" true (not d.Client.d_resync);
                apply d;
                check "champion evicts the whole BMO set" true
                  (Relation.equal_as_sets (replica_rel ())
                     (Relation.make cars_schema [ champion ]))
              | None -> Alcotest.fail "no delta for the routed insert");
              (* deleting it promotes the previous winners back *)
              (match Client.delete writer ~table:"cars" "vw,0,999,1" with
              | Ok _ -> ()
              | Error e -> Alcotest.fail e);
              (match Client.next_delta ~timeout_s:5. sub with
              | Some d ->
                apply d;
                check "replica back to the original BMO set" true
                  (Relation.equal_as_sets (replica_rel ())
                     (expected_now fleet))
              | None -> Alcotest.fail "no delta for the routed delete");
              check "router counted the deltas" true
                (match
                   List.assoc_opt "router.deltas" (Router.counters router)
                 with
                | Some n -> n >= 2
                | None -> false))))

let test_router_subscribe_proxy () =
  (* replicated tables must subscribe on ONE backend: a union of n
     identical replicas would stream duplicate BMO rows *)
  with_cluster (fun router _servers ->
      with_client router (fun sub ->
          with_client router (fun writer ->
              (match
                 Client.subscribe sub
                   "SELECT * FROM specs PREFERRING HIGHEST(weight)"
               with
              | Ok (snapshot, _) ->
                check "proxied snapshot has no duplicates" true
                  (Relation.equal_as_sets snapshot
                     (Relation.make (Relation.schema specs)
                        [ Tuple.make [ Value.Str "engine"; Value.Int 120 ] ])
                  && Relation.cardinality snapshot = 1)
              | Error e -> Alcotest.fail e);
              (* the broadcast insert reaches every replica but streams
                 exactly one delta downstream *)
              (match Client.insert writer ~table:"specs" "turbo,500" with
              | Ok _ -> ()
              | Error e -> Alcotest.fail e);
              (match Client.next_delta ~timeout_s:5. sub with
              | Some d ->
                check "one added row, no duplicates" true
                  (Relation.cardinality d.Client.d_added = 1
                  && Relation.cardinality d.Client.d_removed = 1)
              | None -> Alcotest.fail "no delta for the replicated insert");
              match Client.next_delta ~timeout_s:0.3 sub with
              | exception Client.Timeout -> ()
              | Some _ -> Alcotest.fail "duplicate delta from a replica"
              | None -> Alcotest.fail "stream closed unexpectedly")))

let suite =
  [
    Alcotest.test_case "merge: final-winnow regime parity" `Slow
      test_merge_winnow_regime;
    Alcotest.test_case "merge: grouping-covers-key regime parity" `Quick
      test_merge_grouping_regime;
    Alcotest.test_case "merge: no-preference regime parity" `Quick
      test_merge_no_pref_regime;
    Alcotest.test_case "merge: shard statement shape" `Quick
      test_shard_statement_shape;
    Alcotest.test_case "router: scatter parity over sockets" `Quick
      test_router_parity;
    Alcotest.test_case "router: merge skipped on shard-local groups" `Quick
      test_router_merge_skip_wire;
    Alcotest.test_case "router: partial result on a dead backend" `Quick
      test_router_partial_on_dead_backend;
    Alcotest.test_case "router: session state (SET/PREPARE)" `Quick
      test_router_session_state;
    Alcotest.test_case "router: trace echo and STATS aggregation" `Quick
      test_router_trace_and_stats;
    Alcotest.test_case "router: EXPLAIN prices the scatter" `Quick
      test_router_explain;
    Alcotest.test_case "router: redial replays one SET per key" `Quick
      test_router_set_replay;
    Alcotest.test_case "router: REFINE re-runs over the shards" `Quick
      test_router_refine;
    Alcotest.test_case "router: DML placement and broadcast" `Quick
      test_router_dml;
    Alcotest.test_case "router: SUBSCRIBE merges shard deltas" `Quick
      test_router_subscribe;
    Alcotest.test_case "router: SUBSCRIBE proxies replicated tables" `Quick
      test_router_subscribe_proxy;
  ]

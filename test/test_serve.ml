(* The serving spine, pinned on both endpoints that share it: a single
   prefserve (Server) and a prefroute (Router) over two prefserve
   shards. Connection admission, frame-level error recovery, drain with
   live streams, REFINE across another connection's DML, and routed
   subscriber backpressure. *)

open Pref_relation
open Pref_server
module Router = Pref_router.Router
module Shard_map = Pref_router.Shard_map

let check = Alcotest.(check bool)
let host = "127.0.0.1"

(* A running endpoint, whichever process answers it. [label] is also the
   counter prefix. *)
type endpoint = {
  label : string;
  port : int;
  counters : unit -> (string * int) list;
  stop : unit -> unit;
}

let shard_config =
  { Server.default_config with host; port = 0; executors = 1; max_inflight = 8 }

(* Serve [name] = [rel]: directly, or hash-sharded on [key] over two
   backends behind a router. [max_connections] bounds the endpoint under
   test, never the shards behind a router. *)
let with_endpoint ?(max_connections = 64) kind (name, rel, key) f =
  match kind with
  | `Server ->
    let s =
      Server.start ~config:{ shard_config with max_connections }
        ~env:[ (name, rel) ] ()
    in
    Fun.protect
      ~finally:(fun () -> Server.stop s)
      (fun () ->
        f
          {
            label = "server";
            port = Server.port s;
            counters = (fun () -> Server.counters s);
            stop = (fun () -> Server.stop s);
          })
  | `Router ->
    let scheme = Shard_map.Hash key in
    let shards =
      Array.to_list (Shard_map.partition scheme ~shards:2 rel)
      |> List.map (fun part ->
             Server.start ~config:shard_config ~env:[ (name, part) ] ())
    in
    let config =
      {
        Router.default_config with
        host;
        port = 0;
        max_connections;
        backends =
          List.map (fun s -> { Router.bhost = host; bport = Server.port s }) shards;
        shard_map = Shard_map.add Shard_map.empty ~table:name scheme;
        shard_timeout_s = 5.;
        down_backoff_s = 0.005;
      }
    in
    let r = Router.start ~config () in
    Fun.protect
      ~finally:(fun () ->
        Router.stop r;
        List.iter Server.stop shards)
      (fun () ->
        f
          {
            label = "router";
            port = Router.port r;
            counters = (fun () -> Router.counters r);
            stop = (fun () -> Router.stop r);
          })

let counter ep name =
  let key = ep.label ^ "." ^ name in
  match List.assoc_opt key (ep.counters ()) with
  | Some v -> v
  | None -> Alcotest.failf "no counter %s" key

let with_client ep f =
  let c = Client.connect ~host ~port:ep.port () in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

(* Raw sockets, for frames the client library never sends and for
   reading a rejection without writing first. *)
let raw_connect ep =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, ep.port));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.25;
  fd

let read_response fd =
  let deadline = Unix.gettimeofday () +. 10. in
  let on_wait () =
    if Unix.gettimeofday () > deadline then Alcotest.fail "no response frame"
  in
  match Protocol.read_frame ~on_wait fd with
  | None -> Alcotest.fail "connection closed before a response"
  | Some payload -> (
    match Protocol.parse_response payload with
    | Ok resp -> resp
    | Error e -> Alcotest.fail e)

let feed_schema = Schema.make [ ("k", Value.TInt); ("pad", Value.TStr) ]
let feed_row k pad = Tuple.make [ Value.Int k; Value.Str pad ]

let feed =
  ( "feed",
    Relation.make feed_schema
      (List.init 20 (fun k -> feed_row k (Printf.sprintf "r%d" k))),
    "k" )

let remove_one t l =
  let rec go acc = function
    | [] -> List.rev acc
    | x :: rest ->
      if Tuple.equal x t then List.rev_append acc rest else go (x :: acc) rest
  in
  go [] l

(* Apply one delta frame to a client-side replica of the BMO set. *)
let apply replica (d : Client.delta) =
  if d.Client.d_resync then replica := Relation.rows d.Client.d_added
  else
    replica :=
      List.fold_left
        (fun acc t -> remove_one t acc)
        !replica
        (Relation.rows d.Client.d_removed)
      @ Relation.rows d.Client.d_added

(* ------------------------------------------------------------------ *)

let lifecycle kind =
  with_endpoint ~max_connections:2 kind feed (fun ep ->
      (* a syntactically valid frame with a garbage payload is answered,
         and the connection stays usable; it then idles *)
      let idle = raw_connect ep in
      Protocol.write_frame idle "\001garbage\npayload";
      (match read_response idle with
      | Protocol.Err { kind = "proto"; retriable = false; _ } -> ()
      | _ -> Alcotest.failf "%s: garbage must get ERR proto" ep.label);
      Protocol.write_frame idle (Protocol.encode_request Protocol.Ping);
      check (ep.label ^ ": usable after ERR proto") true
        (read_response idle = Protocol.Pong);
      (* the second slot holds an open SUBSCRIBE stream *)
      let sub = Client.connect ~host ~port:ep.port () in
      (match Client.subscribe sub "SELECT * FROM feed PREFERRING HIGHEST(k)" with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      (* past max_connections: a retriable busy, then a close *)
      let rejected = counter ep "connections_rejected" in
      let extra = raw_connect ep in
      (match read_response extra with
      | Protocol.Err { kind = "busy"; retriable = true; _ } -> ()
      | _ -> Alcotest.failf "%s: an extra connection must get [busy]" ep.label);
      Unix.close extra;
      check (ep.label ^ ": rejection counted") true
        (counter ep "connections_rejected" = rejected + 1);
      (* the drain returns with both still open *)
      ep.stop ();
      check (ep.label ^ ": no connection survives the drain") true
        (counter ep "active_connections" = 0);
      Client.close sub;
      Unix.close idle)

let test_lifecycle () = List.iter lifecycle [ `Server; `Router ]

(* REFINE after another connection's INSERT: the revision is well defined
   over the updated relation, and equals a cold local run of it. *)
let refine_after_dml kind =
  let schema =
    Schema.make [ ("id", Value.TInt); ("price", Value.TInt); ("power", Value.TInt) ]
  in
  let car id price power =
    Tuple.make [ Value.Int id; Value.Int price; Value.Int power ]
  in
  let rows = List.init 20 (fun i -> car i (10_000 + (i * 997 mod 7_000)) (60 + (i * 37 mod 150))) in
  with_endpoint kind ("cars", Relation.make schema rows, "id") (fun ep ->
      with_client ep (fun a ->
          with_client ep (fun b ->
              (match Client.query a "SELECT * FROM cars PREFERRING LOWEST(price)" with
              | Ok _ -> ()
              | Error e -> Alcotest.fail e);
              (match Client.insert b ~table:"cars" "99,9000,250" with
              | Ok _ -> ()
              | Error e -> Alcotest.fail e);
              let term = "LOWEST(price) PRIOR TO HIGHEST(power)" in
              let cold =
                (Pref_sql.Exec.run
                   [ ("cars", Relation.make schema (rows @ [ car 99 9000 250 ])) ]
                   ("SELECT * FROM cars PREFERRING " ^ term))
                  .Pref_sql.Exec.relation
              in
              match Client.refine a term with
              | Ok (rel, _) ->
                check (ep.label ^ ": refine after DML = cold run") true
                  (Relation.equal_as_sets rel cold)
              | Error e -> Alcotest.failf "%s: %s" ep.label e)))

let test_refine_after_dml () = List.iter refine_after_dml [ `Server; `Router ]

(* The routed mirror of the server's subscriber overflow: a stalled
   subscriber costs the router at most its bounded queue, and recovers
   through one resync frame. *)
let test_routed_backpressure () =
  with_endpoint `Router feed (fun ep ->
      with_client ep (fun sub ->
          with_client ep (fun writer ->
              let replica = ref [] in
              (match
                 Client.subscribe sub "SELECT * FROM feed PREFERRING HIGHEST(k)"
               with
              | Ok (snapshot, _) -> replica := Relation.rows snapshot
              | Error e -> Alcotest.fail e);
              (* stop reading and flood with wide rows until the bounded
                 queue overflows *)
              let pad = String.make 65536 'x' in
              let last = ref 19 and k = ref 100 in
              while counter ep "subscription_resyncs" = 0 && !k < 1000 do
                (match
                   Client.insert writer ~table:"feed" (Printf.sprintf "%d,%s" !k pad)
                 with
                | Ok _ -> last := !k
                | Error e -> Alcotest.fail e);
                incr k
              done;
              check "the flood forced an overflow" true
                (counter ep "subscription_resyncs" >= 1);
              let final = Relation.make feed_schema [ feed_row !last pad ] in
              let saw_resync = ref false in
              let budget = ref 2000 in
              while
                not
                  (Relation.equal_as_sets (Relation.make feed_schema !replica) final)
              do
                decr budget;
                if !budget = 0 then Alcotest.fail "replica never converged";
                match Client.next_delta ~timeout_s:10. sub with
                | Some d ->
                  if d.Client.d_resync then saw_resync := true;
                  apply replica d
                | None -> Alcotest.fail "stream closed while catching up"
              done;
              check "recovery went through a resync frame" true !saw_resync)))

let suite =
  [
    Alcotest.test_case "serve: lifecycle parity (server, router)" `Quick
      test_lifecycle;
    Alcotest.test_case "serve: REFINE after DML (server, router)" `Quick
      test_refine_after_dml;
    Alcotest.test_case "serve: routed subscriber backpressure" `Quick
      test_routed_backpressure;
  ]

(* Starting and stopping a workload's in-process deployment: prefserve's
   defaults (analyzer installed, static check on) through Server.start,
   and for routed_rw a Router.start in front of two hash-on-mileage
   shards with one executor each. *)

open Pref_relation
module Server = Pref_server.Server
module Router = Pref_router.Router
module Client = Pref_server.Client
module Shard_map = Pref_router.Shard_map
module Engine = Pref_bmo.Engine

let host = "127.0.0.1"
let shards = 2
let shard_scheme = Shard_map.Hash "mileage"

(* A deadline that never expires: the session takes the interruptible
   kernel path every production query with deadline_ms takes. *)
let never_ms = "1000000000"

type t = {
  sp : Gen.spec;
  base : Relation.t;
  parts : Relation.t array;  (** shard tables, routed_rw only *)
  servers : Server.t list;
  router : Router.t option;
  port : int;  (** where clients connect: the router, or the one server *)
  clients : Client.t array;  (** closed-loop connections *)
  subscriber : (Client.t * Relation.t) option;  (** connection and snapshot *)
}

let server_config ~executors ~cache =
  let d = Server.default_config in
  {
    d with
    Server.host;
    port = 0;
    executors;
    max_inflight = 2 * executors;
    session_config = { d.Server.session_config with Engine.cache; check = true };
  }

let connect port = Client.connect ~host ~port ()

let expect_ok what = function
  | Ok v -> v
  | Error msg -> failwith (Printf.sprintf "%s: %s" what msg)

let start (sp : Gen.spec) =
  Pref_analysis.Install.install ();
  let base = Gen.base_table sp in
  let env = [ (Gen.table, base) ] in
  let servers, router, parts =
    match sp.Gen.workload with
    | Gen.Serve_cold ->
      let cfg = server_config ~executors:Server.default_config.Server.executors ~cache:false in
      ([ Server.start ~config:cfg ~env () ], None, [||])
    | Gen.Session_mix ->
      (* prefserve sessions start with cache on, but the process-wide
         cache itself starts disabled; switch it on at its default
         capacity (128 entries / 64 MiB) so the cache tiers do work *)
      Pref_bmo.Cache.set_enabled true;
      Pref_bmo.Cache.clear Pref_bmo.Cache.global;
      let cfg = server_config ~executors:Server.default_config.Server.executors ~cache:true in
      ([ Server.start ~config:cfg ~env () ], None, [||])
    | Gen.Routed_rw ->
      let parts = Shard_map.partition shard_scheme ~shards base in
      let servers =
        Array.to_list
          (Array.map
             (fun part ->
               Server.start ~config:(server_config ~executors:1 ~cache:false)
                 ~env:[ (Gen.table, part) ] ())
             parts)
      in
      let config =
        {
          Router.default_config with
          Router.host;
          port = 0;
          backends =
            List.map (fun s -> { Router.bhost = host; bport = Server.port s }) servers;
          shard_map = Shard_map.add Shard_map.empty ~table:Gen.table shard_scheme;
        }
      in
      (servers, Some (Router.start ~config ()), parts)
  in
  let port =
    match router with Some r -> Router.port r | None -> Server.port (List.hd servers)
  in
  let clients =
    Array.init sp.Gen.query_clients (fun _ ->
        let c = connect port in
        if sp.Gen.workload = Gen.Serve_cold then
          ignore (expect_ok "SET deadline" (Client.set c ~key:"deadline" ~value:never_ms));
        c)
  in
  let subscriber =
    if sp.Gen.subscribe then begin
      let c = connect port in
      let snapshot, _ = expect_ok "SUBSCRIBE" (Client.subscribe c Gen.subscription) in
      Some (c, snapshot)
    end
    else None
  in
  { sp; base; parts; servers; router; port; clients; subscriber }

(* Close the subscriber first: its reader thread must see EOF before the
   servers drain. *)
let close_subscriber t = Option.iter (fun (c, _) -> Client.close c) t.subscriber

let stop t =
  Array.iter Client.close t.clients;
  close_subscriber t;
  Option.iter Router.stop t.router;
  List.iter Server.stop t.servers;
  if t.sp.Gen.workload = Gen.Session_mix then begin
    Pref_bmo.Cache.clear Pref_bmo.Cache.global;
    Pref_bmo.Cache.set_enabled false
  end

(* Set up [reps] times, tearing down all but the last deployment; returns
   it with the median set-up time in seconds. *)
let start_timed sp ~reps =
  let rec go k times =
    let t0 = Pref_obs.Clock.now_ns () in
    let d = start sp in
    let s = Pref_obs.Clock.ms_of_ns (Int64.sub (Pref_obs.Clock.now_ns ()) t0) /. 1000. in
    if k = reps then (d, Stats.median (s :: times))
    else begin
      stop d;
      go (k + 1) (s :: times)
    end
  in
  go 1 []

(* Server-side counters summed over every server of the deployment. *)
let server_counter t key =
  List.fold_left
    (fun acc s -> acc + Option.value ~default:0 (List.assoc_opt key (Server.counters s)))
    0 t.servers

let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let rec scan () =
      match input_line ic with
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.)
      | _ -> scan ()
      | exception End_of_file -> nan
    in
    scan ()
  with Sys_error _ -> nan

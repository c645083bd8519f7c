(* The traced run: the workload's seeded request stream replayed
   single-threaded. Each request first goes through the layers in-process,
   in the server's order, through their public functions — one span per
   call — and then over the wire, so the wire latency minus the summed
   on-path self times is the time no layer accounts for (framing, socket
   I/O, executor hand-off, session bookkeeping).

   The replay never changes the state the wire request will see: it
   evaluates with the cache off and learns the tier the server will hit
   from a non-counting Cache.probe. Replayed DML re-patches cache entries
   of the old table version, which the server's own patch then rewrites
   with the same rows. *)

open Pref_relation
open Pref_sql
module Engine = Pref_bmo.Engine
module Cache = Pref_bmo.Cache
module Protocol = Pref_server.Protocol
module Client = Pref_server.Client
module Session = Pref_engine.Session
module Revise = Pref_engine.Revise
module Merge = Pref_router.Merge
module Shard_map = Pref_router.Shard_map

type ctx = {
  st : Spans.t;
  node_cfg : Engine.config;  (** the serving session's effective config *)
  mutable table : Relation.t;  (** mirror of the full table *)
  mutable parts : Relation.t array;  (** mirrors of the shard tables *)
  mirror : Session.t option;  (** mirror of the serving session (revision seed) *)
  mutable last_term : string option;  (** the mirror's last statement's term *)
  sub_inc : Pref_bmo.Incremental.t option;
  shard_conns : Client.t array;
  (* per-request observations, besides the spans *)
  mutable wire : (int * Loop.kind * float) list;  (** request id, kind, wire ms *)
  mutable tiers : string list;
  mutable plans : string list;
  mutable cost_ratios : float list;
  mutable dom_tests : float list;
  mutable rows_in : float list;
  mutable rows_out : float list;
  mutable delta_rows : float list;
  mutable response_bytes : float list;
  mutable refine_plans : string list;
  mutable merge_in : float list;
  mutable merge_out : float list;
  mutable rtts : (float * float) list;  (** max and min shard RTT per routed query *)
  mutable router_overhead : float list;
}

let node_config (sp : Gen.spec) =
  let d = Pref_server.Server.default_config.Pref_server.Server.session_config in
  match sp.Gen.workload with
  | Gen.Serve_cold ->
    { d with Engine.cache = false; deadline_ms = Some (float_of_string Deploy.never_ms) }
  | Gen.Session_mix -> { d with Engine.cache = true }
  | Gen.Routed_rw -> { d with Engine.cache = false }

let router_config = Pref_router.Router.default_config.Pref_router.Router.session_config

let create (d : Deploy.t) =
  let st = Spans.create () in
  let sp = d.Deploy.sp in
  let node_cfg = node_config sp in
  let env = [ (Gen.table, d.Deploy.base) ] in
  let sub_inc =
    if not sp.Gen.subscribe then None
    else begin
      let q = Parser.parse_query Gen.subscription in
      let p = Option.get (Exec.full_preference q) in
      let register rel =
        Spans.time st ~req:0 ~on_path:false "incremental.register" (fun () ->
            Pref_bmo.Incremental.create (Relation.schema rel) p (Relation.rows rel))
      in
      (* routed: each shard maintains its own partition's subscription *)
      Array.iter (fun part -> ignore (register part)) d.Deploy.parts;
      Some (register d.Deploy.base)
    end
  in
  {
    st;
    node_cfg;
    table = d.Deploy.base;
    parts = d.Deploy.parts;
    mirror =
      (if sp.Gen.workload = Gen.Session_mix then
         Some (Session.create ~config:{ node_cfg with Engine.cache = false } ~env ())
       else None);
    last_term = None;
    sub_inc;
    shard_conns =
      Array.of_list
        (List.map
           (fun s -> Deploy.connect (Pref_server.Server.port s))
           (if sp.Gen.workload = Gen.Routed_rw then d.Deploy.servers else []));
    wire = [];
    tiers = [];
    plans = [];
    cost_ratios = [];
    dom_tests = [];
    rows_in = [];
    rows_out = [];
    delta_rows = [];
    response_bytes = [];
    refine_plans = [];
    merge_in = [];
    merge_out = [];
    rtts = [];
    router_overhead = [];
  }

let close ctx = Array.iter Client.close ctx.shard_conns

(* The response codec, as the server encodes and the client decodes. *)
let codec ctx ~req resp =
  let payload =
    Spans.time ctx.st ~req "protocol.encode_response" (fun () -> Protocol.encode_response resp)
  in
  ignore
    (Spans.time ctx.st ~req "protocol.parse_response" (fun () ->
         Protocol.parse_response payload));
  ctx.response_bytes <- float_of_int (String.length payload) :: ctx.response_bytes

let rows_response relation =
  Protocol.Rows { relation; flags = Engine.complete; served = None; trace = None }

(* Exec.run_query_within with its profile phases as child spans laid end
   to end from its start; [evaluate] and [translate] are re-measured by
   query.sigma and translate.pref, so those children are off the path. *)
let exec_run ctx ~req ~on_path ~cfg ~env q =
  let deadline = Engine.deadline_of cfg in
  let cfg = { cfg with Engine.check = false; profile = true; cache = false } in
  let start_ns = Spans.now () in
  let r = Exec.run_query_within ~deadline cfg env q in
  let end_ns = Spans.now () in
  let id = Spans.add ctx.st ~req ~on_path "exec.run" ~start_ns ~end_ns in
  let at = ref start_ns in
  List.iter
    (fun ph ->
      let ns = Int64.of_float (ph.Pref_obs.Profile.phase_ms *. 1e6) in
      let name = ph.Pref_obs.Profile.phase_name in
      let child_on_path = on_path && name <> "evaluate" && name <> "translate" in
      ignore
        (Spans.add ctx.st ~req ~parent:id ~on_path:child_on_path
           ~attrs:[ ("source", "profile") ]
           ("exec." ^ name) ~start_ns:!at ~end_ns:(Int64.add !at ns));
      at := Int64.add !at ns)
    (match r.Exec.profile with Some p -> p.Pref_obs.Profile.phases | None -> []);
  r

(* One statement through the node-level layers. When the serving session
   consults the shared cache, the probe (and, on a hit, not the kernel) is
   what the server pays. *)
let node_query ctx ~req ~on_path ~cfg ~table sql =
  let env = [ (Gen.table, table) ] in
  let t name f = Spans.time ctx.st ~req ~on_path name f in
  let q = t "parser.parse" (fun () -> Parser.parse_query sql) in
  let p = Option.get (t "translate.pref" (fun () -> Exec.full_preference q)) in
  ignore (t "analysis.check" (fun () -> Exec.static_check env q));
  let schema = Relation.schema table in
  let filtered =
    match q.Ast.where with
    | None -> table
    | Some c -> Relation.select (Translate.condition schema c) table
  in
  let p_eval = Preferences.Rewrite.simplify p in
  let probe_cache = cfg.Engine.cache && Cache.is_enabled () && q.Ast.grouping = [] in
  let hit =
    if not probe_cache then false
    else begin
      let tier =
        t "cache.probe" (fun () ->
            Cache.probe Cache.global ~gate:cfg.Engine.costmodel schema p_eval filtered)
      in
      ctx.tiers <-
        (match tier with
        | None -> "miss"
        | Some Cache.Exact -> "exact"
        | Some (Cache.Semantic _) -> "semantic")
        :: ctx.tiers;
      tier <> None
    end
  in
  (* the cost model's choice, priced and then executed; the server's BNL
     configuration does not run it, so it stays off the path *)
  let plan, trace =
    Spans.time ctx.st ~req ~on_path:false "planner.choose" (fun () ->
        Pref_bmo.Planner.choose_traced ~cache:false ~costmodel:cfg.Engine.costmodel schema
          p_eval filtered)
  in
  let kind = Pref_bmo.Planner.plan_kind plan in
  ctx.plans <- kind :: ctx.plans;
  let start_ns = Spans.now () in
  ignore (Pref_bmo.Planner.execute schema p_eval filtered plan);
  let end_ns = Spans.now () in
  ignore (Spans.add ctx.st ~req ~on_path:false "planner.execute" ~start_ns ~end_ns);
  (match List.assoc_opt kind trace.Pref_bmo.Planner.t_costs with
  | Some predicted when predicted > 0. ->
    ctx.cost_ratios <- (Spans.ms_of (Int64.sub end_ns start_ns) /. predicted) :: ctx.cost_ratios
  | _ -> ());
  (* the σ[P] kernel under the session's config, cache off *)
  let kernel_cfg = { cfg with Engine.cache = false; max_rows = None } in
  let deadline = Engine.deadline_of cfg in
  let scorable_top = q.Ast.top <> None && q.Ast.grouping = [] && Preferences.Pref.is_scorable p in
  (* on a hit the server serves the cached set and runs no kernel *)
  if not (scorable_top || hit) then begin
    let out =
      t "query.sigma" (fun () ->
          match q.Ast.grouping with
          | [] -> fst (Pref_bmo.Query.sigma_within ~deadline kernel_cfg schema p_eval filtered)
          | by ->
            fst
              (Pref_bmo.Query.sigma_groupby_within ~deadline kernel_cfg schema p_eval ~by
                 filtered))
    in
    (* the window pass's exact dominance-test count, group by group *)
    let dom, count = Pref_bmo.Dominance.counting (Pref_bmo.Dominance.of_pref schema p_eval) in
    (match q.Ast.grouping with
    | [] -> ignore (Pref_bmo.Bnl.maxima dom (Relation.rows filtered))
    | by ->
      List.iter
        (fun g -> ignore (Pref_bmo.Bnl.maxima dom (Relation.rows g)))
        (Relation.group_by filtered by));
    ctx.dom_tests <- float_of_int (count ()) :: ctx.dom_tests;
    ctx.rows_in <- float_of_int (Relation.cardinality filtered) :: ctx.rows_in;
    ctx.rows_out <- float_of_int (Relation.cardinality out) :: ctx.rows_out
  end;
  let r = exec_run ctx ~req ~on_path ~cfg ~env q in
  r.Exec.relation

let preference_of sql =
  match Exec.full_preference (Parser.parse_query sql) with
  | Some p -> p
  | None -> invalid_arg "statement without a preference"

(* REFINE: the serving session revises its last statement from its seed. *)
let refine ctx ~req term =
  let m = Option.get ctx.mirror in
  (match ctx.last_term with
  | Some old ->
    let old_p = preference_of (Gen.select_preferring old)
    and new_p = preference_of (Gen.select_preferring term) in
    ignore
      (Spans.time ctx.st ~req ~on_path:false "revise.classify" (fun () ->
           Revise.classify ~old_p ~new_p))
  | None -> ());
  let deadline = Engine.deadline_of ctx.node_cfg in
  let start_ns = Spans.now () in
  let o = Session.refine_within m ~deadline term in
  let end_ns = Spans.now () in
  let route =
    match o.Revise.o_plan with
    | "refine:seed" -> "seed"
    | "refine:hot" -> "hot"
    | "refine:same" -> "same"
    | _ -> "cold"
  in
  ignore (Spans.add ctx.st ~req ("revise.refine." ^ route) ~start_ns ~end_ns);
  ctx.refine_plans <- route :: ctx.refine_plans;
  ctx.last_term <- Some term;
  o.Revise.o_result.Exec.relation

(* Single-node DML: the session's table update and seed patch, the cache
   patch and the subscription delta, as apply_dml runs them before the
   acknowledgement. *)
let dml ctx ~req op =
  let insert, row =
    match op with
    | Gen.Insert r -> (true, r)
    | Gen.Delete r -> (false, r)
    | Gen.Query _ | Gen.Refine _ -> assert false
  in
  let old_rel = ctx.table in
  let new_rel =
    if insert then Relation.add_row old_rel row
    else begin
      let removed = ref false in
      Relation.make (Relation.schema old_rel)
        (List.filter
           (fun r ->
             if (not !removed) && Tuple.equal r row then begin
               removed := true;
               false
             end
             else true)
           (Relation.rows old_rel))
    end
  in
  (match ctx.mirror with
  | Some m ->
    (* the table update and seed patch alone; the cache patch is its own span *)
    let cache_on = Cache.is_enabled () in
    Cache.set_enabled false;
    Spans.time ctx.st ~req "session.dml" (fun () ->
        if insert then ignore (Session.insert m Gen.table row)
        else ignore (Session.delete m Gen.table row));
    Cache.set_enabled cache_on;
    if cache_on then
      ignore
        (Spans.time ctx.st ~req "cache.patch" (fun () ->
             if insert then Cache.on_insert Cache.global ~old_rel ~new_rel row
             else Cache.on_delete Cache.global ~old_rel ~new_rel row))
  | None -> ());
  ctx.table <- new_rel;
  (* routed: the row lives on the shard its key hashes to *)
  if Array.length ctx.parts > 0 then begin
    let schema = Relation.schema old_rel in
    let dest =
      Shard_map.partition Deploy.shard_scheme ~shards:Deploy.shards (Relation.make schema [ row ])
    in
    ctx.parts <-
      Array.mapi
        (fun i part ->
          if Relation.cardinality dest.(i) = 0 then part
          else if insert then Relation.add_row part row
          else Relation.make schema (List.filter (fun r -> not (Tuple.equal r row)) (Relation.rows part)))
        ctx.parts
  end;
  (* single node: the subscriber's delta is computed before the ack; the
     router re-winnows asynchronously, off the DML's path *)
  Option.iter
    (fun inc ->
      let delta =
        Spans.time ctx.st ~req ~on_path:(Array.length ctx.parts = 0) "incremental.delta" (fun () ->
            if insert then Some (Pref_bmo.Incremental.insert_delta inc row)
            else Pref_bmo.Incremental.delete_delta inc row)
      in
      match delta with
      | Some { Pref_bmo.Incremental.added; removed } ->
        ctx.delta_rows <- float_of_int (List.length added + List.length removed) :: ctx.delta_rows
      | None -> ())
    ctx.sub_inc

(* A routed QUERY: the router's parse, merge plan and static check, the
   parallel shard round trips, gather and final pass. Each shard's own
   layers are replayed after, off the path: their time is inside the
   shard round trip. *)
let routed_query ctx ~req sql =
  let t name f = Spans.time ctx.st ~req name f in
  let q = t "parser.parse" (fun () -> Parser.parse_query sql) in
  let decision =
    match
      t "merge.plan" (fun () ->
          Merge.plan ~shard_map:(Shard_map.add Shard_map.empty ~table:Gen.table Deploy.shard_scheme) q)
    with
    | Ok (Merge.Scatter d) -> d
    | Ok Merge.Proxy | Error _ -> failwith ("routed statement does not scatter: " ^ sql)
  in
  ignore (t "analysis.check" (fun () -> Exec.static_check [] q));
  let n = Array.length ctx.shard_conns in
  let replies = Array.make n None in
  let rtt = Array.make n (0L, 0L) in
  let (), scatter_id =
    Spans.record ctx.st ~req "router.scatter" (fun () ->
        Array.iter Thread.join
          (Array.mapi
             (fun i c ->
               Thread.create
                 (fun () ->
                   let start_ns = Spans.now () in
                   replies.(i) <- Some (Client.query_reply c decision.Merge.shard_sql);
                   rtt.(i) <- (start_ns, Spans.now ()))
                 ())
             ctx.shard_conns))
  in
  (* the round trips overlap, so the fan-out's wall time is the scatter
     span's own; each round trip is kept as an off-path measurement
     rather than a child, whose self times would sum *)
  Array.iteri
    (fun i (start_ns, end_ns) ->
      ignore
        (Spans.add ctx.st ~req ~on_path:false
           ~attrs:[ ("shard", string_of_int i); ("within", string_of_int scatter_id) ]
           "router.shard_rtt" ~start_ns ~end_ns))
    rtt;
  let results =
    Array.to_list
      (Array.map
         (function
           | Some (Ok r) -> (r.Client.rel, r.Client.flags)
           | Some (Error msg) -> failwith ("shard error: " ^ msg)
           | None -> failwith "shard round trip missing")
         replies)
  in
  let union, _flags =
    match t "merge.gather" (fun () -> Merge.gather results) with
    | Ok u -> u
    | Error msg -> failwith msg
  in
  let deadline = Engine.deadline_of router_config in
  let r =
    t "merge.finish" (fun () -> Merge.finish ~config:router_config ~deadline decision union)
  in
  ctx.merge_in <- float_of_int (Relation.cardinality union) :: ctx.merge_in;
  ctx.merge_out <- float_of_int (Relation.cardinality r.Exec.relation) :: ctx.merge_out;
  let rtt_ms = Array.map (fun (a, b) -> Spans.ms_of (Int64.sub b a)) rtt in
  ctx.rtts <- (Array.fold_left max 0. rtt_ms, Array.fold_left min infinity rtt_ms) :: ctx.rtts;
  Array.iter
    (fun part ->
      ignore
        (node_query ctx ~req ~on_path:false ~cfg:ctx.node_cfg ~table:part
           decision.Merge.shard_sql))
    ctx.parts;
  r.Exec.relation

(* Replay [op] in-process, then send it over the wire. *)
let step ctx ~req ~conn ~version op =
  let payload = Protocol.encode_request (Gen.request op) in
  ignore
    (Spans.time ctx.st ~req "protocol.parse_request" (fun () -> Protocol.parse_request payload));
  let routed = Array.length ctx.parts > 0 in
  (match op with
  | Gen.Query sql ->
    let rel =
      if routed then routed_query ctx ~req sql
      else begin
        let rel = node_query ctx ~req ~on_path:true ~cfg:ctx.node_cfg ~table:ctx.table sql in
        (* keep the mirror session's revision seed in step *)
        Option.iter
          (fun m ->
            ignore
              (Spans.time ctx.st ~req ~on_path:false "session.track" (fun () ->
                   Session.run m sql));
            ctx.last_term <-
              Some
                (let q = Parser.parse_query sql in
                 Pretty.pref_to_string (Option.get q.Ast.preferring)))
          ctx.mirror;
        rel
      end
    in
    codec ctx ~req (rows_response rel)
  | Gen.Refine term -> codec ctx ~req (rows_response (refine ctx ~req term))
  | Gen.Insert _ | Gen.Delete _ ->
    dml ctx ~req op;
    codec ctx ~req (Protocol.Done "ok"));
  let r = Loop.issue conn op ~version in
  ctx.wire <- (req, Loop.kind_of op, Loop.latency_ms r) :: ctx.wire;
  r

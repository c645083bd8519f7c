open Pref_sql

type config = {
  host : string;
  port : int;
  max_connections : int;
  max_inflight : int;
  executors : int;
  session_config : Pref_bmo.Engine.config;
}

let default_executors = max 1 (min 16 (Domain.recommended_domain_count ()))

let default_config =
  {
    host = "127.0.0.1";
    port = 5877;
    max_connections = 64;
    max_inflight = 2 * default_executors;
    executors = default_executors;
    (* the wire rejects error-severity queries when an analyzer is
       installed (Pref_analysis.Install.install, done by bin/prefserve) *)
    session_config = { Pref_bmo.Engine.default with check = true };
  }

let g_inflight = Pref_obs.Metrics.gauge "server.inflight"
let g_queue = Pref_obs.Metrics.gauge "server.queue_depth"

type t = {
  cfg : config;
  registry : Translate.registry;
  mutable env : Exec.env;  (* authoritative tables, under [env_m] *)
  env_m : Mutex.t;
  env_v : int Atomic.t;  (* bumped by every DML write-back *)
  (* a subscription carries its table and the maintained BMO state that
     DML patches *)
  spine : (string * Pref_bmo.Incremental.t) Serve.t;
  (* executor state, all under [m] *)
  m : Mutex.t;
  nonempty : Condition.t;  (* a job was queued, or executors must stop *)
  idle : Condition.t;  (* queued + running reached 0 *)
  queue : (unit -> unit) Queue.t;
  mutable queued : int;
  mutable running : int;
  mutable exec_stop : bool;
  mutable workers : unit Domain.t array;
  c_queries : Serve.counter;
  c_busy : Serve.counter;
  c_drain_rej : Serve.counter;
  c_degraded : Serve.counter;
  c_deadline : Serve.counter;
  c_truncated : Serve.counter;
  c_errors : Serve.counter;
}

let port t = Serve.port t.spine

let sync_gauges t =
  (* called with [t.m] held *)
  Pref_obs.Metrics.set g_queue (float_of_int t.queued);
  Pref_obs.Metrics.set g_inflight (float_of_int (t.queued + t.running))

(* ------------------------------------------------------------------ *)
(* Executor domains                                                    *)

let worker t () =
  let rec loop () =
    Mutex.lock t.m;
    while Queue.is_empty t.queue && not t.exec_stop do
      Condition.wait t.nonempty t.m
    done;
    if Queue.is_empty t.queue then Mutex.unlock t.m
    else begin
      let job = Queue.pop t.queue in
      t.queued <- t.queued - 1;
      t.running <- t.running + 1;
      sync_gauges t;
      Mutex.unlock t.m;
      (try job () with _ -> ());
      Mutex.lock t.m;
      t.running <- t.running - 1;
      sync_gauges t;
      if t.running = 0 && t.queued = 0 then Condition.broadcast t.idle;
      Mutex.unlock t.m;
      loop ()
    end
  in
  loop ()

let submit t job =
  Mutex.protect t.m (fun () ->
      if Serve.draining t.spine then Error `Draining
      else if t.queued + t.running >= t.cfg.max_inflight then Error `Busy
      else begin
        Queue.push job t.queue;
        t.queued <- t.queued + 1;
        sync_gauges t;
        Condition.signal t.nonempty;
        Ok ()
      end)

(* drain step: every admitted job finishes and flushes its response *)
let quiesce t () =
  Mutex.protect t.m (fun () ->
      while t.queued + t.running > 0 do
        Condition.wait t.idle t.m
      done)

let release t () =
  Mutex.protect t.m (fun () ->
      t.exec_stop <- true;
      Condition.broadcast t.nonempty);
  Array.iter Domain.join t.workers;
  t.workers <- [||]

(* Run [f] on an executor domain and hand its outcome back to the
   connection thread, which waits: requests on one connection are
   strictly serial. Past the admission bound, or while draining, the
   request is rejected retriably instead. *)
let on_executor t ?trace f =
  let done_m = Mutex.create () in
  let done_c = Condition.create () in
  let outcome = ref None in
  let job () =
    let r = try Ok (f ()) with e -> Error e in
    Mutex.protect done_m (fun () ->
        outcome := Some r;
        Condition.signal done_c)
  in
  match submit t job with
  | Ok () -> (
    Mutex.protect done_m (fun () ->
        while !outcome = None do
          Condition.wait done_c done_m
        done);
    match !outcome with
    | Some (Ok v) -> `Ok v
    | Some (Error e) -> `Exn e
    | None -> assert false)
  | Error reject ->
    let counter, kind, message =
      match reject with
      | `Busy -> (t.c_busy, "busy", "server at max in-flight queries; retry")
      | `Draining ->
        (t.c_drain_rej, "draining", "server is draining; retry elsewhere")
    in
    Serve.bump counter;
    `Rejected (Serve.err ?trace ~retriable:true kind message)

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)

let counters t =
  let queued, running = Mutex.protect t.m (fun () -> (t.queued, t.running)) in
  Serve.counters t.spine
  @ [
      ("server.queue_depth", queued);
      ("server.running", running);
      ("server.inflight", queued + running);
      ("server.slow_queries", Pref_engine.Slowlog.count ());
    ]

(* Histogram summaries for the extended STATS response: count, sum and
   interpolated p50/p90/p99 per non-empty histogram. Only meaningful
   while telemetry is on (otherwise the registry stays at zero). *)
let histogram_lines () =
  List.concat_map
    (fun (name, s) ->
      [
        (name ^ ".count", string_of_int s.Pref_obs.Metrics.s_count);
        (name ^ ".sum", Printf.sprintf "%.6g" s.Pref_obs.Metrics.s_sum);
        (name ^ ".p50", Printf.sprintf "%.6g" s.Pref_obs.Metrics.s_p50);
        (name ^ ".p90", Printf.sprintf "%.6g" s.Pref_obs.Metrics.s_p90);
        (name ^ ".p99", Printf.sprintf "%.6g" s.Pref_obs.Metrics.s_p99);
      ])
    (Pref_obs.Metrics.summaries ())
  |> List.map (fun (k, v) -> ("hist." ^ k, v))

(* A failed statement: counted, and answered with its error frame. *)
let failed t ?trace e =
  Serve.bump t.c_queries;
  Serve.bump t.c_errors;
  Serve.error_response ?trace e

let count_answer t (flags : Pref_bmo.Engine.flags) =
  Serve.bump t.c_queries;
  if flags.partial then Serve.bump t.c_degraded;
  if flags.truncated then Serve.bump t.c_truncated

(* ------------------------------------------------------------------ *)
(* Shared tables: sessions are per-connection, the environment is not.
   [t.env] is authoritative; DML rewrites it under [env_m] and bumps
   [env_v], and every connection re-snapshots its session environment
   when it notices the version moved ([refresh_env]). The result cache
   followed the write already: the DML's patch moved its entries to the
   new table version. *)

let refresh_env_locked t session last_v =
  let v = Atomic.get t.env_v in
  if v <> !last_v then begin
    last_v := v;
    Pref_engine.Session.set_env session t.env
  end

let refresh_env t session last_v =
  if Atomic.get t.env_v <> !last_v then
    Mutex.protect t.env_m (fun () -> refresh_env_locked t session last_v)

(* ------------------------------------------------------------------ *)
(* Subscriptions                                                       *)

let subscribe_shape_message =
  "SUBSCRIBE needs SELECT * FROM <table> PREFERRING ... (one table, no \
   WHERE / TOP / BUT ONLY / GROUP BY)"

let subscribable (q : Ast.query) =
  (match q.Ast.select with [ Ast.Star ] -> true | _ -> false)
  && q.Ast.where = None && q.Ast.top = None && q.Ast.but_only = []
  && q.Ast.grouping = []
  && match q.Ast.from with [ _ ] -> true | _ -> false

let find_table t table =
  match Exec.find_table t.env table with
  | Some rel -> rel
  | None -> raise (Exec.Unknown_table { name = table; hint = None })

(* Patch one subscription's maintained BMO state with a DML event on
   [table]; the rows that entered and left the answer. *)
let patch table op row (sub_table, inc) =
  let delta =
    if not (String.equal sub_table table) then None
    else
      match op with
      | Protocol.Dml_insert -> Some (Pref_bmo.Incremental.insert_delta inc row)
      | Protocol.Dml_delete -> Pref_bmo.Incremental.delete_delta inc row
  in
  match delta with
  | Some { Pref_bmo.Incremental.added; removed } -> (added, removed)
  | None -> ([], [])

(* Returns [true] when the connection should keep serving requests (the
   subscription never started), [false] once the stream ended. *)
let run_subscribe t session fd last_v ?trace sql =
  refresh_env t session last_v;
  let setup () =
    (* build the maintained state and register under [env_m]: no DML can
       slip between the snapshot and the first queued delta *)
    Mutex.protect t.env_m (fun () ->
        let q = Parser.parse_query sql in
        if not (subscribable q) then raise (Exec.Error subscribe_shape_message);
        let table = String.lowercase_ascii (List.hd q.Ast.from) in
        let rel = find_table t table in
        let p =
          match Exec.full_preference ~registry:t.registry q with
          | Some p -> p
          | None -> raise (Exec.Error "SUBSCRIBE needs a PREFERRING clause")
        in
        let schema = Pref_relation.Relation.schema rel in
        let inc =
          Pref_bmo.Incremental.create schema p (Pref_relation.Relation.rows rel)
        in
        let snapshot () =
          Pref_relation.Relation.rows (Pref_bmo.Incremental.result inc)
        in
        ( Serve.subscribe t.spine ?trace schema ~snapshot (table, inc),
          Pref_bmo.Incremental.result inc ))
  in
  match on_executor t ?trace setup with
  | `Rejected err ->
    Serve.send fd err;
    true
  | `Exn e ->
    Serve.send fd (failed t ?trace e);
    true
  | `Ok (sub, snapshot) ->
    Serve.bump t.c_queries;
    Serve.stream t.spine fd sub
      (Protocol.Rows
         {
           relation = snapshot;
           flags = Pref_bmo.Engine.complete;
           served = None;
           trace;
         });
    false

(* ------------------------------------------------------------------ *)
(* Single-row DML                                                      *)

(* Apply one insert/delete: refresh the session from the authoritative
   environment, run {!Pref_engine.Session.insert}/[delete] (table update
   + cache patch), write the environment back, and
   publish the event to every subscription — all under [env_m], so
   concurrent DML serializes and every subscriber sees events in the
   same order. *)
let apply_dml t session last_v op table row_csv =
  Mutex.protect t.env_m (fun () ->
      refresh_env_locked t session last_v;
      let table = String.lowercase_ascii table in
      let rel = find_table t table in
      let row =
        match
          Protocol.decode_rows (Pref_relation.Relation.schema rel) [ row_csv ]
        with
        | Ok [ row ] -> row
        | Ok _ -> assert false
        | Error msg -> raise (Exec.Error msg)
      in
      let outcome =
        match op with
        | Protocol.Dml_insert ->
          `Applied ("inserted into", Pref_engine.Session.insert session table row)
        | Protocol.Dml_delete -> (
          match Pref_engine.Session.delete session table row with
          | Some patched -> `Applied ("deleted from", patched)
          | None -> `No_match)
      in
      (match outcome with
      | `No_match -> ()
      | `Applied _ ->
        t.env <- Pref_engine.Session.env session;
        let v' = Atomic.get t.env_v + 1 in
        Atomic.set t.env_v v';
        last_v := v';
        List.iter
          (fun sub -> Serve.publish t.spine sub (patch table op row))
          (Serve.subscriptions t.spine));
      (outcome, table))

let run_dml t session fd last_v ?trace op table row_csv =
  Serve.send fd
    (match on_executor t ?trace (fun () -> apply_dml t session last_v op table row_csv) with
    | `Rejected err -> err
    | `Exn e ->
      Serve.bump t.c_errors;
      Serve.error_response ?trace e
    | `Ok (`Applied (verb, patched), table) ->
      Protocol.Done
        (Printf.sprintf "%s %s (%d cached result%s patched)" verb table patched
           (if patched = 1 then "" else "s"))
    | `Ok (`No_match, table) ->
      Serve.err ?trace "exec" (Printf.sprintf "no matching row in %s" table))

(* Span attributes stamping the server-side trace with the wire trace
   context, so a client can stitch its trace to the span dumps in the
   slow-query log. *)
let trace_attrs session trace =
  (match trace with
  | Some tr ->
    [
      ("trace", tr.Protocol.trace_id);
      ("parent_span", tr.Protocol.span_id);
    ]
  | None -> [])
  @ [ ("session", string_of_int (Pref_engine.Session.id session)) ]

let explain_payload session ~analyze ~json ~deadline ?trace sql =
  match Pref_engine.Session.explain_within session ~analyze ~deadline sql with
  | plan ->
    let body =
      if json then
        Pref_obs.Json.to_string (Pref_bmo.Explain.Plan.to_json plan)
      else String.concat "\n" (Pref_bmo.Explain.Plan.to_text plan)
    in
    Protocol.encode_response (Protocol.Explain_resp body)
  | exception e -> Protocol.encode_response (Serve.error_response ?trace e)

(* Evaluate *and* encode on an executor domain, under the session's
   deadline and inside a span stamped with the wire trace context —
   encoding large results is part of the serving cost, and connection
   threads all share one runtime lock, so everything heavy must leave
   them. [f] returns the encoded response payload, which the executor
   writes. *)
let on_session t session fd ?trace span f =
  let deadline = Pref_bmo.Engine.deadline_of (Pref_engine.Session.config session) in
  let answer () =
    let payload =
      Pref_obs.Span.with_span span ~attrs:(trace_attrs session trace) (fun () ->
          f deadline)
    in
    (* the peer may have vanished; the connection thread will see EOF *)
    try Protocol.write_frame fd payload with _ -> ()
  in
  match on_executor t ?trace answer with
  | `Ok () -> ()
  | `Exn e -> Serve.send fd (Serve.error_response ?trace e)
  | `Rejected err -> Serve.send fd err

let rows_payload t ?trace (result : Exec.result) =
  let flags = result.Exec.flags in
  count_answer t flags;
  Protocol.encode_response
    (Protocol.Rows { relation = result.Exec.relation; flags; served = None; trace })

let run_query t session fd ?trace sql =
  on_session t session fd ?trace "server.query" @@ fun deadline ->
  (* a QUERY whose statement starts with EXPLAIN answers with the plan
     (text rendering) instead of rows *)
  match Pref_sql.Parser.explain_prefix sql with
  | Some (analyze, rest) ->
    explain_payload session ~analyze ~json:false ~deadline ?trace rest
  | None -> (
    match Pref_engine.Session.run_within session ~deadline sql with
    | result ->
      if Pref_bmo.Engine.expired deadline then Serve.bump t.c_deadline;
      rows_payload t ?trace result
    | exception e -> Protocol.encode_response (failed t ?trace e))

let run_explain t session fd ~analyze ~json ?trace sql =
  on_session t session fd ?trace "server.explain" @@ fun deadline ->
  explain_payload session ~analyze ~json ~deadline ?trace sql

let run_refine t session fd ?trace term =
  on_session t session fd ?trace "server.refine" @@ fun deadline ->
  match Pref_engine.Session.refine_within session ~deadline term with
  | outcome -> rows_payload t ?trace outcome.Pref_engine.Revise.o_result
  | exception e -> Protocol.encode_response (failed t ?trace e)

(* The local backend: one session per connection over the shared tables,
   evaluating on the executor domains. *)
let connection t fd =
  (* the session's tables and the version they carry ([last_v], see
     refresh_env) are read together, so a concurrent DML cannot slip
     between them and leave the session stale for good *)
  let session, last_v =
    Mutex.protect t.env_m (fun () ->
        ( Pref_engine.Session.create ~registry:t.registry
            ~config:t.cfg.session_config ~env:t.env (),
          ref (Atomic.get t.env_v) ))
  in
  let send = Serve.send fd in
  let handle = function
    | Protocol.Query { sql; trace } ->
      refresh_env t session last_v;
      run_query t session fd ?trace sql;
      true
    | Protocol.Prepare { name; sql; trace } ->
      (match Pref_engine.Session.prepare session ~name sql with
      | () -> send (Protocol.Done ("prepared " ^ name))
      | exception e -> send (Serve.error_response ?trace e));
      true
    | Protocol.Explain { sql; analyze; json; trace } ->
      refresh_env t session last_v;
      run_explain t session fd ~analyze ~json ?trace sql;
      true
    | Protocol.Refine { term; trace } ->
      refresh_env t session last_v;
      run_refine t session fd ?trace term;
      true
    | Protocol.Dml { op; table; row; trace } ->
      run_dml t session fd last_v ?trace op table row;
      true
    | Protocol.Subscribe { sql; trace } ->
      (* on success the connection is a one-way delta stream from here
         on: serve it until the peer or the server closes it *)
      run_subscribe t session fd last_v ?trace sql
    | Protocol.Set (key, value) ->
      (match Pref_engine.Session.set session ~key ~value with
      | Ok line -> send (Protocol.Done line)
      | Error message -> send (Serve.err "set" message));
      true
    | Protocol.Stats ->
      send
        (Protocol.Stats_resp
           (List.map (fun (k, v) -> (k, string_of_int v)) (counters t)
           @ Pref_engine.Session.stats_lines session
           @ histogram_lines ()));
      true
    | Protocol.Ping | Protocol.Metrics _ -> true (* answered by the spine *)
  in
  { Serve.handle; close = ignore }

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let start ?(config = default_config) ?(registry = Translate.default_registry)
    ~env () =
  let spine =
    Serve.create ~name:"server" ~host:config.host ~port:config.port
      ~max_connections:config.max_connections
  in
  let counter = Serve.counter spine in
  let t =
    {
      cfg = config;
      registry;
      env;
      env_m = Mutex.create ();
      env_v = Atomic.make 0;
      spine;
      m = Mutex.create ();
      nonempty = Condition.create ();
      idle = Condition.create ();
      queue = Queue.create ();
      queued = 0;
      running = 0;
      exec_stop = false;
      workers = [||];
      c_queries = counter "queries";
      c_busy = counter "busy_rejected";
      c_drain_rej = counter "draining_rejected";
      c_degraded = counter "degraded";
      c_deadline = counter "deadline_exceeded";
      c_truncated = counter "truncated";
      c_errors = counter "errors";
    }
  in
  t.workers <- Array.init (max 1 config.executors) (fun _ -> Domain.spawn (worker t));
  Serve.serve spine ~quiesce:(quiesce t) ~release:(release t) (connection t);
  t

let request_stop t = Serve.request_stop t.spine
let stop t = Serve.stop t.spine
let wait t = Serve.wait t.spine

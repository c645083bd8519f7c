open Pref_sql
module Client = Pref_server.Client
module Protocol = Pref_server.Protocol
module Serve = Pref_server.Serve
module Relation = Pref_relation.Relation
module Tuple = Pref_relation.Tuple

type backend = { bhost : string; bport : int }

type config = {
  host : string;
  port : int;
  backends : backend list;
  shard_map : Shard_map.t;
  max_connections : int;
  shard_timeout_s : float;
  down_backoff_s : float;
  session_config : Pref_bmo.Engine.config;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 5876;
    backends = [];
    shard_map = Shard_map.empty;
    max_connections = 64;
    shard_timeout_s = 10.;
    down_backoff_s = 0.05;
    (* the backends run the static checker; re-checking the final pass
       would need the analyzer installed in the router process too *)
    session_config = { Pref_bmo.Engine.default with check = false };
  }

let g_up = Pref_obs.Metrics.gauge "router.shards_up"

type health = { mutable failures : int; mutable down_until : float }

type t = {
  cfg : config;
  registry : Translate.registry;
  backends : backend array;
  spine : unit Serve.t;
  health : health array;
  health_m : Mutex.t;
  rr : int Atomic.t;  (* round-robin cursor for proxied requests *)
  (* table schemas learned from shard replies, for DML row placement *)
  schemas_m : Mutex.t;
  schemas : (string, Pref_relation.Schema.t) Hashtbl.t;
  c_queries : Serve.counter;
  c_scatter : Serve.counter;
  c_proxied : Serve.counter;
  c_merged : Serve.counter;
  c_merge_skipped : Serve.counter;
  c_partial : Serve.counter;
  c_shard_down : Serve.counter;
  c_errors : Serve.counter;
}

let port t = Serve.port t.spine
let draining t = Serve.draining t.spine
let nshards t = Array.length t.backends

(* ------------------------------------------------------------------ *)
(* Backend health                                                      *)

let now_s () = Unix.gettimeofday ()

let shard_up t i =
  Mutex.protect t.health_m (fun () -> t.health.(i).down_until <= now_s ())

let shards_up t =
  Mutex.protect t.health_m (fun () ->
      Array.fold_left
        (fun n h -> if h.down_until <= now_s () then n + 1 else n)
        0 t.health)

let mark_down t i =
  Mutex.protect t.health_m (fun () ->
      let h = t.health.(i) in
      h.failures <- h.failures + 1;
      let backoff =
        Float.min 5.0
          (t.cfg.down_backoff_s *. (2. ** float_of_int (h.failures - 1)))
      in
      h.down_until <- now_s () +. backoff);
  Pref_obs.Metrics.set g_up (float_of_int (shards_up t))

let mark_up t i =
  Mutex.protect t.health_m (fun () ->
      let h = t.health.(i) in
      h.failures <- 0;
      h.down_until <- 0.);
  Pref_obs.Metrics.set g_up (float_of_int (shards_up t))

(* ------------------------------------------------------------------ *)
(* Per-connection state                                                *)

type conn = {
  router : t;
  fd : Unix.file_descr;
  mutable config : Pref_bmo.Engine.config;  (* final-pass knobs *)
  mutable prepared : (string * Ast.query) list;
  mutable set_log : (string * string) list;
      (* replayed on redial: one entry per lowercased key with its latest
         value, in first-set order *)
  mutable last_q : Ast.query option;  (* last answered statement, for REFINE *)
  clients : Client.t option array;  (* one lazy channel per backend *)
}

let drop_client conn i =
  match conn.clients.(i) with
  | None -> ()
  | Some c ->
    conn.clients.(i) <- None;
    (try Client.close c with _ -> ())

let get_client conn i =
  match conn.clients.(i) with
  | Some c -> Ok c
  | None -> (
    let t = conn.router in
    let b = t.backends.(i) in
    match
      Client.connect ~timeout_s:t.cfg.shard_timeout_s ~host:b.bhost
        ~port:b.bport ()
    with
    | exception e ->
      mark_down t i;
      Error (Printexc.to_string e)
    | c ->
      (* replay the session's SETs so a rebuilt channel behaves like the
         one it replaces *)
      List.iter
        (fun (k, v) -> try ignore (Client.set c ~key:k ~value:v) with _ -> ())
        conn.set_log;
      conn.clients.(i) <- Some c;
      Ok c)

(* ------------------------------------------------------------------ *)
(* Shard calls                                                         *)

type 'a outcome =
  | O_ok of 'a
  | O_fatal of string  (* deterministic server error: every shard agrees *)
  | O_down of string  (* this shard cannot answer right now *)

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let is_busy msg = has_prefix "[busy]" msg
let is_drain msg = has_prefix "[drain" msg

let shard_err ?trace message = Serve.err ?trace "shard" message
let unavailable ?trace message = Serve.err ?trace ~retriable:true "unavailable" message

let all_unavailable ?trace t msg =
  unavailable ?trace
    (Printf.sprintf "all %d shard(s) unavailable (%s)" (nshards t) msg)

(* One request against shard [i] with the degradation ladder: busy is
   retried within the shard budget, draining a few times (the backend is
   leaving — don't burn the whole budget on it), and lost connections
   mark the shard down for backoff. *)
let with_shard conn i f =
  let t = conn.router in
  if conn.clients.(i) = None && not (shard_up t i) then
    O_down "in health backoff"
  else
    match get_client conn i with
    | Error msg -> O_down msg
    | Ok client ->
      let deadline = now_s () +. t.cfg.shard_timeout_s in
      let drains = ref 0 in
      let rec go client =
        match f client with
        | Ok v ->
          mark_up t i;
          O_ok v
        | Error msg when is_busy msg ->
          if now_s () < deadline then begin
            Thread.delay 0.002;
            go client
          end
          else O_down msg
        | Error msg when is_drain msg ->
          incr drains;
          if !drains <= 3 && now_s () < deadline then begin
            Thread.delay 0.01;
            go client
          end
          else begin
            drop_client conn i;
            mark_down t i;
            O_down msg
          end
        | Error msg -> O_fatal msg
        | exception e ->
          drop_client conn i;
          mark_down t i;
          O_down (Printexc.to_string e)
      in
      go client

(* Fan one request out to every backend; each shard gets its own thread
   (the work is waiting on sockets, not computing). Slot [i] is only
   touched by thread [i]. *)
let scatter conn f =
  let results = Array.map (fun _ -> O_down "unreached") conn.clients in
  let threads =
    Array.mapi
      (fun i _ ->
        Thread.create (fun () -> results.(i) <- with_shard conn i (f i)) ())
      conn.clients
  in
  Array.iter Thread.join threads;
  results

(* Split scattered outcomes: a deterministic error on any shard fails
   the request, no answer at all makes it unavailable, and otherwise [k]
   gets the answers and the shards that were down. *)
let gathered t ?trace results k =
  let oks = ref [] and fatal = ref None and downs = ref [] in
  Array.iteri
    (fun i -> function
      | O_ok v -> oks := (i, v) :: !oks
      | O_fatal msg -> if !fatal = None then fatal := Some msg
      | O_down msg -> downs := (i, msg) :: !downs)
    results;
  match (!fatal, List.rev !oks, List.rev !downs) with
  | Some msg, _, _ -> shard_err ?trace msg
  | None, [], downs ->
    all_unavailable ?trace t
      (match downs with (_, m) :: _ -> m | [] -> "no backends")
  | None, oks, downs -> k oks downs

(* Try shards round-robin until one answers; deterministic errors stop
   the failover — a parse error is a parse error on every replica. *)
let failover t ?trace attempt =
  let n = nshards t in
  let start = Atomic.fetch_and_add t.rr 1 mod n in
  let rec go k last =
    if k >= n then
      Error
        (unavailable ?trace
           (Printf.sprintf "all %d backend(s) unavailable (%s)" n last))
    else
      match attempt ((start + k) mod n) with
      | O_ok v -> Ok v
      | O_fatal msg -> Error (shard_err ?trace msg)
      | O_down msg -> go (k + 1) msg
  in
  go 0 "no backends"

let proxy conn ?trace f = failover conn.router ?trace (fun i -> with_shard conn i f)

(* Each shard request gets a derived span so backend slow-query logs can
   be stitched back to the client's trace through the router hop. *)
let child_trace trace i =
  Option.map
    (fun tr ->
      {
        tr with
        Protocol.span_id = tr.Protocol.span_id ^ "." ^ string_of_int i;
      })
    trace

(* ------------------------------------------------------------------ *)
(* QUERY                                                               *)

(* [@name] resolves against the router's prepared store; everything else
   parses here so the merge planner sees an AST. *)
let resolve_query conn sql =
  let s = String.trim sql in
  if String.length s > 1 && s.[0] = '@' then
    let name = String.trim (String.sub s 1 (String.length s - 1)) in
    match List.assoc_opt name conn.prepared with
    | Some q -> Ok q
    | None ->
      Error
        (Printf.sprintf "no prepared statement %S on this connection" name)
  else
    match Parser.parse_query sql with
    | q -> Ok q
    | exception Parser.Error (msg, pos) ->
      Error (Printf.sprintf "syntax error at offset %d: %s" pos msg)

let scatter_query conn ?trace (d : Merge.decision) =
  let t = conn.router in
  Serve.bump t.c_scatter;
  let results =
    scatter conn (fun i client ->
        Client.query_reply ?trace:(child_trace trace i) client d.Merge.shard_sql)
  in
  Array.iter (function O_down _ -> Serve.bump t.c_shard_down | _ -> ()) results;
  gathered t ?trace results @@ fun oks downs ->
  match
    Merge.gather (List.map (fun (_, r) -> (r.Client.rel, r.Client.flags)) oks)
  with
  | Error message -> Serve.err ?trace "internal" message
  | Ok (union, shard_flags) -> (
    let deadline = Pref_bmo.Engine.deadline_of conn.config in
    match
      Merge.finish ~registry:t.registry ~config:conn.config ~deadline d union
    with
    | result ->
      Serve.bump (if d.Merge.merge_needed then t.c_merged else t.c_merge_skipped);
      let flags = Pref_bmo.Engine.union_flags shard_flags result.Exec.flags in
      let flags =
        { flags with Pref_bmo.Engine.partial =
            flags.Pref_bmo.Engine.partial || downs <> [] }
      in
      if flags.Pref_bmo.Engine.partial then Serve.bump t.c_partial;
      Protocol.Rows
        {
          relation = result.Exec.relation;
          flags;
          served = Some (List.length oks, nshards t);
          trace;
        }
    | exception e -> Serve.error_response ?trace e)

let proxy_query conn ?trace q =
  let t = conn.router in
  Serve.bump t.c_proxied;
  let sql = Pretty.query_to_string q in
  match proxy conn ?trace (fun client -> Client.query_reply ?trace client sql) with
  | Ok reply ->
    if reply.Client.flags.Pref_bmo.Engine.partial then Serve.bump t.c_partial;
    Protocol.Rows
      {
        relation = reply.Client.rel;
        flags = reply.Client.flags;
        served = None;
        trace;
      }
  | Error resp -> resp

(* ------------------------------------------------------------------ *)
(* EXPLAIN                                                             *)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  n = 0 || go 0

(* The shard plans arrive as EXPLAIN text; the chosen alternative's cost
   line reads "  <alt>  <ms>  <- chosen" and the cardinality line
   "  estimated BMO size: <n> (independence model)" — both emitted with
   plain %.*f numbers precisely so they stay machine-readable. *)
let chosen_ms text =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         if contains line "<- chosen" then
           match
             String.split_on_char ' ' line |> List.filter (fun w -> w <> "")
           with
           | _alt :: ms :: _ -> float_of_string_opt ms
           | _ -> None
         else None)
  |> Option.value ~default:0.

let est_rows text =
  let marker = "estimated BMO size: " in
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         let line = String.trim line in
         if has_prefix marker line then
           let rest =
             String.sub line (String.length marker)
               (String.length line - String.length marker)
           in
           let num =
             match String.index_opt rest ' ' with
             | Some i -> String.sub rest 0 i
             | None -> rest
           in
           Option.map int_of_float (float_of_string_opt num)
         else None)
  |> Option.value ~default:0

let indent body =
  String.split_on_char '\n' body
  |> List.map (fun l -> if l = "" then l else "  " ^ l)
  |> String.concat "\n"

let scatter_explain conn ~analyze ~json ?trace (d : Merge.decision) =
  let t = conn.router in
  let results =
    scatter conn (fun i client ->
        Client.explain ~analyze ~json:false
          ?trace:(child_trace trace i)
          client d.Merge.shard_sql)
  in
  gathered t ?trace results @@ fun oks downs ->
  let per_shard_ms = List.map (fun (_, text) -> chosen_ms text) oks in
  let merge_rows =
    List.fold_left (fun acc (_, text) -> acc + est_rows text) 0 oks
  in
  let sg =
    Pref_bmo.Cost.scatter_gather_ms ~per_shard_ms ~merge_rows
      ~dims:d.Merge.dims ~merge:d.Merge.merge_needed
  in
  let body =
    if json then
      Pref_obs.Json.to_string
        (Pref_obs.Json.Obj
           [
             ( "scatter_gather",
               Pref_obs.Json.Obj
                 [
                   ("table", Pref_obs.Json.Str d.Merge.table);
                   ( "scheme",
                     Pref_obs.Json.Str
                       (Shard_map.scheme_to_string d.Merge.scheme) );
                   ("shards", Pref_obs.Json.Int (nshards t));
                   ("answered", Pref_obs.Json.Int (List.length oks));
                   ("shard_statement", Pref_obs.Json.Str d.Merge.shard_sql);
                   ("merge", Pref_obs.Json.Bool d.Merge.merge_needed);
                   ("reason", Pref_obs.Json.Str d.Merge.reason);
                   ( "predicted_ms",
                     Pref_obs.Json.Obj
                       [
                         ( "slowest_shard",
                           Pref_obs.Json.Float sg.Pref_bmo.Cost.sg_slowest_ms
                         );
                         ( "dispatch",
                           Pref_obs.Json.Float sg.Pref_bmo.Cost.sg_dispatch_ms
                         );
                         ("merge", Pref_obs.Json.Float sg.Pref_bmo.Cost.sg_merge_ms);
                         ("total", Pref_obs.Json.Float sg.Pref_bmo.Cost.sg_total_ms);
                       ] );
                   ("estimated_gathered_rows", Pref_obs.Json.Int merge_rows);
                   ( "shard_plans",
                     Pref_obs.Json.List
                       (List.map
                          (fun (i, text) ->
                            Pref_obs.Json.Obj
                              [
                                ("shard", Pref_obs.Json.Int i);
                                ("plan", Pref_obs.Json.Str text);
                              ])
                          oks) );
                 ] );
           ])
    else begin
      let buf = Buffer.create 1024 in
      Buffer.add_string buf
        (Printf.sprintf
           "scatter-gather over %d shard(s): %s (%s), %d/%d answered\n"
           (nshards t) d.Merge.table
           (Shard_map.scheme_to_string d.Merge.scheme)
           (List.length oks) (nshards t));
      Buffer.add_string buf
        (Printf.sprintf "  shard statement: %s\n" d.Merge.shard_sql);
      Buffer.add_string buf
        (Printf.sprintf "  merge: %s%s\n"
           (if d.Merge.merge_needed then "" else "skipped — ")
           d.Merge.reason);
      Buffer.add_string buf "predicted costs (ms):\n";
      Buffer.add_string buf
        (Printf.sprintf "  %-14s %8.3f\n" "slowest-shard" sg.Pref_bmo.Cost.sg_slowest_ms);
      Buffer.add_string buf
        (Printf.sprintf "  %-14s %8.3f\n" "dispatch" sg.Pref_bmo.Cost.sg_dispatch_ms);
      Buffer.add_string buf
        (Printf.sprintf "  %-14s %8.3f\n" "merge" sg.Pref_bmo.Cost.sg_merge_ms);
      Buffer.add_string buf
        (Printf.sprintf "  %-14s %8.3f  <- chosen\n" "total" sg.Pref_bmo.Cost.sg_total_ms);
      Buffer.add_string buf
        (Printf.sprintf "estimated gathered rows: %d\n" merge_rows);
      List.iter
        (fun (i, text) ->
          Buffer.add_string buf (Printf.sprintf "shard %d plan:\n" i);
          Buffer.add_string buf (indent text);
          Buffer.add_char buf '\n')
        oks;
      List.iter
        (fun (i, msg) ->
          Buffer.add_string buf (Printf.sprintf "shard %d: down (%s)\n" i msg))
        downs;
      Buffer.contents buf
    end
  in
  Protocol.Explain_resp body

let answer_explain conn ~analyze ~json ?trace sql =
  let t = conn.router in
  match resolve_query conn sql with
  | Error message -> Serve.err ?trace "parse" message
  | Ok q -> (
    match Merge.plan ~registry:t.registry ~shard_map:t.cfg.shard_map q with
    | Error message -> Serve.err ?trace "exec" message
    | Ok Merge.Proxy -> (
      let sql = Pretty.query_to_string q in
      match
        proxy conn ?trace (fun client ->
            Client.explain ~analyze ~json ?trace client sql)
      with
      | Ok body -> Protocol.Explain_resp body
      | Error resp -> resp)
    | Ok (Merge.Scatter d) -> scatter_explain conn ~analyze ~json ?trace d)

(* Plan [q]: [proxy ()] answers it for replicated / unregistered tables,
   [scatter d] for sharded ones. Static checks run once here, against an
   empty catalog (the rows live on the backends), before a statement is
   scattered N ways — a no-op unless a checker has been installed
   (prefroute installs [Pref_analysis]); warnings and hints are left to
   the backends. Plan and check errors go to [fail]. *)
let route t ?trace q ~fail ~proxy ~scatter =
  match Merge.plan ~registry:t.registry ~shard_map:t.cfg.shard_map q with
  | Error message -> fail (Serve.err ?trace "exec" message)
  | Ok Merge.Proxy -> proxy ()
  | Ok (Merge.Scatter d) -> (
    match
      List.filter
        (fun f -> f.Exec.check_severity = "error")
        (Exec.static_check ~registry:t.registry [] q)
    with
    | [] -> scatter d
    | errors ->
      fail
        (Serve.err ?trace "check"
           (String.concat "; "
              (List.map
                 (fun f ->
                   Printf.sprintf "[%s] at %s: %s" f.Exec.check_code
                     f.Exec.check_path f.Exec.check_message)
                 errors))))

(* Answer one already-parsed statement through the merge planner, and
   remember it as the connection's last statement when rows came back —
   the AST REFINE revises. *)
let answer_parsed conn ?trace q =
  let resp =
    route conn.router ?trace q ~fail:Fun.id
      ~proxy:(fun () -> proxy_query conn ?trace q)
      ~scatter:(scatter_query conn ?trace)
  in
  (match resp with
  | Protocol.Rows _ -> conn.last_q <- Some q
  | _ -> ());
  resp

let answer_query conn ?trace sql =
  (* a QUERY whose statement starts with EXPLAIN answers with the plan,
     matching the single-node server *)
  match Parser.explain_prefix sql with
  | Some (analyze, rest) ->
    answer_explain conn ~analyze ~json:false ?trace rest
  | None -> (
    match resolve_query conn sql with
    | Error message -> Serve.err ?trace "parse" message
    | Ok q -> answer_parsed conn ?trace q)

(* ------------------------------------------------------------------ *)
(* REFINE: revise the connection's last statement and re-route it, the
   way a backend session revises its own: the re-issued statement reaches
   the shards over the same channels, so their result caches serve the
   shard-local evaluations. *)

let answer_refine conn ?trace term =
  match conn.last_q with
  | None ->
    Serve.err ?trace "exec"
      "no preceding preference query to refine (run SELECT ... PREFERRING \
       ... first)"
  | Some q -> (
    match Parser.parse_pref term with
    | exception e -> Serve.error_response ?trace e
    | p -> answer_parsed conn ?trace { q with Ast.preferring = Some p; Ast.cascade = [] })

(* ------------------------------------------------------------------ *)
(* DML: inserts go to the owning shard (shard-map placement on the
   decoded row; replicated and unregistered tables go everywhere),
   deletes broadcast — the row lives on exactly one shard, the others
   answer "no matching row" and are ignored. *)

let is_no_match msg = has_prefix "[exec] no matching row" msg

(* The shard-key placement needs the table's schema, which lives on the
   backends; learn it once from any shard's answer and cache it. *)
let table_schema conn ?trace table =
  let t = conn.router in
  match Mutex.protect t.schemas_m (fun () -> Hashtbl.find_opt t.schemas table) with
  | Some schema -> Ok schema
  | None -> (
    match
      proxy conn ?trace (fun client ->
          Client.query client (Printf.sprintf "SELECT * FROM %s TOP 1" table))
    with
    | Ok (rel, _) ->
      let schema = Relation.schema rel in
      Mutex.protect t.schemas_m (fun () -> Hashtbl.replace t.schemas table schema);
      Ok schema
    | Error resp -> Error resp)

let placement t scheme schema row =
  let pieces =
    Shard_map.partition scheme ~shards:(nshards t) (Relation.make schema [ row ])
  in
  let idx = ref 0 in
  Array.iteri (fun i piece -> if Relation.cardinality piece > 0 then idx := i) pieces;
  !idx

let answer_dml conn ?trace op table row =
  let t = conn.router in
  let table_lc = String.lowercase_ascii table in
  match (op, Shard_map.find t.cfg.shard_map table_lc) with
  | Protocol.Dml_insert, (None | Some Shard_map.Replicated) ->
    (* every backend holds a full copy: keep them all in step *)
    gathered t ?trace
      (scatter conn (fun i client ->
           Client.insert ?trace:(child_trace trace i) client ~table row))
    @@ fun oks _ ->
    Protocol.Done
      (Printf.sprintf "inserted into %s on %d/%d backend(s)" table_lc
         (List.length oks) (nshards t))
  | Protocol.Dml_insert, Some scheme -> (
    match table_schema conn ?trace table_lc with
    | Error resp -> resp
    | Ok schema -> (
      match Protocol.decode_rows schema [ row ] with
      | Error message | (exception Failure message) ->
        Serve.err ?trace "proto" message
      | Ok [] -> assert false
      | Ok (tuple :: _) -> (
        let i = placement t scheme schema tuple in
        match
          with_shard conn i (fun client ->
              Client.insert ?trace:(child_trace trace i) client ~table row)
        with
        | O_ok line -> Protocol.Done line
        | O_fatal msg -> shard_err ?trace msg
        | O_down msg ->
          (* the owning shard is fixed by placement: no failover *)
          unavailable ?trace (Printf.sprintf "shard %d unavailable (%s)" i msg))))
  | Protocol.Dml_delete, _ ->
    let results =
      scatter conn (fun i client ->
          Client.delete ?trace:(child_trace trace i) client ~table row)
    in
    let oks = ref 0 and real_fatal = ref None and downs = ref 0 in
    Array.iter
      (function
        | O_ok _ -> incr oks
        | O_fatal msg when is_no_match msg -> ()
        | O_fatal msg -> if !real_fatal = None then real_fatal := Some msg
        | O_down _ -> incr downs)
      results;
    (match !real_fatal with
    | Some msg -> shard_err ?trace msg
    | None ->
      if !oks > 0 then
        Protocol.Done
          (Printf.sprintf "deleted from %s (%d shard(s))" table_lc !oks)
      else if !downs > 0 then
        all_unavailable ?trace t "row not found on any reachable shard"
      else Serve.err ?trace "exec" (Printf.sprintf "no matching row in %s" table_lc))

(* ------------------------------------------------------------------ *)
(* SUBSCRIBE: routed continuous queries. Each shard subscription keeps
   that shard's BMO set current (absorbing shard resyncs); after every
   shard delta the router re-winnows the union — exact by the
   winnow/union law σ[P](R) = σ[P](σ[P](R1) ∪ ... ∪ σ[P](Rn)) — and
   publishes the multiset diff of consecutive answers to the spine's
   bounded subscriber queue, so the client only ever sees plain deltas
   (or a resync once it falls behind). *)

let remove_row x l =
  let rec go acc = function
    | [] -> None
    | y :: tl ->
      if Tuple.equal x y then Some (List.rev_append acc tl)
      else go (y :: acc) tl
  in
  go [] l

let multiset_diff ~before ~after =
  let removed, added_rev =
    List.fold_left
      (fun (rem, add) x ->
        match remove_row x rem with
        | Some rem -> (rem, add)
        | None -> (rem, x :: add))
      (before, []) after
  in
  (List.rev added_rev, removed)

(* A dedicated channel per shard subscription: after SUBSCRIBE a
   connection is a one-way stream, so the pooled request channels must
   stay out of it. *)
let open_shard_sub t ?trace stmt i =
  let b = t.backends.(i) in
  match
    Client.connect ~timeout_s:t.cfg.shard_timeout_s ~host:b.bhost ~port:b.bport
      ()
  with
  | exception e ->
    mark_down t i;
    O_down (Printexc.to_string e)
  | c -> (
    let close () = try Client.close c with _ -> () in
    match Client.subscribe ?trace:(child_trace trace i) c stmt with
    | Ok snap ->
      mark_up t i;
      O_ok (c, snap)
    | Error msg ->
      close ();
      O_fatal msg
    | exception e ->
      close ();
      mark_down t i;
      O_down (Printexc.to_string e))

(* All-or-nothing over every shard — a missing shard would make the
   continuous answer silently partial forever. *)
let open_all t ?trace stmt =
  let close_all = List.iter (fun (c, _) -> try Client.close c with _ -> ()) in
  let rec go acc i =
    if i = nshards t then Ok (List.rev acc)
    else
      match open_shard_sub t ?trace stmt i with
      | O_ok s -> go (s :: acc) (i + 1)
      | O_fatal msg ->
        close_all acc;
        Error (shard_err ?trace msg)
      | O_down msg ->
        close_all acc;
        Error (all_unavailable ?trace t msg)
  in
  go [] 0

let stream_union conn ?trace pref shard_subs =
  let t = conn.router in
  let subs = Array.of_list shard_subs in
  let schema = Relation.schema (fst (snd subs.(0))) in
  let rows = Array.map (fun (_, (rel, _)) -> Relation.rows rel) subs in
  let flags =
    Array.fold_left
      (fun f (_, (_, fl)) -> Pref_bmo.Engine.union_flags f fl)
      Pref_bmo.Engine.complete subs
  in
  let cfg = { conn.config with Pref_bmo.Engine.cache = false } in
  let winnow rs =
    Relation.rows
      (fst
         (Pref_bmo.Query.sigma_within
            ~deadline:(Pref_bmo.Engine.deadline_of cfg)
            cfg schema pref (Relation.make schema rs)))
  in
  let current = ref (winnow (List.concat (Array.to_list rows))) in
  let first =
    Protocol.Rows
      {
        relation = Relation.make schema !current;
        flags;
        served = Some (Array.length subs, nshards t);
        trace;
      }
  in
  let sub = Serve.subscribe t.spine ?trace schema ~snapshot:(fun () -> !current) () in
  let patch slot (d : Client.delta) () =
    (if d.Client.d_resync then rows.(slot) <- Relation.rows d.Client.d_added
     else
       let kept =
         List.fold_left
           (fun acc x -> Option.value (remove_row x acc) ~default:acc)
           rows.(slot)
           (Relation.rows d.Client.d_removed)
       in
       rows.(slot) <- kept @ Relation.rows d.Client.d_added);
    let next = winnow (List.concat (Array.to_list rows)) in
    let added, removed = multiset_diff ~before:!current ~after:next in
    current := next;
    (added, removed)
  in
  (* one blocking reader per shard stream; a timed read could lose
     framing sync mid-frame, a blocked one cannot. A shard stream ending
     ends ours. *)
  let reader slot (c, _) () =
    let rec go () =
      match Client.next_delta c with
      | Some d ->
        Serve.publish t.spine sub (patch slot d);
        go ()
      | None -> Serve.close_sub sub
      | exception _ -> Serve.close_sub sub
    in
    go ()
  in
  let readers = Array.mapi (fun slot s -> Thread.create (reader slot s) ()) subs in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun (c, _) -> try Client.close c with _ -> ()) subs;
      Array.iter Thread.join readers)
    (fun () -> Serve.stream t.spine conn.fd sub first)

(* Set up the shard streams; [Ok stream] runs the routed stream until it
   ends. *)
let subscribe conn ?trace sql =
  let t = conn.router in
  match Parser.parse_query sql with
  | exception e -> Error (Serve.error_response ?trace e)
  | q -> (
    match Exec.full_preference ~registry:t.registry q with
    | None -> Error (Serve.err ?trace "exec" "SUBSCRIBE requires a PREFERRING clause")
    | Some pref ->
      let stmt = Pretty.query_to_string q in
      route t ?trace q ~fail:Result.error
        ~proxy:(fun () ->
          (* replicated / unregistered table: one backend holds the full
             answer, and a union of replicas would stream duplicates *)
          Result.map (fun s -> [ s ]) (failover t ?trace (open_shard_sub t ?trace stmt)))
        ~scatter:(fun _ -> open_all t ?trace stmt)
      |> Result.map (fun subs () -> stream_union conn ?trace pref subs))

(* ------------------------------------------------------------------ *)
(* SET / STATS                                                         *)

(* maxrows is withheld from the shards: capping shard BMO sets would
   silently starve the final winnow of rows it still needs, while one
   cap at the final pass keeps the single-node semantics. *)
let forwarded_key key = String.lowercase_ascii key <> "maxrows"

let answer_set conn ~key ~value =
  match Pref_bmo.Engine.set conn.config ~key ~value with
  | Error message -> Serve.err "set" message
  | Ok cfg ->
    conn.config <- cfg;
    if forwarded_key key then begin
      let k = String.lowercase_ascii key in
      conn.set_log <-
        (if List.mem_assoc k conn.set_log then
           List.map (fun (k', v) -> (k', if k' = k then value else v)) conn.set_log
         else conn.set_log @ [ (k, value) ]);
      (* best effort: down shards get the full replay on reconnect *)
      Array.iteri
        (fun i -> function
          | None -> ()
          | Some client -> (
            try ignore (Client.set client ~key ~value)
            with _ -> drop_client conn i))
        conn.clients
    end;
    let shown =
      List.assoc_opt (String.lowercase_ascii key)
        (Pref_bmo.Engine.describe cfg)
    in
    Protocol.Done
      (Printf.sprintf "%s: %s"
         (String.lowercase_ascii key)
         (Option.value shown ~default:value))

let counters t =
  let per_shard =
    Mutex.protect t.health_m (fun () ->
        List.concat
          (List.mapi
             (fun i h ->
               [
                 ( Printf.sprintf "shard.%d.up" i,
                   if h.down_until <= now_s () then 1 else 0 );
                 (Printf.sprintf "shard.%d.failures" i, h.failures);
               ])
             (Array.to_list t.health)))
  in
  Serve.counters t.spine
  @ [ ("router.backends", nshards t); ("router.shards_up", shards_up t) ]
  @ per_shard

(* STATS: the router's own counters, then every backend's integer
   counters summed under a [shards.] prefix (float-valued histogram
   summaries don't sum meaningfully and are skipped). *)
let answer_stats conn =
  let t = conn.router in
  let results = scatter conn (fun _i client -> Client.stats client) in
  let sums : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  Array.iter
    (function
      | O_ok kvs ->
        List.iter
          (fun (k, v) ->
            match int_of_string_opt v with
            | None -> ()
            | Some n ->
              if not (Hashtbl.mem sums k) then order := k :: !order;
              Hashtbl.replace sums k
                (n + Option.value ~default:0 (Hashtbl.find_opt sums k)))
          kvs
      | O_fatal _ | O_down _ -> ())
    results;
  let shard_sums =
    List.rev_map
      (fun k -> ("shards." ^ k, string_of_int (Hashtbl.find sums k)))
      !order
  in
  Protocol.Stats_resp
    (List.map (fun (k, v) -> (k, string_of_int v)) (counters t) @ shard_sums)

(* ------------------------------------------------------------------ *)
(* The scatter backend: per-connection final-pass state and lazily
   dialed backend channels, answering on the connection thread. *)

let connection t fd =
  let conn =
    {
      router = t;
      fd;
      config = t.cfg.session_config;
      prepared = [];
      set_log = [];
      last_q = None;
      clients = Array.map (fun _ -> None) t.backends;
    }
  in
  let send = Serve.send fd in
  (* QUERY, REFINE, DML and SUBSCRIBE count as queries, and every ERR
     answering one as an error *)
  let counted resp =
    Serve.bump t.c_queries;
    (match resp with Protocol.Err _ -> Serve.bump t.c_errors | _ -> ());
    send resp;
    true
  in
  let handle = function
    | Protocol.Query { sql; trace } -> counted (answer_query conn ?trace sql)
    | Protocol.Prepare { name; sql; trace } ->
      (match Parser.parse_query sql with
      | q ->
        conn.prepared <- (name, q) :: List.remove_assoc name conn.prepared;
        send (Protocol.Done ("prepared " ^ name))
      | exception e -> send (Serve.error_response ?trace e));
      true
    | Protocol.Explain { sql; analyze; json; trace } ->
      send (answer_explain conn ~analyze ~json ?trace sql);
      true
    | Protocol.Refine { term; trace } -> counted (answer_refine conn ?trace term)
    | Protocol.Dml { op; table; row; trace } ->
      counted (answer_dml conn ?trace op table row)
    | Protocol.Subscribe { sql; trace } -> (
      match subscribe conn ?trace sql with
      | Error resp -> counted resp
      | Ok stream ->
        Serve.bump t.c_queries;
        stream ();
        false)
    | Protocol.Set (key, value) ->
      send (answer_set conn ~key ~value);
      true
    | Protocol.Stats ->
      send (answer_stats conn);
      true
    | Protocol.Ping | Protocol.Metrics _ -> true (* answered by the spine *)
  in
  let close () = Array.iteri (fun i _ -> drop_client conn i) conn.clients in
  { Serve.handle; close }

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let start ?(config = default_config) ?(registry = Translate.default_registry)
    () =
  if config.backends = [] then
    invalid_arg "Router.start: at least one backend required";
  let spine =
    Serve.create ~name:"router" ~host:config.host ~port:config.port
      ~max_connections:config.max_connections
  in
  let counter = Serve.counter spine in
  let backends = Array.of_list config.backends in
  let t =
    {
      cfg = config;
      registry;
      backends;
      spine;
      health =
        Array.map (fun _ -> { failures = 0; down_until = 0. }) backends;
      health_m = Mutex.create ();
      rr = Atomic.make 0;
      schemas_m = Mutex.create ();
      schemas = Hashtbl.create 8;
      c_queries = counter "queries";
      c_scatter = counter "scatter";
      c_proxied = counter "proxied";
      c_merged = counter "merged";
      c_merge_skipped = counter "merge_skipped";
      c_partial = counter "partial";
      c_shard_down = counter "shard_down";
      c_errors = counter "errors";
    }
  in
  Pref_obs.Metrics.set g_up (float_of_int (nshards t));
  Serve.serve spine (connection t);
  t

let request_stop t = Serve.request_stop t.spine
let stop t = Serve.stop t.spine
let wait t = Serve.wait t.spine

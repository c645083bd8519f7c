(* One benchmark run: set up the workload's deployment, measure either
   the end-to-end metrics (closed loop, tracing off) or the per-layer
   metrics (traced replay), check every answer, and report. *)

open Pref_relation
module J = Pref_obs.Json

type metric = { name : string; value : float; unit_ : string; samples : int }

let metric ?(samples = 1) name unit_ value = { name; value; unit_; samples }

(* Median and the named tail percentiles; dropped when no sample was
   taken, since a workload reports only what it exercises. *)
let timing name ~tails values =
  match values with
  | [] -> []
  | _ ->
    let n = List.length values in
    List.map
      (fun p -> metric ~samples:n (Printf.sprintf "%s_p%g_ms" name p) "ms" (Stats.percentile values p))
      (50. :: tails)

type result = {
  tally : Check.tally;
  metrics : metric list;
  extra : (string * J.t) list;  (** provenance and diagnostics *)
}

let now = Pref_obs.Clock.now_ns
let setup_reps = 5

(* Reference cores of the fixed statements, computed before timing. *)
let warm_oracle (sp : Gen.spec) oracle =
  ignore @@ Oracle.precompute oracle
    ((match sp.Gen.workload with
     | Gen.Serve_cold | Gen.Routed_rw -> Gen.templates
     | Gen.Session_mix -> [])
    @ if sp.Gen.subscribe then [ Gen.subscription ] else [])

let start_reader (d : Deploy.t) =
  let frames = { Loop.got = []; fm = Mutex.create () } in
  let reader =
    Option.map (fun (c, _) -> Thread.create (fun () -> Loop.read_deltas c frames) ()) d.Deploy.subscriber
  in
  (frames, reader)

(* Let the subscriber receive every delta the acknowledged DML produced,
   then end its stream. *)
let finish_reader (d : Deploy.t) oracle ~acked (frames, reader) =
  match d.Deploy.subscriber with
  | None -> None
  | Some (_, snapshot) ->
    let live = Oracle.versions (List.map snd acked) in
    let expected =
      List.length
        (List.filter (fun (a, r) -> a <> [] || r <> []) (Oracle.expected_deltas oracle live))
    in
    Loop.await_frames frames expected ~timeout_s:5.;
    Deploy.close_subscriber d;
    Option.iter Thread.join reader;
    Some (snapshot, Loop.frames_in_order frames)

(* Fill the cache before timing; the replies are checked, not timed. *)
let warm_up (d : Deploy.t) =
  List.map (fun op -> Loop.issue d.Deploy.clients.(0) op ~version:0) (Gen.warmup d.Deploy.sp)

let latencies kind records =
  List.filter_map
    (fun (r : Loop.record) -> if Loop.kind_of r.Loop.op = kind then Some (Loop.latency_ms r) else None)
    records

let group_by key items =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun x ->
      let k, v = key x in
      Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k)))
    items;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, List.rev v) :: acc) tbl [])

(* The most frequent statements with their latency medians: where the
   end-to-end quantiles come from. *)
let print_by_statement records =
  let by =
    group_by
      (fun (r : Loop.record) -> (Option.value ~default:"(dml)" r.Loop.stmt, Loop.latency_ms r))
      records
  in
  let top =
    List.filteri (fun i _ -> i < 10)
      (List.sort (fun (_, a) (_, b) -> compare (List.length b) (List.length a)) by)
  in
  Printf.printf "  %6s %10s  statement\n" "count" "p50_ms";
  List.iter
    (fun (stmt, ms) ->
      Printf.printf "  %6d %10.3f  %s\n" (List.length ms) (Stats.median ms)
        (if String.length stmt > 90 then String.sub stmt 0 90 ^ "..." else stmt))
    top

let e2e (sp : Gen.spec) ~seconds =
  let d, setup_s = Deploy.start_timed sp ~reps:setup_reps in
  let oracle = Oracle.create d.Deploy.base in
  warm_oracle sp oracle;
  let warm = warm_up d in
  let reader = start_reader d in
  let log = { Loop.acked = [] } in
  let cache0 = Pref_bmo.Cache.stats Pref_bmo.Cache.global in
  let t_start = now () in
  let until = Int64.add t_start (Int64.of_float (seconds *. 1e9)) in
  let per_client = Array.make (Array.length d.Deploy.clients) [] in
  Array.iter Thread.join
    (Array.mapi
       (fun client c ->
         Thread.create
           (fun () ->
             per_client.(client) <-
               Loop.run_client c (Gen.stream sp ~base:d.Deploy.base ~client) ~until ~log)
           ())
       d.Deploy.clients);
  let elapsed_s = Pref_obs.Clock.ms_of_ns (Int64.sub (now ()) t_start) /. 1000. in
  let rss = Deploy.peak_rss_mb () in
  let cache1 = Pref_bmo.Cache.stats Pref_bmo.Cache.global in
  let acked = Loop.acked_in_order log in
  let subscription = finish_reader d oracle ~acked reader in
  let busy = Deploy.server_counter d "server.busy_rejected" in
  Deploy.stop d;
  let records = List.concat (Array.to_list per_client) in
  let tally = Check.run oracle ~records:(warm @ records) ~acked ~subscription in
  print_by_statement records;
  let completed = List.length records in
  let metrics =
    timing "query" ~tails:[ 90.; 99. ] (latencies Loop.K_query records)
    @ timing "refine" ~tails:[ 90. ] (latencies Loop.K_refine records)
    @ timing "dml" ~tails:[ 90. ] (latencies Loop.K_dml records)
    @ timing "delta_lag" ~tails:[ 90. ] tally.Check.lags_ms
    @ [
        metric ~samples:completed "ops_per_s" "ops/s" (float_of_int completed /. elapsed_s);
        metric "failed_frac" "ratio"
          (float_of_int (Check.failed tally) /. float_of_int (max 1 tally.Check.attempted));
        metric ~samples:setup_reps "setup_s" "s" setup_s;
        metric "peak_rss_mb" "MiB" rss;
      ]
  in
  {
    tally;
    metrics;
    extra =
      [
        ("elapsed_s", J.Float elapsed_s);
        ( "cache",
          let open Pref_bmo.Cache in
          J.Obj
            [
              ("hits", J.Int (cache1.hits - cache0.hits));
              ("semantic", J.Int (cache1.semantic_reuses - cache0.semantic_reuses));
              ("misses", J.Int (cache1.misses - cache0.misses));
              ("patched", J.Int (cache1.patched_entries - cache0.patched_entries));
              ("evictions", J.Int (cache1.evictions - cache0.evictions));
            ] );
        ( "retries",
          J.Int (List.fold_left (fun a (r : Loop.record) -> a + r.Loop.retries) 0 records + busy) );
      ];
  }

(* ------------------------------------------------------------------ *)
(* The traced run                                                      *)

let median_metric ?(unit_ = "ms") name values =
  match values with
  | [] -> []
  | _ -> [ metric ~samples:(List.length values) name unit_ (Stats.median values) ]

(* The metric a span's self time feeds, if any: the executor's profiled
   phases, the planner's off-path execution, the mirror session's
   bookkeeping and the scatter wrapper only explain other numbers. *)
let span_metric name =
  let prefix p = String.starts_with ~prefix:p name in
  let rest p = String.sub name (String.length p) (String.length name - String.length p) in
  match name with
  | "exec.run" -> Some "exec.self_ms"
  | "planner.execute" | "session.track" | "router.scatter" -> None
  | _ when prefix "exec." -> None
  | _ when prefix "revise.refine." -> Some ("revise.refine_ms." ^ rest "revise.refine.")
  | _ -> Some (name ^ "_ms")

let count_ratio name values label =
  match values with
  | [] -> []
  | _ ->
    let n = List.length values in
    [
      metric ~samples:n name "ratio"
        (float_of_int (List.length (List.filter (String.equal label) values)) /. float_of_int n);
    ]

(* The per-layer self-time table: count, median, p90 and total self time
   per span name, on-path spans marked. *)
let layer_table selfs =
  let rows =
    group_by
      (fun ((s : Spans.span), ms) -> ((s.Spans.name, s.Spans.on_path), ms))
      selfs
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "%-32s %4s %7s %10s %10s %11s\n" "span" "path" "count" "p50_self" "p90_self"
       "total_self");
  List.iter
    (fun ((name, on_path), ms) ->
      Buffer.add_string b
        (Printf.sprintf "%-32s %4s %7d %10.4f %10.4f %11.3f\n" name
           (if on_path then "on" else "off")
           (List.length ms) (Stats.median ms) (Stats.percentile ms 90.)
           (List.fold_left ( +. ) 0. ms)))
    rows;
  Buffer.contents b

let traced (sp : Gen.spec) ~seconds ~out_prefix =
  let d = Deploy.start sp in
  let oracle = Oracle.create d.Deploy.base in
  warm_oracle sp oracle;
  let warm = warm_up d in
  let reader = start_reader d in
  let ctx = Traced.create d in
  let evictions () = (Pref_bmo.Cache.stats Pref_bmo.Cache.global).Pref_bmo.Cache.evictions in
  let evictions0 = evictions () in
  let stream = Gen.merged_stream sp ~base:d.Deploy.base in
  let conn = d.Deploy.clients.(0) in
  let until = Int64.add (now ()) (Int64.of_float (seconds *. 1e9)) in
  let records = ref [] and acked = ref [] in
  let req = ref 0 in
  while Int64.compare (now ()) until < 0 do
    incr req;
    let op = stream () in
    let r = Traced.step ctx ~req:!req ~conn ~version:(List.length !acked) op in
    records := r :: !records;
    if r.Loop.outcome = Loop.Acked then acked := (r.Loop.t0, op) :: !acked
  done;
  let evicted = evictions () - evictions0 in
  let acked = List.rev !acked and records = List.rev !records in
  let subscription = finish_reader d oracle ~acked reader in
  let busy = Deploy.server_counter d "server.busy_rejected" in
  let resyncs = Deploy.server_counter d "server.subscription_resyncs" in
  Traced.close ctx;
  Deploy.stop d;
  let tally = Check.run oracle ~records:(warm @ records) ~acked ~subscription in
  let all = Spans.spans ctx.Traced.st in
  let selfs = Spans.self_times all in
  let attributed = Spans.attributed_ms selfs in
  let unattributed =
    List.map
      (fun (req, _, wire) -> (wire -. Option.value ~default:0. (Hashtbl.find_opt attributed req), wire))
      ctx.Traced.wire
  in
  (* per-request span durations, for the router's own overhead *)
  let dur req name =
    List.fold_left
      (fun acc ((s : Spans.span), ms) ->
        if s.Spans.req = req && String.equal s.Spans.name name then acc +. ms else acc)
      0. selfs
  in
  let span_metrics =
    List.concat_map
      (fun (name, ms) -> median_metric name ms)
      (group_by Fun.id
         (List.filter_map
            (fun ((s : Spans.span), ms) ->
              Option.map (fun m -> (m, ms)) (span_metric s.Spans.name))
            selfs))
  in
  let wire_query =
    List.filter_map (fun (_, k, ms) -> if k = Loop.K_query then Some ms else None) ctx.Traced.wire
  in
  (* routed wire latency minus the slowest shard, gather and final pass;
     [wire] and [rtts] both list routed queries newest first *)
  let routed_overhead () =
    List.map2
      (fun (req, _, wire) (mx, _) ->
        wire -. mx -. dur req "merge.gather" -. dur req "merge.finish")
      (List.filter (fun (_, k, _) -> k = Loop.K_query) ctx.Traced.wire)
      ctx.Traced.rtts
  in
  let plan_counts =
    List.map
      (fun (kind, l) -> metric ("planner.plan." ^ kind) "count" (float_of_int (List.length l)))
      (group_by (fun k -> (k, ())) ctx.Traced.plans)
  in
  let routed = sp.Gen.workload = Gen.Routed_rw in
  let metrics =
    span_metrics
    @ median_metric ~unit_:"bytes" "protocol.response_bytes" ctx.Traced.response_bytes
    @ plan_counts
    @ median_metric ~unit_:"ratio" "cost.error_ratio" ctx.Traced.cost_ratios
    @ median_metric ~unit_:"count" "query.dominance_tests" ctx.Traced.dom_tests
    @ median_metric ~unit_:"count" "query.rows_in" ctx.Traced.rows_in
    @ median_metric ~unit_:"count" "query.rows_out" ctx.Traced.rows_out
    @ median_metric ~unit_:"ratio" "query.selectivity"
        (List.map2 (fun o i -> o /. Float.max 1. i) ctx.Traced.rows_out ctx.Traced.rows_in)
    @ count_ratio "cache.exact_ratio" ctx.Traced.tiers "exact"
    @ count_ratio "cache.semantic_ratio" ctx.Traced.tiers "semantic"
    @ count_ratio "cache.miss_ratio" ctx.Traced.tiers "miss"
    @ (if ctx.Traced.tiers = [] then [] else [ metric "cache.evictions" "count" (float_of_int evicted) ])
    @ count_ratio "revise.seed_frac" ctx.Traced.refine_plans "seed"
    @ median_metric ~unit_:"count" "incremental.delta_rows" ctx.Traced.delta_rows
    @ (if routed then
         [
           metric ~samples:(List.length ctx.Traced.rtts) "router.shard_rtt_max_ms" "ms"
             (List.fold_left (fun m (mx, _) -> Float.max m mx) 0. ctx.Traced.rtts);
         ]
         @ median_metric "router.straggler_ms" (List.map (fun (mx, mn) -> mx -. mn) ctx.Traced.rtts)
         @ median_metric ~unit_:"count" "merge.rows_in" ctx.Traced.merge_in
         @ median_metric ~unit_:"count" "merge.rows_out" ctx.Traced.merge_out
         @ median_metric "router.overhead_ms" (routed_overhead ())
       else [])
    @ [
        metric "server.busy_retries" "count"
          (float_of_int
             (busy + List.fold_left (fun a (r : Loop.record) -> a + r.Loop.retries) 0 records));
      ]
    @ (if sp.Gen.subscribe then [ metric "server.subscription_resyncs" "count" (float_of_int resyncs) ]
       else [])
    @ median_metric "server.unattributed_ms" (List.map fst unattributed)
    @ median_metric ~unit_:"ratio" "server.unattributed_frac"
        (List.map (fun (u, w) -> u /. w) unattributed)
    @ median_metric "trace.query_p50_ms" wire_query
  in
  (* the span dump and the self-time table *)
  let dump = J.List (List.map (fun (s, ms) -> Spans.to_json s ms) selfs) in
  let oc = open_out (out_prefix ^ "-spans.json") in
  output_string oc (J.to_string dump);
  close_out oc;
  let table = layer_table selfs in
  let oc = open_out (out_prefix ^ "-layers.txt") in
  output_string oc table;
  close_out oc;
  print_string table;
  {
    tally;
    metrics;
    extra =
      [
        ("requests", J.Int !req);
        ("spans", J.Int (List.length all));
        ("span_dump", J.Str (out_prefix ^ "-spans.json"));
      ];
  }

(* ------------------------------------------------------------------ *)

let provenance (sp : Gen.spec) ~commit ~seconds ~trace =
  [
    ("workload", J.Str (Gen.name sp.Gen.workload));
    ("why", J.Str (Gen.why sp.Gen.workload));
    ("seed", J.Int sp.Gen.seed);
    ("trace", J.Bool trace);
    ("seconds", J.Float seconds);
    ("table_rows", J.Int sp.Gen.n);
    ( "shard_rows",
      J.List
        (if sp.Gen.workload = Gen.Routed_rw then
           Array.to_list
             (Array.map
                (fun r -> J.Int (Relation.cardinality r))
                (Pref_router.Shard_map.partition Deploy.shard_scheme ~shards:Deploy.shards
                   (Gen.base_table sp)))
         else []) );
    ("query_clients", J.Int sp.Gen.query_clients);
    ("subscriber", J.Bool sp.Gen.subscribe);
    ("nproc", J.Int (Domain.recommended_domain_count ()));
    ("ocaml", J.Str Sys.ocaml_version);
    ("commit", J.Str commit);
  ]

let to_json (sp : Gen.spec) ~commit ~seconds ~trace r =
  let t = r.tally in
  J.Obj
    ([
       ("correct", J.Bool (Check.failed t = 0 && Check.balanced t));
       ("attempted", J.Int t.Check.attempted);
       ("failed", J.Int (Check.failed t));
       ( "metrics",
         J.Obj
           (List.map
              (fun m ->
                ( m.name,
                  J.Obj
                    [
                      (* every digit, for the consumer to parse *)
                      ("value", J.Str (Printf.sprintf "%.17g" m.value));
                      ("unit", J.Str m.unit_);
                      ("samples", J.Int m.samples);
                    ]
                ))
              r.metrics) );
       ( "tally",
         J.Obj
           [
             ("ok", J.Int t.Check.ok);
             ("errors", J.Int t.Check.errors);
             ("partial", J.Int t.Check.partial);
             ("short", J.Int t.Check.short);
             ("wrong", J.Int t.Check.wrong);
           ] );
       ("problems", J.List (List.map (fun p -> J.Str p) t.Check.problems));
       ("provenance", J.Obj (provenance sp ~commit ~seconds ~trace));
     ]
    @ r.extra)

let print_metrics r =
  List.iter
    (fun m ->
      let tail =
        match Stats.supported_percentile m.samples with
        | Some p -> Printf.sprintf "n=%d, p%g supported" m.samples p
        | None -> Printf.sprintf "n=%d" m.samples
      in
      Printf.printf "  %-32s %14.4f %-6s (%s)\n" m.name m.value m.unit_ tail)
    r.metrics

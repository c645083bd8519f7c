open Pref_relation
open Preferences

type quality =
  | Level of int  (** discrete level under the intrinsic level function *)
  | Distance of float  (** distance under the continuous distance function *)
  | Opaque  (** no quality function for this base preference *)

type t = {
  tuple : Tuple.t;
  in_result : bool;
  dominators : Tuple.t list;  (** witnesses that exclude the tuple *)
  graph_level : int;  (** level in the database better-than graph *)
  qualities : (string * quality) list;  (** per attribute of the preference *)
}

let qualities_of schema p t =
  List.map
    (fun attr ->
      let q =
        match Quality.level_of schema p attr t with
        | Some l -> Level l
        | None -> (
          match Quality.distance_of schema p attr t with
          | Some d -> Distance d
          | None -> Opaque)
      in
      (attr, q))
    (Pref.attrs p)

let explain schema p rel t =
  let dom = Dominance.of_pref schema p in
  let dominators = List.filter (fun u -> dom u t) (Relation.rows rel) in
  {
    tuple = t;
    in_result = dominators = [];
    dominators;
    graph_level = Quality.level_in_graph schema p rel t;
    qualities = qualities_of schema p t;
  }

let pp_quality ppf = function
  | Level l -> Fmt.pf ppf "level %d" l
  | Distance d ->
    if Float.is_integer d then Fmt.pf ppf "distance %.0f" d
    else Fmt.pf ppf "distance %g" d
  | Opaque -> Fmt.string ppf "-"

let pp ppf e =
  Fmt.pf ppf "%a: %s (graph level %d)@." Tuple.pp e.tuple
    (if e.in_result then "BEST MATCH" else "dominated")
    e.graph_level;
  List.iter
    (fun (attr, q) -> Fmt.pf ppf "  %-16s %a@." attr pp_quality q)
    e.qualities;
  match e.dominators with
  | [] -> ()
  | ds ->
    Fmt.pf ppf "  dominated by %d tuple(s), e.g. %a@." (List.length ds) Tuple.pp
      (List.hd ds)

let to_string e = Fmt.str "%a" pp e

(* ------------------------------------------------------------------ *)
(* Plan-level explanation: EXPLAIN [ANALYZE]                           *)

module Plan = struct
  type op = {
    op_name : string;
    op_rows_in : int option;
    op_rows_out : int option;
    op_est_out : float option;
    op_ms : float option;
    op_attrs : (string * string) list;
    op_children : op list;
  }

  let op ?rows_in ?rows_out ?est_out ?ms ?(attrs = []) ?(children = []) name =
    {
      op_name = name;
      op_rows_in = rows_in;
      op_rows_out = rows_out;
      op_est_out = est_out;
      op_ms = ms;
      op_attrs = attrs;
      op_children = children;
    }

  type serve =
    | Evaluate of Planner.plan
    | Cached of Cache.reuse
    | Identity
    | Commute of Cache.reuse
    | Pushdown of int
    | Ranked of int
    | Grouped of string list

  let serve_to_string = function
    | Evaluate plan -> Planner.plan_to_string plan
    | Cached reuse -> "cache(" ^ Cache.reuse_to_string reuse ^ ")"
    | Identity -> "identity (sigma[P](R) = R)"
    | Commute reuse -> "cache-commute(" ^ Cache.reuse_to_string reuse ^ ")"
    | Pushdown distinct -> Printf.sprintf "pushdown(distinct=%d)" distinct
    | Ranked k -> Printf.sprintf "topk(k=%d)" k
    | Grouped by -> "groupby(" ^ String.concat "," by ^ ")"

  let serve_kind = function
    | Evaluate plan -> Planner.plan_kind plan
    | Cached Cache.Exact -> "cache_hit"
    | Cached (Cache.Semantic _) -> "cache_semantic"
    | Identity -> "identity"
    | Commute _ -> "cache_commute"
    | Pushdown _ -> "pushdown"
    | Ranked _ -> "topk"
    | Grouped _ -> "groupby"

  type t = {
    query : string;
    analyze : bool;
    plan : serve;
    forced : string option;
    trace : Planner.trace;
    ops : op list;
    total_ms : float option;
  }

  (* The σ[P] ladder's decision itself ({!Query.decide}) over a
     non-counting cache probe. The planner's traced choice is always
     computed so a cache hit or a forced plan can show what it bypassed. *)
  let decide (cfg : Engine.config) ~deadline schema p rel =
    let probe =
      if cfg.Engine.cache then
        Cache.probe_traced ~gate:cfg.Engine.costmodel Cache.global schema p rel
      else (None, [])
    in
    let auto_plan, trace =
      Planner.choose_traced ~costmodel:cfg.Engine.costmodel ~probe
        ?domains:cfg.Engine.domains schema p rel
    in
    let bypassed why =
      {
        trace with
        Planner.t_rejected =
          ("auto:" ^ Planner.plan_kind auto_plan, why) :: trace.Planner.t_rejected;
      }
    in
    match
      Query.decide cfg ~deadline ~cached:(fst probe) ~choose:(fun () ->
          auto_plan)
    with
    | Query.Cached Cache.Exact ->
      ( Cached Cache.Exact,
        bypassed "an exact cache hit beats any evaluation",
        None )
    | Query.Cached (Cache.Semantic desc as reuse) ->
      ( Cached reuse,
        bypassed
          ("deriving from cached entries (" ^ desc
         ^ ") is predicted cheaper than re-evaluation"),
        None )
    | Query.Planned (plan, None) -> (Evaluate plan, trace, None)
    | Query.Planned (plan, Some reason) ->
      (Evaluate plan, bypassed reason, Some reason)

  let make ~query ~analyze ~plan ~forced ~trace ~ops ~total_ms () =
    { query; analyze; plan; forced; trace; ops; total_ms }

  (* {2 Text rendering} *)

  let fnum f =
    if Float.is_integer f && Float.abs f < 1e9 then Printf.sprintf "%.0f" f
    else Printf.sprintf "%.2f" f

  let op_line ~analyze depth o =
    let buf = Buffer.create 64 in
    Buffer.add_string buf (String.make (2 * depth) ' ');
    Buffer.add_string buf o.op_name;
    let cell fmt = Printf.ksprintf (fun s -> Buffer.add_string buf ("  " ^ s)) fmt in
    (match o.op_est_out with Some e -> cell "est=%s" (fnum e) | None -> ());
    (match (o.op_rows_in, o.op_rows_out) with
    | Some i, Some out -> cell "rows=%d->%d" i out
    | None, Some out -> cell "rows=%d" out
    | Some i, None -> cell "rows_in=%d" i
    | None, None -> ());
    (if analyze then
       match o.op_ms with Some ms -> cell "%.3fms" ms | None -> ());
    List.iter (fun (k, v) -> cell "%s=%s" k v) o.op_attrs;
    Buffer.contents buf

  let rec op_lines ~analyze depth o =
    op_line ~analyze depth o
    :: List.concat_map (op_lines ~analyze (depth + 1)) o.op_children

  let to_text e =
    let tr = e.trace in
    let header =
      Printf.sprintf "EXPLAIN%s %s" (if e.analyze then " ANALYZE" else "") e.query
    in
    let plan_line =
      Printf.sprintf "plan: %s%s" (serve_to_string e.plan)
        (match e.forced with None -> "" | Some r -> "  [forced: " ^ r ^ "]")
    in
    let inputs =
      [
        "decision inputs:";
        Printf.sprintf "  n=%d dims=%d domains=%d" tr.Planner.t_n
          tr.Planner.t_dims tr.Planner.t_domains;
      ]
      @ (match tr.Planner.t_chain with
        | Some (attrs, maximize) ->
          [
            Printf.sprintf "  chain: %s (%s)"
              (String.concat "," attrs)
              (if maximize then "max" else "min");
          ]
        | None -> [ "  chain: none" ])
      @ (match tr.Planner.t_correlation with
        | Some r -> [ Printf.sprintf "  correlation: r=%.2f" r ]
        | None -> [])
      @
      match tr.Planner.t_estimate with
      | Some est ->
        [
          Printf.sprintf "  estimated BMO size: %s (independence model)"
            (fnum est);
        ]
      | None -> []
    in
    let costs =
      match tr.Planner.t_costs with
      | [] -> []
      | cs ->
        let chosen = serve_kind e.plan in
        "predicted costs (ms):"
        :: List.map
             (fun (alt, ms) ->
               Printf.sprintf "  %-10s %8.3f%s" alt ms
                 (if String.equal alt chosen then "  <- chosen" else ""))
             cs
    in
    let probes =
      match tr.Planner.t_probes with
      | [] -> []
      | ps ->
        "cache probes:"
        :: List.map
             (fun { Cache.tier; hit; ms } ->
               Printf.sprintf "  %-16s %s  %.3f ms" tier
                 (if hit then "hit " else "miss")
                 ms)
             ps
    in
    let rejected =
      match tr.Planner.t_rejected with
      | [] -> []
      | rs ->
        "rejected alternatives:"
        :: List.map (fun (alt, why) -> Printf.sprintf "  %-10s %s" alt why) rs
    in
    let ops =
      match e.ops with
      | [] -> []
      | ops ->
        "operators:"
        :: List.concat_map (op_lines ~analyze:e.analyze 1) ops
    in
    let total =
      match e.total_ms with
      | Some ms when e.analyze -> [ Printf.sprintf "total: %.3f ms" ms ]
      | _ -> []
    in
    (header :: plan_line :: inputs) @ costs @ probes @ rejected @ ops @ total

  (* {2 JSON rendering} *)

  let json_opt f = function None -> Pref_obs.Json.Null | Some v -> f v

  let rec op_to_json o =
    Pref_obs.Json.Obj
      [
        ("name", Pref_obs.Json.Str o.op_name);
        ("rows_in", json_opt (fun i -> Pref_obs.Json.Int i) o.op_rows_in);
        ("rows_out", json_opt (fun i -> Pref_obs.Json.Int i) o.op_rows_out);
        ("est_out", json_opt (fun f -> Pref_obs.Json.Float f) o.op_est_out);
        ("ms", json_opt (fun f -> Pref_obs.Json.Float f) o.op_ms);
        ( "attrs",
          Pref_obs.Json.Obj
            (List.map (fun (k, v) -> (k, Pref_obs.Json.Str v)) o.op_attrs) );
        ("children", Pref_obs.Json.List (List.map op_to_json o.op_children));
      ]

  let to_json e =
    let tr = e.trace in
    let open Pref_obs.Json in
    Obj
      [
        ("query", Str e.query);
        ("analyze", Bool e.analyze);
        ("plan", Str (serve_to_string e.plan));
        ("plan_kind", Str (serve_kind e.plan));
        ("forced", json_opt (fun s -> Str s) e.forced);
        ( "inputs",
          Obj
            [
              ("n", Int tr.Planner.t_n);
              ("dims", Int tr.Planner.t_dims);
              ("domains", Int tr.Planner.t_domains);
              ( "chain",
                match tr.Planner.t_chain with
                | None -> Null
                | Some (attrs, maximize) ->
                  Obj
                    [
                      ("attrs", List (List.map (fun a -> Str a) attrs));
                      ("maximize", Bool maximize);
                    ] );
              ("correlation", json_opt (fun f -> Float f) tr.Planner.t_correlation);
              ("estimate", json_opt (fun f -> Float f) tr.Planner.t_estimate);
            ] );
        ( "probes",
          List
            (List.map
               (fun { Cache.tier; hit; ms } ->
                 Obj
                   [ ("tier", Str tier); ("hit", Bool hit); ("ms", Float ms) ])
               tr.Planner.t_probes) );
        ( "costs",
          List
            (List.map
               (fun (alt, ms) ->
                 Obj [ ("plan", Str alt); ("predicted_ms", Float ms) ])
               tr.Planner.t_costs) );
        ( "rejected",
          List
            (List.map
               (fun (alt, why) ->
                 Obj [ ("plan", Str alt); ("reason", Str why) ])
               tr.Planner.t_rejected) );
        ("ops", List (List.map op_to_json e.ops));
        ("total_ms", json_opt (fun f -> Float f) e.total_ms);
      ]
end

(* The negotiation reservoir (§4.1): unranked pairs within a tuple set are
   the compromises left open by the preference. *)
let unranked_pairs schema p rows =
  let lt = Pref.compile schema p in
  let names = Pref.attrs p in
  let rec go acc = function
    | [] -> List.rev acc
    | t :: rest ->
      let acc =
        List.fold_left
          (fun acc u ->
            if
              (not (Tuple.equal_on schema names t u))
              && (not (lt t u))
              && not (lt u t)
            then (t, u) :: acc
            else acc)
          acc rest
      in
      go acc rest
  in
  go [] rows

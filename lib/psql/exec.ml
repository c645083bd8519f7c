open Pref_relation
open Preferences

exception Error of string

type env = (string * Relation.t) list

let find_table env name =
  match List.assoc_opt name env with
  | Some r -> Some r
  | None ->
    (* table names are case-insensitive *)
    List.fold_left
      (fun acc (n, r) ->
        if acc = None && String.lowercase_ascii n = String.lowercase_ascii name
        then Some r
        else acc)
      None env

exception Unknown_table of { name : string; hint : string option }

let unknown_table_message ~name ~hint =
  Printf.sprintf "unknown table %S%s" name
    (match hint with
    | Some c -> Printf.sprintf " (did you mean %S?)" c
    | None -> "")

let () =
  Printexc.register_printer (function
    | Unknown_table { name; hint } ->
      Some ("Psql.Exec: " ^ unknown_table_message ~name ~hint)
    | _ -> None)

type result = {
  relation : Relation.t;
  preference : Pref.t option;  (** the translated preference term, for explain *)
  profile : Pref_obs.Profile.t option;
      (** per-clause timings and evaluation counts, when requested *)
  flags : Pref_bmo.Engine.flags;
      (** deadline degradation / row-cap truncation markers *)
  plan : string option;  (** the σ serve that answered *)
}

let full_preference ?registry (q : Ast.query) =
  (* PREFERRING p CASCADE c1 CASCADE c2 = (p & c1) & c2 *)
  match q.Ast.preferring with
  | None -> (
    match q.Ast.cascade with
    | [] -> None
    | first :: rest ->
      Some
        (List.fold_left
           (fun acc c -> Pref.prior acc (Translate.pref ?registry c))
           (Translate.pref ?registry first)
           rest))
  | Some p ->
    Some
      (List.fold_left
         (fun acc c -> Pref.prior acc (Translate.pref ?registry c))
         (Translate.pref ?registry p)
         q.Ast.cascade)

(* ------------------------------------------------------------------ *)
(* Static checking: an injected hook, so the analyzer library can sit   *)
(* above this one in the build graph yet vet queries before execution.  *)

type check_finding = {
  check_code : string;
  check_severity : string;
  check_path : string;
  check_message : string;
}

exception Rejected of check_finding list

let () =
  Printexc.register_printer (function
    | Rejected fs ->
      Some
        (Printf.sprintf "Psql.Exec.Rejected: %s"
           (String.concat "; "
              (List.map
                 (fun f ->
                   Printf.sprintf "%s[%s] %s" f.check_severity f.check_code
                     f.check_message)
                 fs)))
    | _ -> None)

let checker :
    (?registry:Translate.registry -> env -> Ast.query -> check_finding list)
    option
    ref =
  ref None

let set_checker c = checker := c

let static_check ?registry env q =
  match !checker with None -> [] | Some f -> f ?registry env q

(* ------------------------------------------------------------------ *)
(* FROM clause: single tables stay unqualified; joins qualify every     *)
(* column as table.column and pull equi-join conjuncts out of WHERE.    *)

let get_table env name =
  match find_table env name with
  | Some r -> r
  | None ->
    raise (Unknown_table { name; hint = Typo.nearest (List.map fst env) name })

let qualified env name =
  let r = get_table env name in
  Relation.rename_schema r (Schema.prefix name (Relation.schema r))

(* Split the WHERE conjuncts into equi-join predicates usable between the
   already-joined schema and the next table, and the rest. *)
let split_join_keys left_schema right_schema conjuncts =
  List.partition_map
    (fun c ->
      match c with
      | Ast.Cmp_attr (a, Ast.Eq, b) -> (
        let try_pair x y =
          match Schema.resolve left_schema x, Schema.resolve right_schema y with
          | Ok l, Ok r -> Some (l, r)
          | _ -> None
        in
        match try_pair a b with
        | Some (l, r) -> Either.Left (l, r)
        | None -> (
          match try_pair b a with
          | Some (l, r) -> Either.Left (l, r)
          | None -> Either.Right c))
      | c -> Either.Right c)
    conjuncts

let build_from env (q : Ast.query) =
  match q.Ast.from with
  | [] -> raise (Error "FROM requires at least one table")
  | [ t ] -> (get_table env t, q.Ast.where)
  | first :: rest ->
    let conjuncts =
      match q.Ast.where with Some c -> Ast.conjuncts c | None -> []
    in
    let joined, remaining =
      List.fold_left
        (fun (acc, conjuncts) t ->
          let r = qualified env t in
          let keys, rest =
            split_join_keys (Relation.schema acc) (Relation.schema r) conjuncts
          in
          match keys with
          | [] -> (Relation.product acc r, rest)
          | _ ->
            ( Relation.hash_join acc r ~left_cols:(List.map fst keys)
                ~right_cols:(List.map snd keys),
              rest ))
        (qualified env first, conjuncts)
        rest
    in
    (joined, Ast.conjoin remaining)

(* Resolve a possibly-qualified attribute name against the working schema.
   Over a single table a [table.column] reference naming that table is
   accepted and stripped. *)
let resolver (q : Ast.query) schema name =
  match Schema.resolve schema name with
  | Ok n -> n
  | Error msg -> (
    match q.Ast.from, String.index_opt name '.' with
    | [ t ], Some i when String.sub name 0 i = t -> (
      let bare = String.sub name (i + 1) (String.length name - i - 1) in
      match Schema.resolve schema bare with
      | Ok n -> n
      | Error msg -> raise (Error msg))
    | _ -> raise (Error msg))

let project_result resolve (q : Ast.query) rel =
  match q.Ast.select with
  | [ Ast.Star ] -> rel
  | items ->
    let cols =
      List.map
        (function
          | Ast.Star -> raise (Error "SELECT * cannot be mixed with columns")
          | Ast.Column c -> resolve c)
        items
    in
    Relation.project rel cols

(* ------------------------------------------------------------------ *)
(* Semantic rewrites the executor consults when the cost model is on.   *)

(* σ[P](σ_W(R)) = σ_W(σ[P](R)) when every WHERE conjunct keeps the
   better side of one of P's chains (LOWEST a with a <= c or a < c,
   HIGHEST a with a >= c or a > c): such a selection is closed under
   domination — any tuple preferred to a surviving tuple also survives —
   so the winnow commutes with it (Chomicki's semantic optimization of
   preference queries). The executor uses it to serve a filtered query
   from the cached winnow of the unfiltered relation. *)
let selection_commutes resolve p conjuncts =
  match Pref_bmo.Planner.chain_dims p with
  | None -> false
  | Some (attrs, maximize) -> (
    conjuncts <> []
    &&
    try
      List.for_all
        (fun c ->
          match c with
          | Ast.Cmp (a, op, _) ->
            List.mem (resolve a) attrs
            && (match op with
               | Ast.Le | Ast.Lt -> not maximize
               | Ast.Ge | Ast.Gt -> maximize
               | Ast.Eq | Ast.Neq -> false)
          | _ -> false)
        conjuncts
    with _ -> false)

(* ------------------------------------------------------------------ *)
(* The clause pipeline: FROM → WHERE → translate → rewrite → σ →        *)
(* BUT ONLY → ORDER BY → TOP → projection → row cap, each stage once.   *)
(* A run executes all of it; EXPLAIN ANALYZE executes all of it while   *)
(* recording; a plain EXPLAIN stops after the σ decision and lists the  *)
(* remaining stages.                                                    *)

module Plan = Pref_bmo.Explain.Plan
module Engine = Pref_bmo.Engine

(* What a recorded run keeps beside its spans: the profile's clause
   phases and, for EXPLAIN, the operator rows, most recent first. *)
type trail = {
  explain : bool;
  mutable phases : Pref_obs.Profile.phase list;
  mutable ops : Plan.op list;
}

(* The profile's clause phases (after [parse]); TOP, the projection and
   the row cap are EXPLAIN operators only. *)
let profile_phases =
  [ "from"; "where"; "translate"; "rewrite"; "evaluate"; "quality"; "order" ]

(* Run one stage inside its [psql.<name>] span. Only while a profile or
   an EXPLAIN records ([trail] is set) is it also timed, into its profile
   phase if it has one; only EXPLAIN also counts its rows and describes
   it by [op]. An unrecorded run reads no clock and counts no row list. *)
let stage trail name f op =
  match trail with
  | None -> Pref_obs.Span.with_span ("psql." ^ name) f
  | Some t ->
    let x, ms = Pref_obs.Span.timed_span ("psql." ^ name) f in
    if List.mem name profile_phases then
      t.phases <- Pref_obs.Profile.phase name ms :: t.phases;
    if t.explain then t.ops <- { (op x) with Plan.op_ms = Some ms } :: t.ops;
    x

let count = Relation.cardinality

(* A σ serve's answer: rows, flags, the serve's plan label (the run
   profile's algorithm) and — while recording — its profile. *)
type served = Relation.t * Engine.flags * string * Pref_obs.Profile.t option

(* The σ step's decision: the serve's name for EXPLAIN with the reason it
   displaced the ladder ([None]: the {!Pref_bmo.Query.run_within} ladder
   answers and {!Plan.decide} names its choice), and the thunk the run
   executes. *)
type decision = { named : (Plan.serve * string) option; serve : unit -> served }

(* The join pushdown's kept projections. Keys compare by Value.equal, as
   the distinct projection grouped them, except that a NaN matches a NaN:
   rows that agree on attrs(P) up to NaN fare alike under P, and under
   Value.equal alone every row with a NaN there would be dropped. *)
module Kept = Hashtbl.Make (struct
  type t = Tuple.t

  let hash = Tuple.hash

  let equal a b =
    let nan = function Value.Float f -> Float.is_nan f | _ -> false in
    Array.length a = Array.length b
    && Array.for_all2 (fun x y -> Value.equal x y || (nan x && nan y)) a b
end)

(* The σ step's one decision, over the serves in the order the executor
   tries them ([ranked]: scorable TOP k without GROUPING). *)
let sigma_serve ~deadline ~profile (cfg : Engine.config) (q : Ast.query)
    ~resolve ~where ~grouping ~ranked schema p p_eval rel filtered =
  (* the row cap applies to the final result, not inside the BMO set *)
  let bmo_cfg = { cfg with Engine.max_rows = None; profile } in
  let served ?(flags = Engine.complete) ?(attrs = []) algorithm r =
    ( r,
      flags,
      algorithm,
      if not profile then None
      else
        Some
          (Pref_obs.Profile.make ~algorithm ~input_rows:(count filtered)
             ~output_rows:(count r)
             ~attrs:(attrs @ Engine.flags_attrs flags)
             ()) )
  in
  let ladder () =
    let r =
      Pref_bmo.Query.run_within ~deadline bmo_cfg schema p_eval filtered
    in
    ( r.Engine.Result.rows,
      r.Engine.Result.flags,
      Option.value r.Engine.Result.plan ~default:"",
      r.Engine.Result.profile )
  in
  let semantic =
    cfg.Engine.costmodel && cfg.Engine.algorithm = Engine.Alg_auto
  in
  (* Selection / winnow commute: serve σ_W(σ[P](R)) from the cached
     unfiltered winnow when W is domination-closed. The decision probes
     without counting; the serve's lookup counts. *)
  let commute () =
    match where with
    | Some (c, pred)
      when semantic && cfg.Engine.cache
           && selection_commutes resolve p_eval (Ast.conjuncts c) ->
      Pref_bmo.Cache.probe Pref_bmo.Cache.global schema p_eval rel
      |> Option.map (fun reuse ->
             {
               named =
                 Some
                   ( Plan.Commute reuse,
                     "WHERE keeps the better side of P's chains: the \
                      selection commutes with the winnow of the unfiltered \
                      input" );
               serve =
                 (fun () ->
                   match
                     Pref_bmo.Cache.lookup Pref_bmo.Cache.global schema p_eval
                       rel
                   with
                   | Some (res, reuse) ->
                     served "cache-commute"
                       ~attrs:
                         [ ("reuse", Pref_bmo.Cache.reuse_to_string reuse) ]
                       (Relation.select pred res)
                   | None -> ladder ());
             })
    | _ -> None
  in
  (* Redundant winnow: P provably relates no two input rows, so
     σ[P](filtered) = filtered. *)
  let identity () =
    if not semantic then None
    else
      Constraints.redundant schema p_eval filtered
      |> Option.map (fun reason ->
             {
               named =
                 Some (Plan.Identity, "winnow provably redundant: " ^ reason);
               serve =
                 (fun () ->
                   served "identity" ~attrs:[ ("reason", reason) ] filtered);
             })
  in
  (* Join fan-out pushdown: winnow the (much smaller) distinct projection
     onto attrs(P) and keep the rows whose projection survived — σ[P]
     only reads attrs(P). *)
  let pushdown () =
    let pa = Pref.attrs p_eval in
    if
      (not (semantic && List.length q.Ast.from > 1))
      || pa = []
      || List.length pa >= Schema.arity schema
      || not (List.for_all (Schema.mem schema) pa)
    then None
    else
      let proj = Relation.project_distinct filtered pa in
      let dn = count proj in
      if 2 * dn > count filtered then None
      else
        Some
          {
            named =
              Some
                ( Plan.Pushdown dn,
                  Printf.sprintf
                    "sigma[P] reads only attrs(P): %d distinct projections \
                     stand in for the join fan-out"
                    dn );
            serve =
              (fun () ->
                let winnowed, flags =
                  Pref_bmo.Query.sigma_within ~deadline bmo_cfg
                    (Relation.schema proj) p_eval proj
                in
                let keep = Kept.create (max 16 (2 * dn)) in
                List.iter
                  (fun t -> Kept.replace keep t ())
                  (Relation.rows winnowed);
                served "pushdown" ~flags
                  ~attrs:[ ("distinct", string_of_int dn) ]
                  (Relation.select
                     (fun t -> Kept.mem keep (Tuple.project schema t pa))
                     filtered));
          }
  in
  match q.Ast.top, grouping with
  | Some k, _ when ranked ->
    {
      named =
        Some
          ( Plan.Ranked k,
            "scorable TOP k: the ranked query model keeps the k best by score"
          );
      serve =
        (fun () -> served "topk" (Pref_bmo.Topk.kbest schema p ~k filtered));
    }
  | _, _ :: _ ->
    {
      named =
        Some
          ( Plan.Grouped grouping,
            "GROUPING: sigma[P] runs per group, each through this ladder" );
      serve =
        (fun () ->
          let r, flags, attrs =
            Pref_bmo.Query.groupby_within ~deadline bmo_cfg schema p_eval
              ~by:grouping filtered
          in
          served ~flags ~attrs
            ("groupby:" ^ Engine.algorithm_to_string cfg.Engine.algorithm)
            r);
    }
  | _ -> (
    match List.find_map (fun serve -> serve ()) [ commute; identity; pushdown ]
    with
    | Some decision -> decision
    | None -> { named = None; serve = ladder })

(* The σ operator row, from the serve's profile. *)
let sigma_op ~est_out (prof : Pref_obs.Profile.t) =
  Plan.op "sigma" ~rows_in:prof.input_rows ~rows_out:prof.output_rows ?est_out
    ~children:
      (List.map
         (fun (ph : Pref_obs.Profile.phase) ->
           Plan.op ph.phase_name ~ms:ph.phase_ms)
         prof.phases)
    ~attrs:
      ((("algorithm", prof.algorithm)
       ::
       (if prof.comparisons >= 0 then
          [ ("comparisons", string_of_int prof.comparisons) ]
        else []))
      @ prof.attrs)

(* A stage after σ: BUT ONLY, ORDER BY, TOP or the projection. *)
type step = {
  name : string;
  attrs : (string * string) list;
  apply : Relation.t -> Relation.t;
}

(* The pipeline up to the σ step, which every caller executes. The σ
   decision is lazy so a run times it inside [evaluate]; EXPLAIN forces
   it first. *)
type prefix = {
  trail : trail option;
  rel : Relation.t;  (** FROM *)
  filtered : Relation.t;  (** WHERE *)
  preference : Pref.t option;
  rewrite_steps : int;
  sigma : (Pref.t * decision Lazy.t) option;
      (** the rewritten term and its σ decision *)
  tail : step list;
}

let prefix ?registry ?parse_ms ~trail ~deadline (cfg : Engine.config) env
    (q : Ast.query) =
  if cfg.Engine.check then begin
    let findings = static_check ?registry env q in
    if List.exists (fun f -> f.check_severity = "error") findings then
      raise (Rejected findings)
  end;
  Option.iter
    (fun t ->
      Option.iter
        (fun ms ->
          t.phases <- [ Pref_obs.Profile.phase "parse" ms ];
          t.ops <- [ Plan.op "parse" ~ms ])
        parse_ms)
    trail;
  let rel, where =
    stage trail "from"
      (fun () -> build_from env q)
      (fun (r, _) ->
        Plan.op "from" ~rows_out:(count r)
          ~attrs:[ ("tables", String.concat "," q.Ast.from) ])
  in
  let schema = Relation.schema rel in
  let resolve = resolver q schema in
  (* hard constraints first: the exact-match world *)
  let where =
    Option.map
      (fun c ->
        (c, Translate.condition schema (Ast.map_condition_attrs resolve c)))
      where
  in
  (* over a stored table the selection is a restriction of that
     version, whose key columns σ then reads *)
  let filtered =
    match where with
    | None -> rel
    | Some (_, pred) ->
      stage trail "where"
        (fun () -> Relation.restrict pred rel)
        (fun r -> Plan.op "where" ~rows_in:(count rel) ~rows_out:(count r))
  in
  let preference =
    stage trail "translate"
      (fun () ->
        full_preference ?registry
          {
            q with
            Ast.preferring =
              Option.map (Ast.map_pref_attrs resolve) q.Ast.preferring;
            cascade = List.map (Ast.map_pref_attrs resolve) q.Ast.cascade;
          })
      (fun _ -> Plan.op "translate")
  in
  (* algebraic optimizer step: rewrite the term to a fixpoint of the §4
     laws; every rule preserves ≡ (Definition 13), hence the BMO result
     (Proposition 7). The original term is kept for EXPLAIN and the BUT
     ONLY quality functions. *)
  let rewritten =
    Option.map
      (fun p ->
        stage trail "rewrite"
          (fun () -> Rewrite.simplify_count p)
          (fun (_, steps) ->
            Plan.op "rewrite" ~attrs:[ ("steps", string_of_int steps) ]))
      preference
  in
  let grouping = List.map resolve q.Ast.grouping in
  let ranked =
    match q.Ast.top, preference with
    | Some _, Some p -> grouping = [] && Pref.is_scorable p
    | _ -> false
  in
  let sigma =
    match preference, rewritten with
    | Some p, Some (p_eval, _) ->
      Some
        ( p_eval,
          lazy
            (sigma_serve ~deadline ~profile:(trail <> None) cfg q ~resolve
               ~where ~grouping ~ranked schema p p_eval rel filtered) )
    | _ -> None
  in
  let tail =
    List.filter_map Fun.id
      [
        (* BUT ONLY quality supervision *)
        (match q.Ast.but_only, preference with
        | [], _ -> None
        | _ :: _, None -> raise (Error "BUT ONLY requires a PREFERRING clause")
        | qs, Some p ->
          Some
            {
              name = "quality";
              attrs = [];
              apply =
                (fun r ->
                  Relation.select
                    (Translate.quality_filter schema p
                       (List.map (Ast.map_quality_attrs resolve) qs))
                    r);
            });
        (* presentation order *)
        (match q.Ast.order_by with
        | [] -> None
        | keys ->
          Some
            {
              name = "order";
              attrs = [ ("by", String.concat "," (List.map fst keys)) ];
              apply =
                (fun r ->
                  let idx =
                    List.map
                      (fun (a, asc) ->
                        (Schema.index_of_exn schema (resolve a), asc))
                      keys
                  in
                  Relation.sort_by
                    (fun t u ->
                      let rec go = function
                        | [] -> 0
                        | (i, asc) :: rest ->
                          let c =
                            Value.compare (Tuple.get t i) (Tuple.get u i)
                          in
                          if c <> 0 then if asc then c else -c else go rest
                      in
                      go idx)
                    r);
            });
        (* TOP k of a non-ranked result *)
        (match q.Ast.top with
        | Some k when not ranked ->
          Some
            {
              name = "top";
              attrs = [ ("k", string_of_int k) ];
              apply = (fun r -> fst (Pref_bmo.Query.cap_rows (Some k) r));
            }
        | _ -> None);
        (match q.Ast.select with
        | [ Ast.Star ] -> None
        | _ ->
          Some
            { name = "project"; attrs = []; apply = project_result resolve q });
      ]
  in
  {
    trail;
    rel;
    filtered;
    preference;
    rewrite_steps = Option.fold ~none:0 ~some:snd rewritten;
    sigma;
    tail;
  }

let cap_attrs (cfg : Engine.config) =
  [
    ("max_rows", Option.fold ~none:"" ~some:string_of_int cfg.Engine.max_rows);
  ]

(* The pipeline from the σ step on: serve σ[P], run the tail, then the
   engine row cap on the final, presentation-ordered result. *)
let execute ~est_out (cfg : Engine.config) (d : prefix) =
  let after, sigma_flags, sigma_plan, sigma_prof =
    match d.sigma with
    | None -> (d.filtered, Engine.complete, None, None)
    | Some (_, decision) ->
      let rows, flags, plan, prof =
        stage d.trail "evaluate"
          (fun () -> (Lazy.force decision).serve ())
          (fun (_, _, _, prof) ->
            Option.fold ~none:(Plan.op "sigma") ~some:(sigma_op ~est_out) prof)
      in
      (rows, flags, Some plan, prof)
  in
  let out =
    List.fold_left
      (fun r s ->
        stage d.trail s.name
          (fun () -> s.apply r)
          (fun out ->
            Plan.op s.name ~rows_in:(count r) ~rows_out:(count out)
              ~attrs:s.attrs))
      after d.tail
  in
  let relation, truncated =
    match cfg.Engine.max_rows with
    | None -> (out, false)
    | Some _ ->
      stage d.trail "cap"
        (fun () -> Pref_bmo.Query.cap_rows cfg.Engine.max_rows out)
        (fun (capped, truncated) ->
          Plan.op "cap" ~rows_in:(count out) ~rows_out:(count capped)
            ~attrs:
              (cap_attrs cfg
              @ Engine.flags_attrs { Engine.partial = false; truncated }))
  in
  ( relation,
    Engine.union_flags sigma_flags { Engine.partial = false; truncated },
    sigma_plan,
    sigma_prof )

let run_query_within ?registry ?parse_ms ~deadline (cfg : Engine.config) env
    (q : Ast.query) : result =
  Pref_obs.Span.with_span "psql.query" @@ fun () ->
  let trail =
    if cfg.Engine.profile then Some { explain = false; phases = []; ops = [] }
    else None
  in
  let d = prefix ?registry ?parse_ms ~trail ~deadline cfg env q in
  let relation, flags, plan, sigma_prof = execute ~est_out:None cfg d in
  let profile =
    Option.map
      (fun t ->
        (* the executor owns the clause-level phase list; the σ serve's
           profile contributes algorithm, counts and attrs (its internal
           phases are subsumed by the [evaluate] clause) *)
        let base =
          match sigma_prof with
          | Some bp -> bp
          | None ->
            Pref_obs.Profile.make ~algorithm:"scan" ~input_rows:(count d.rel)
              ~output_rows:(count relation) ()
        in
        let base =
          { base with Pref_obs.Profile.phases = List.rev t.phases }
        in
        if d.preference = None then base
        else
          Pref_obs.Profile.add_attr base "rewrite_steps"
            (string_of_int d.rewrite_steps))
      trail
  in
  { relation; preference = d.preference; profile; flags; plan }

let explain_query_within ?registry ?parse_ms ~analyze ~deadline
    (cfg : Engine.config) env ~query_text (q : Ast.query) : Plan.t =
  Pref_obs.Span.with_span "psql.explain" @@ fun () ->
  let t = { explain = true; phases = []; ops = [] } in
  let d = prefix ?registry ?parse_ms ~trail:(Some t) ~deadline cfg env q in
  let p_eval, named =
    match d.sigma with
    | Some (p_eval, decision) -> (p_eval, (Lazy.force decision).named)
    | None -> raise (Error "EXPLAIN requires a PREFERRING or CASCADE clause")
  in
  let ladder, trace, forced =
    Plan.decide cfg ~deadline (Relation.schema d.rel) p_eval d.filtered
  in
  let plan, trace, forced =
    match named with
    | None -> (ladder, trace, forced)
    | Some (serve, why) ->
      ( serve,
        {
          trace with
          Pref_bmo.Planner.t_rejected =
            (Plan.serve_kind ladder, why)
            :: trace.Pref_bmo.Planner.t_rejected;
        },
        None )
  in
  let est_out = trace.Pref_bmo.Planner.t_estimate in
  if analyze then ignore (execute ~est_out cfg d : Relation.t * _ * _ * _)
  else
    (* executes nothing past the σ decision: the rest is listed *)
    t.ops <-
      List.rev_append
        (List.map (fun s -> Plan.op s.name ~attrs:s.attrs) d.tail
        @
        if cfg.Engine.max_rows = None then []
        else [ Plan.op "cap" ~attrs:(cap_attrs cfg) ])
        (Plan.op "sigma" ~rows_in:(count d.filtered) ?est_out :: t.ops);
  let ops = List.rev t.ops in
  let total_ms =
    if analyze then
      Some
        (List.fold_left
           (fun acc o -> acc +. Option.value o.Plan.op_ms ~default:0.)
           0. ops)
    else None
  in
  Plan.make ~query:query_text ~analyze ~plan ~forced ~trace ~ops ~total_ms ()

let explain_within ?registry ~analyze ~deadline cfg env src =
  let q, parse_ms =
    Pref_obs.Span.timed_span "psql.parse" (fun () -> Parser.parse_query src)
  in
  explain_query_within ?registry ~parse_ms ~analyze ~deadline
    cfg env ~query_text:(String.trim src) q

let run_cfg ?registry cfg env src =
  (* the deadline starts before parsing, so parse / join / BMO all draw
     down the same budget *)
  let deadline = Pref_bmo.Engine.deadline_of cfg in
  let q, parse_ms =
    Pref_obs.Span.timed_span "psql.parse" (fun () -> Parser.parse_query src)
  in
  run_query_within ?registry ~parse_ms ~deadline cfg env q

let run ?registry env src = run_cfg ?registry Pref_bmo.Engine.default env src

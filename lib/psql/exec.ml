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

let run_query_within ?registry ?parse_ms ~deadline
    (cfg : Pref_bmo.Engine.config) env (q : Ast.query) : result =
  let profile = cfg.Pref_bmo.Engine.profile in
  Pref_obs.Span.with_span "psql.query" @@ fun () ->
  if cfg.Pref_bmo.Engine.check then begin
    let findings = static_check ?registry env q in
    if List.exists (fun f -> f.check_severity = "error") findings then
      raise (Rejected findings)
  end;
  (* Per-clause phase runner: always a tracing span; additionally a timed
     profile phase when the caller asked for a profile. *)
  let phases =
    ref
      (match parse_ms with
      | Some ms when profile -> [ Pref_obs.Profile.phase "parse" ms ]
      | _ -> [])
  in
  let phase name f =
    if profile then begin
      let r, ms = Pref_obs.Span.timed_span ("psql." ^ name) f in
      phases := Pref_obs.Profile.phase name ms :: !phases;
      r
    end
    else Pref_obs.Span.with_span ("psql." ^ name) f
  in
  let rel, where = phase "from" (fun () -> build_from env q) in
  let schema = Relation.schema rel in
  let resolve = resolver q schema in
  (* hard constraints first: the exact-match world *)
  let where_pred =
    Option.map
      (fun c ->
        Translate.condition schema (Ast.map_condition_attrs resolve c))
      where
  in
  let filtered =
    match where_pred with
    | None -> rel
    | Some pred -> phase "where" (fun () -> Relation.select pred rel)
  in
  let preference =
    phase "translate" (fun () ->
        full_preference ?registry
          {
            q with
            Ast.preferring =
              Option.map (Ast.map_pref_attrs resolve) q.Ast.preferring;
            cascade = List.map (Ast.map_pref_attrs resolve) q.Ast.cascade;
          })
  in
  (* algebraic optimizer step: rewrite the term to a fixpoint of the §4
     laws; every rule preserves ≡ (Definition 13), hence the BMO result
     (Proposition 7). The original term is kept for EXPLAIN and the BUT
     ONLY quality functions. *)
  let evaluated, rewrite_steps =
    match preference with
    | None -> (None, 0)
    | Some p ->
      let p', steps = phase "rewrite" (fun () -> Rewrite.simplify_count p) in
      (Some p', steps)
  in
  let grouping = List.map resolve q.Ast.grouping in
  (* soft constraints: BMO match-making.  The BMO layer draws down the
     query deadline and reports degradation through its flags; the row cap
     is applied to the final result below, not inside the BMO set. *)
  let bmo_profile = ref None in
  let bmo_flags = ref Pref_bmo.Engine.complete in
  let bmo_cfg = { cfg with Pref_bmo.Engine.max_rows = None } in
  let after_pref =
    match preference, evaluated with
    | None, _ | _, None -> filtered
    | Some p, Some p_eval ->
      phase "evaluate" (fun () ->
          match q.Ast.top, grouping with
          | Some k, [] when Pref.is_scorable p ->
            (* the ranked query model of §6.2: k best by score *)
            let r = Pref_bmo.Topk.kbest schema p ~k filtered in
            if profile then
              bmo_profile :=
                Some
                  (Pref_obs.Profile.make ~algorithm:"topk"
                     ~input_rows:(Relation.cardinality filtered)
                     ~output_rows:(Relation.cardinality r) ());
            r
          | _, [] ->
            let semantic_ok =
              cfg.Pref_bmo.Engine.costmodel
              && cfg.Pref_bmo.Engine.algorithm = Pref_bmo.Engine.Alg_auto
            in
            let record algorithm attrs r =
              if profile then
                bmo_profile :=
                  Some
                    (List.fold_left
                       (fun prof (k, v) -> Pref_obs.Profile.add_attr prof k v)
                       (Pref_obs.Profile.make ~algorithm
                          ~input_rows:(Relation.cardinality filtered)
                          ~output_rows:(Relation.cardinality r) ())
                       attrs);
              r
            in
            (* Selection / winnow commute: serve σ_W(σ[P](R)) from the
               cached unfiltered winnow when W is domination-closed. *)
            let commute_serve () =
              match where, where_pred with
              | Some c, Some pred
                when semantic_ok && cfg.Pref_bmo.Engine.cache
                     && Pref_bmo.Cache.is_enabled ()
                     && selection_commutes resolve p_eval (Ast.conjuncts c)
                -> (
                (* probe (non-counting) before lookup so a cold base
                   winnow does not count an extra miss *)
                match
                  Pref_bmo.Cache.probe Pref_bmo.Cache.global schema p_eval rel
                with
                | None -> None
                | Some _ -> (
                  match
                    Pref_bmo.Cache.lookup Pref_bmo.Cache.global schema p_eval
                      rel
                  with
                  | Some (res, reuse) ->
                    let tier =
                      match reuse with
                      | Pref_bmo.Cache.Exact -> "exact"
                      | Pref_bmo.Cache.Semantic s -> "semantic:" ^ s
                    in
                    Some
                      (record "cache-commute"
                         [ ("reuse", tier) ]
                         (Relation.select pred res))
                  | None -> None))
              | _ -> None
            in
            (* Redundant winnow: P provably relates no two input rows, so
               σ[P](filtered) = filtered. *)
            let identity_serve () =
              if not semantic_ok then None
              else
                match Constraints.redundant schema p_eval filtered with
                | Some reason ->
                  Some (record "identity" [ ("reason", reason) ] filtered)
                | None -> None
            in
            (* Join fan-out pushdown: winnow the (much smaller) distinct
               projection onto attrs(P) and keep the rows whose
               projection survived — σ[P] only reads attrs(P). *)
            let pushdown_serve () =
              if not (semantic_ok && List.length q.Ast.from > 1) then None
              else
                let pa = Pref.attrs p_eval in
                if
                  pa = []
                  || List.length pa >= Schema.arity schema
                  || not (List.for_all (Schema.mem schema) pa)
                then None
                else begin
                  let proj = Relation.project_distinct filtered pa in
                  let dn = Relation.cardinality proj in
                  let n = Relation.cardinality filtered in
                  if 2 * dn > n then None
                  else begin
                    let winnowed, f =
                      Pref_bmo.Query.sigma_within ~deadline bmo_cfg
                        (Relation.schema proj) p_eval proj
                    in
                    bmo_flags := f;
                    let keep = Hashtbl.create (max 16 (2 * dn)) in
                    List.iter
                      (fun t -> Hashtbl.replace keep t ())
                      (Relation.rows winnowed);
                    let r =
                      Relation.select
                        (fun t ->
                          Hashtbl.mem keep (Tuple.project schema t pa))
                        filtered
                    in
                    Some
                      (record "pushdown"
                         [ ("distinct", string_of_int dn) ]
                         r)
                  end
                end
            in
            let fallback () =
              let r =
                Pref_bmo.Query.run_within ~deadline bmo_cfg schema p_eval
                  filtered
              in
              bmo_flags := r.Pref_bmo.Engine.Result.flags;
              bmo_profile := r.Pref_bmo.Engine.Result.profile;
              r.Pref_bmo.Engine.Result.rows
            in
            (match commute_serve () with
            | Some r -> r
            | None -> (
              match identity_serve () with
              | Some r -> r
              | None -> (
                match pushdown_serve () with
                | Some r -> r
                | None -> fallback ())))
          | _, by ->
            let r, f =
              Pref_bmo.Query.sigma_groupby_within ~deadline bmo_cfg schema
                p_eval ~by filtered
            in
            bmo_flags := f;
            if profile then
              bmo_profile :=
                Some
                  (Pref_obs.Profile.make
                     ~algorithm:
                       ("groupby:"
                       ^ Pref_bmo.Query.algorithm_to_string
                           cfg.Pref_bmo.Engine.algorithm)
                     ~input_rows:(Relation.cardinality filtered)
                     ~output_rows:(Relation.cardinality r) ());
            r)
  in
  (* BUT ONLY quality supervision *)
  let after_quality =
    match q.Ast.but_only, preference with
    | [], _ -> after_pref
    | qs, Some p ->
      phase "quality" (fun () ->
          Relation.select
            (Translate.quality_filter schema p
               (List.map (Ast.map_quality_attrs resolve) qs))
            after_pref)
    | _ :: _, None -> raise (Error "BUT ONLY requires a PREFERRING clause")
  in
  (* presentation order *)
  let ordered =
    match q.Ast.order_by with
    | [] -> after_quality
    | keys ->
      phase "order" (fun () ->
          let idx =
            List.map
              (fun (a, asc) -> (Schema.index_of_exn schema (resolve a), asc))
              keys
          in
          Relation.sort_by
            (fun t u ->
              let rec go = function
                | [] -> 0
                | (i, asc) :: rest ->
                  let c = Value.compare (Tuple.get t i) (Tuple.get u i) in
                  if c <> 0 then if asc then c else -c else go rest
              in
              go idx)
            after_quality)
  in
  let after_quality = ordered in
  (* TOP k truncation for non-ranked results *)
  let truncated =
    match q.Ast.top, preference with
    | Some _, Some p when Pref.is_scorable p && grouping = [] ->
      after_quality (* already the k best *)
    | Some k, _ ->
      let rows = Relation.rows after_quality in
      let rec take n = function
        | [] -> []
        | r :: rest -> if n = 0 then [] else r :: take (n - 1) rest
      in
      Relation.make (Relation.schema after_quality) (take k rows)
    | None, _ -> after_quality
  in
  let projected = project_result resolve q truncated in
  (* the engine row cap applies to the final, presentation-ordered result *)
  let relation, capped =
    match cfg.Pref_bmo.Engine.max_rows with
    | None -> (projected, false)
    | Some k ->
      let rows = Relation.rows projected in
      if List.length rows <= k then (projected, false)
      else
        ( Relation.make (Relation.schema projected)
            (List.filteri (fun i _ -> i < k) rows),
          true )
  in
  let flags =
    Pref_bmo.Engine.union_flags !bmo_flags
      { Pref_bmo.Engine.partial = false; truncated = capped }
  in
  let prof =
    if not profile then None
    else begin
      (* the executor owns the clause-level phase list; the BMO profile
         contributes algorithm, counts and attrs (its internal phases are
         subsumed by the [evaluate] clause) *)
      let base =
        match !bmo_profile with
        | Some bp -> bp
        | None ->
          Pref_obs.Profile.make ~algorithm:"scan"
            ~input_rows:(Relation.cardinality rel)
            ~output_rows:(Relation.cardinality relation) ()
      in
      let base =
        { base with Pref_obs.Profile.phases = List.rev !phases }
      in
      Some
        (if rewrite_steps > 0 || preference <> None then
           Pref_obs.Profile.add_attr base "rewrite_steps"
             (string_of_int rewrite_steps)
         else base)
    end
  in
  { relation; preference; profile = prof; flags }

(* ------------------------------------------------------------------ *)
(* EXPLAIN [ANALYZE]: the same pipeline, narrating instead of answering.
   FROM / WHERE / translate / rewrite always execute — the plan decision
   needs the real filtered relation (cardinality, sampling, cache
   fingerprints).  The σ[P] step and everything after it run only under
   ANALYZE; a plain EXPLAIN reports their structure and estimates. *)

module Plan = Pref_bmo.Explain.Plan

let explain_query_within ?registry ?parse_ms ~analyze ~deadline
    (cfg : Pref_bmo.Engine.config) env ~query_text (q : Ast.query) : Plan.t =
  Pref_obs.Span.with_span "psql.explain" @@ fun () ->
  if cfg.Pref_bmo.Engine.check then begin
    let findings = static_check ?registry env q in
    if List.exists (fun f -> f.check_severity = "error") findings then
      raise (Rejected findings)
  end;
  let ops = ref [] in
  let push o = ops := o :: !ops in
  (match parse_ms with
  | Some ms -> push (Plan.op "parse" ~ms)
  | None -> ());
  let timed name f = Pref_obs.Span.timed_span ("psql." ^ name) f in
  let (rel, where), from_ms = timed "from" (fun () -> build_from env q) in
  let n0 = Relation.cardinality rel in
  push
    (Plan.op "from" ~rows_out:n0 ~ms:from_ms
       ~attrs:[ ("tables", String.concat "," q.Ast.from) ]);
  let schema = Relation.schema rel in
  let resolve = resolver q schema in
  let filtered =
    match where with
    | None -> rel
    | Some c ->
      let r, ms =
        timed "where" (fun () ->
            Relation.select
              (Translate.condition schema (Ast.map_condition_attrs resolve c))
              rel)
      in
      push
        (Plan.op "where" ~rows_in:n0 ~rows_out:(Relation.cardinality r) ~ms);
      r
  in
  let n1 = Relation.cardinality filtered in
  let preference, translate_ms =
    timed "translate" (fun () ->
        full_preference ?registry
          {
            q with
            Ast.preferring =
              Option.map (Ast.map_pref_attrs resolve) q.Ast.preferring;
            cascade = List.map (Ast.map_pref_attrs resolve) q.Ast.cascade;
          })
  in
  let p =
    match preference with
    | Some p -> p
    | None ->
      raise (Error "EXPLAIN requires a PREFERRING or CASCADE clause")
  in
  push (Plan.op "translate" ~ms:translate_ms);
  let (p_eval, rewrite_steps), rewrite_ms =
    timed "rewrite" (fun () -> Rewrite.simplify_count p)
  in
  push
    (Plan.op "rewrite" ~ms:rewrite_ms
       ~attrs:[ ("steps", string_of_int rewrite_steps) ]);
  let grouping = List.map resolve q.Ast.grouping in
  let bmo_cfg = { cfg with Pref_bmo.Engine.max_rows = None } in
  let plan, trace, forced =
    Plan.decide bmo_cfg ~deadline schema p_eval filtered
  in
  (* Winnow elimination mirrors the executor: when P provably relates no
     two rows of the input, the identity plan replaces whatever the
     planner picked (which moves to the rejected list). *)
  let plan, trace =
    if
      cfg.Pref_bmo.Engine.costmodel && forced = None && grouping = []
      && not (q.Ast.top <> None && Pref.is_scorable p)
    then
      match Constraints.redundant schema p_eval filtered with
      | Some reason ->
        ( Pref_bmo.Planner.Plan_identity,
          {
            trace with
            Pref_bmo.Planner.t_rejected =
              ( Pref_bmo.Planner.plan_kind plan,
                "winnow provably redundant: " ^ reason )
              :: trace.Pref_bmo.Planner.t_rejected;
          } )
      | None -> (plan, trace)
    else (plan, trace)
  in
  let identity =
    match plan with Pref_bmo.Planner.Plan_identity -> true | _ -> false
  in
  let est = trace.Pref_bmo.Planner.t_estimate in
  (* evaluation: real under ANALYZE, structural otherwise *)
  let after_pref =
    match q.Ast.top, grouping with
    | Some k, [] when Pref.is_scorable p ->
      if analyze then begin
        let r, ms =
          timed "topk" (fun () -> Pref_bmo.Topk.kbest schema p ~k filtered)
        in
        push
          (Plan.op "topk" ~rows_in:n1 ~rows_out:(Relation.cardinality r) ~ms
             ~attrs:[ ("k", string_of_int k) ]);
        Some r
      end
      else begin
        push (Plan.op "topk" ~rows_in:n1 ~attrs:[ ("k", string_of_int k) ]);
        None
      end
    | _, [] ->
      if analyze && identity then begin
        push
          (Plan.op "sigma" ~rows_in:n1 ~rows_out:n1 ?est_out:est
             ~attrs:[ ("algorithm", "identity") ]);
        Some filtered
      end
      else if analyze then begin
        let res, ms =
          timed "evaluate" (fun () ->
              Pref_bmo.Query.run_within ~deadline
                { bmo_cfg with Pref_bmo.Engine.profile = true }
                schema p_eval filtered)
        in
        let r = res.Pref_bmo.Engine.Result.rows
        and flags = res.Pref_bmo.Engine.Result.flags
        and prof = Option.get res.Pref_bmo.Engine.Result.profile in
        let children =
          List.map
            (fun ph ->
              Plan.op ph.Pref_obs.Profile.phase_name
                ~ms:ph.Pref_obs.Profile.phase_ms)
            prof.Pref_obs.Profile.phases
        in
        push
          (Plan.op "sigma" ~rows_in:n1 ~rows_out:(Relation.cardinality r)
             ?est_out:est ~ms ~children
             ~attrs:
               ((("algorithm", prof.Pref_obs.Profile.algorithm)
                ::
                (if prof.Pref_obs.Profile.comparisons >= 0 then
                   [
                     ( "comparisons",
                       string_of_int prof.Pref_obs.Profile.comparisons );
                   ]
                 else []))
               @ prof.Pref_obs.Profile.attrs
               @ Pref_bmo.Engine.flags_attrs flags));
        Some r
      end
      else begin
        push (Plan.op "sigma" ~rows_in:n1 ?est_out:est);
        None
      end
    | _, by ->
      if analyze then begin
        let (r, flags), ms =
          timed "evaluate" (fun () ->
              Pref_bmo.Query.sigma_groupby_within ~deadline bmo_cfg schema
                p_eval ~by filtered)
        in
        push
          (Plan.op "sigma_groupby" ~rows_in:n1
             ~rows_out:(Relation.cardinality r) ~ms
             ~attrs:
               (("by", String.concat "," by)
               :: Pref_bmo.Engine.flags_attrs flags));
        Some r
      end
      else begin
        push
          (Plan.op "sigma_groupby" ~rows_in:n1
             ~attrs:[ ("by", String.concat "," by) ]);
        None
      end
  in
  (* the presentation tail: BUT ONLY / ORDER BY / TOP / projection *)
  let structural name attrs = push (Plan.op name ~attrs) in
  let tail r =
    let r =
      match q.Ast.but_only with
      | [] -> r
      | qs -> (
        match r with
        | None ->
          structural "quality" [];
          None
        | Some rel_in ->
          let rows_in = Relation.cardinality rel_in in
          let out, ms =
            timed "quality" (fun () ->
                Relation.select
                  (Translate.quality_filter schema p
                     (List.map (Ast.map_quality_attrs resolve) qs))
                  rel_in)
          in
          push
            (Plan.op "quality" ~rows_in ~rows_out:(Relation.cardinality out)
               ~ms);
          Some out)
    in
    let r =
      match q.Ast.order_by with
      | [] -> r
      | keys -> (
        let attrs = [ ("by", String.concat "," (List.map fst keys)) ] in
        match r with
        | None ->
          structural "order" attrs;
          None
        | Some rel_in ->
          let idx =
            List.map
              (fun (a, asc) -> (Schema.index_of_exn schema (resolve a), asc))
              keys
          in
          let out, ms =
            timed "order" (fun () ->
                Relation.sort_by
                  (fun t u ->
                    let rec go = function
                      | [] -> 0
                      | (i, asc) :: rest ->
                        let c = Value.compare (Tuple.get t i) (Tuple.get u i) in
                        if c <> 0 then if asc then c else -c else go rest
                    in
                    go idx)
                  rel_in)
          in
          push
            (Plan.op "order" ~rows_out:(Relation.cardinality out) ~ms ~attrs);
          Some out)
    in
    let r =
      match q.Ast.top with
      | Some k when not (Pref.is_scorable p && grouping = []) -> (
        let attrs = [ ("k", string_of_int k) ] in
        match r with
        | None ->
          structural "top" attrs;
          None
        | Some rel_in ->
          let rows = Relation.rows rel_in in
          let out =
            Relation.make (Relation.schema rel_in)
              (List.filteri (fun i _ -> i < k) rows)
          in
          push
            (Plan.op "top" ~rows_in:(List.length rows)
               ~rows_out:(Relation.cardinality out) ~attrs);
          Some out)
      | _ -> r
    in
    match q.Ast.select with
    | [ Ast.Star ] -> r
    | _ -> (
      match r with
      | None ->
        structural "project" [];
        None
      | Some rel_in ->
        let out, ms = timed "project" (fun () -> project_result resolve q rel_in) in
        push (Plan.op "project" ~rows_out:(Relation.cardinality out) ~ms);
        Some out)
  in
  ignore (tail after_pref : Relation.t option);
  let ops = List.rev !ops in
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

open Pref_relation

type algorithm = Engine.algorithm =
  | Alg_naive
  | Alg_bnl
  | Alg_decompose
  | Alg_parallel
  | Alg_auto

let algorithm_of_string = Engine.algorithm_of_string
let algorithm_to_string = Engine.algorithm_to_string

(* [max_rows] caps the final result; the flag records that rows were
   dropped so callers can surface it (the wire protocol's [truncated]).
   Walks at most k + 1 rows: the cap never counts the list. *)
let cap_rows max_rows rel =
  let rec drop k = function _ :: rest when k > 0 -> drop (k - 1) rest | l -> l in
  let rec prefix k = function
    | r :: rest when k > 0 -> r :: prefix (k - 1) rest
    | _ -> []
  in
  match max_rows with
  | Some k when drop k (Relation.rows rel) <> [] ->
    (Relation.make (Relation.schema rel) (prefix k (Relation.rows rel)), true)
  | _ -> (rel, false)

(* ------------------------------------------------------------------ *)
(* The decision: cache, then deadline, then knob, then planner          *)

type 'hit decision = Cached of 'hit | Planned of Planner.plan * string option

(* Degradation ladder: a budgeted query runs on the interruptible
   sequential window loop regardless of [cfg.algorithm] — the domain
   fan-out cannot be cancelled mid-batch, the window scan can stop at any
   poll.  Without a deadline the algorithm knob names its plan. *)
let decide (cfg : Engine.config) ~deadline ~cached ~choose =
  let knob plan =
    Planned
      (plan, Some ("algorithm knob forces " ^ algorithm_to_string cfg.algorithm))
  in
  match cached with
  | Some hit -> Cached hit
  | None when Engine.has_deadline deadline ->
    Planned
      ( Planner.Plan_bnl,
        Some
          "deadline set: budgeted queries run on the interruptible sequential \
           window kernel (degradation ladder)" )
  | None -> (
    match cfg.algorithm with
    | Alg_auto -> Planned (choose (), None)
    | Alg_naive -> knob Planner.Plan_naive
    | Alg_bnl -> knob Planner.Plan_bnl
    | Alg_decompose -> knob Planner.Plan_decompose
    | Alg_parallel ->
      knob
        (Planner.Plan_par_dnc
           {
             domains =
               (match cfg.domains with
               | Some d -> max 1 d
               | None -> Parallel.default_domains ());
           }))

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

(* The σ run and how it compared rows ([None]: a cache hit ran no
   kernel). *)
let run_form ?like ~deadline (cfg : Engine.config) schema p rel =
  Pref_obs.Span.with_span "bmo.sigma" @@ fun () ->
  let cached, lookup_ms =
    if cfg.cache then
      Pref_obs.Span.timed (fun () ->
          Cache.lookup ~gate:cfg.costmodel Cache.global schema p rel)
    else (None, 0.)
  in
  let plan_phase = ref [] in
  let choose () =
    let plan, ms =
      Pref_obs.Span.timed (fun () ->
          Planner.choose ~costmodel:cfg.costmodel ?domains:cfg.domains schema
            p rel)
    in
    Obs.plan_chosen (Planner.plan_kind plan);
    plan_phase := [ Pref_obs.Profile.phase "plan" ms ];
    plan
  in
  let algorithm, (o : Planner.outcome), form, phases, ms =
    match decide cfg ~deadline ~cached ~choose with
    | Cached (result, reuse) ->
      let tier = Cache.reuse_to_string reuse in
      ( "cache:" ^ tier,
        {
          result;
          tests = -1;
          timed_out = false;
          form = Dominance.Closure;
          attrs = [ ("cache", tier) ];
          phases = [];
        },
        None,
        [ Pref_obs.Profile.phase "cache_lookup" lookup_ms ],
        lookup_ms )
    | Planned (plan, forced) ->
      let eval, compile_ms =
        Pref_obs.Span.timed (fun () ->
            Planner.prepare ~deadline ?like schema p rel plan)
      in
      let o, eval_ms = Pref_obs.Span.timed eval in
      let kind = Planner.plan_kind plan in
      let algorithm, o =
        match forced with
        | Some _ -> ((if o.timed_out then kind ^ ":degraded" else kind), o)
        | None ->
          ( "auto:" ^ kind,
            { o with attrs = ("plan", Planner.plan_to_string plan) :: o.attrs }
          )
      in
      (* partial results never reach the cache *)
      if cfg.cache && not o.timed_out then
        Cache.store Cache.global schema p rel o.result;
      ( algorithm,
        o,
        Some o.form,
        !plan_phase
        @ (Pref_obs.Profile.phase "compile" compile_ms :: o.phases)
        @ [ Pref_obs.Profile.phase "evaluate" eval_ms ],
        eval_ms )
  in
  let rows, truncated = cap_rows cfg.max_rows o.result in
  let flags = { Engine.partial = o.timed_out; truncated } in
  let profile =
    (* the metrics and the profile both read cardinalities, a walk of the
       row lists that a warm cache hit would otherwise pay for nothing *)
    if not (cfg.profile || Pref_obs.Control.is_enabled ()) then None
    else begin
      let input_rows = Relation.cardinality rel in
      Obs.record_query ~algorithm ~n_in:input_rows
        ~n_out:(Relation.cardinality o.result) ~comparisons:o.tests ~ms;
      if not cfg.profile then None
      else
        Some
          (Pref_obs.Profile.make ~phases
             ~attrs:
               (Option.fold ~none:[] ~some:Dominance.form_attrs form
               @ o.attrs @ Engine.flags_attrs flags)
             ~comparisons:o.tests ~algorithm ~input_rows
             ~output_rows:(Relation.cardinality rows) ())
    end
  in
  (Engine.Result.make ?profile ~plan:algorithm rows flags, form)

let run_within ~deadline cfg schema p rel = fst (run_form ~deadline cfg schema p rel)

let sigma_within ~deadline cfg schema p rel =
  let r = run_within ~deadline cfg schema p rel in
  (r.Engine.Result.rows, r.Engine.Result.flags)

let sigma schema p rel =
  fst (sigma_within ~deadline:Engine.no_deadline Engine.default schema p rel)

let groupby_within ~deadline (cfg : Engine.config) schema p ~by rel =
  (* each group is a sub-query through the ladder, so groups share the
     cache, the domain setting and one deadline budget; the row cap
     applies to the combined result only. Groups are not profiled: the
     σ row reports their count, the forms they ran in and the column
     builds they paid. *)
  let group_cfg = { cfg with Engine.max_rows = None; profile = false } in
  let groups = Relation.group_by rel by in
  (* the groups of a stored version share its columns: the keyed plans
     compile the term once for all of them *)
  let like = lazy (Dominance.keyed schema p (List.hd groups)) in
  (* the forms in first-appearance order, as reported without their
     column time, which is summed over the groups *)
  let rows, flags, forms, columns_ms =
    List.fold_left
      (fun (acc, flags, forms, columns_ms) g ->
        let r, form = run_form ~like ~deadline group_cfg schema p g in
        let form_attrs, ms =
          match form with
          | None -> ([], 0.)
          | Some f ->
            ( List.filter (fun (k, _) -> k <> "columns_ms") (Dominance.form_attrs f),
              match f with
              | Dominance.Keyed k -> k.columns_ms
              | Dominance.Closure -> 0. )
        in
        ( List.rev_append (Relation.rows r.Engine.Result.rows) acc,
          Engine.union_flags flags r.Engine.Result.flags,
          (if form_attrs = [] || List.mem form_attrs forms then forms
           else forms @ [ form_attrs ]),
          columns_ms +. ms ))
      ([], Engine.complete, [], 0.)
      groups
  in
  let result, truncated =
    cap_rows cfg.max_rows (Relation.make (Relation.schema rel) (List.rev rows))
  in
  let attrs =
    if not cfg.profile then []
    else
      (("groups", string_of_int (List.length groups)) :: List.concat forms)
      @
      if List.mem ("dominance", "keyed") (List.concat forms) then
        [ ("columns_ms", Printf.sprintf "%.3f" columns_ms) ]
      else []
  in
  (result, Engine.union_flags flags { Engine.partial = false; truncated }, attrs)

let sigma_groupby_within ~deadline cfg schema p ~by rel =
  let result, flags, _ = groupby_within ~deadline cfg schema p ~by rel in
  (result, flags)

let sigma_levels schema p ~levels rel =
  (* iterated BMO: level 1 is sigma[P](R); level i+1 is sigma[P] of what is
     left after removing the better levels — exactly the level function of
     the database better-than graph (Definition 2), evaluated lazily *)
  if levels < 1 then invalid_arg "Query.sigma_levels: levels must be >= 1";
  Pref_obs.Span.with_span "bmo.sigma_levels"
    ~attrs:[ ("levels", string_of_int levels) ]
  @@ fun () ->
  let dom = Dominance.of_pref schema p in
  let rec go k remaining acc =
    if k = 0 || remaining = [] then List.concat (List.rev acc)
    else begin
      let best = Naive.maxima dom remaining in
      Pref_obs.Metrics.incr Obs.levels_computed;
      let rest = List.filter (fun t -> not (List.memq t best)) remaining in
      go (k - 1) rest (best :: acc)
    end
  in
  Relation.make (Relation.schema rel) (go levels (Relation.rows rel) [])

let perfect_matches schema p ~ideal rel =
  (* A perfect match (Definition 14b) is a tuple whose projection is maximal
     in the whole domain of wishes, not merely in R.  Deciding membership in
     max(P) needs the domain; [ideal] supplies a predicate for it (e.g. level
     1 under the intrinsic level function). *)
  Relation.select (fun t -> ideal t) (sigma schema p rel)

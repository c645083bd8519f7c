open Pref_relation
open Pref_sql

type stats = {
  queries : int;
  degraded : int;
  truncated : int;
  errors : int;
}

(* The last successful preference statement, when its shape makes its
   result a sound revision seed: SELECT * over one table, no WHERE, no
   TOP / BUT ONLY / GROUP BY, complete flags.  [l_seed] is kept equal to
   sigma[P](table) across single-row DML (inserts are patched in place)
   or dropped — by a delete that touches a seed row (promotions would
   need the shadow set) or by another connection's DML ([set_env]).
   Without a seed the statement stays armed and the next refine runs
   cold. *)
type last = {
  l_table : string;
  l_query : Ast.query;
  l_dom : Pref_bmo.Dominance.t;
  mutable l_seed : Relation.t option;
}

type t = {
  s_id : int;
  mutable env : Exec.env;
  reg : Translate.registry;
  mutable config : Pref_bmo.Engine.config;
  mutable statements : (string * Ast.query) list;
  mutable last : last option;
  mutable queries : int;
  mutable degraded : int;
  mutable truncated : int;
  mutable errors : int;
}

(* Session ids only need to be distinct within the process — slow-query
   log entries and trace attributes use them to tell sessions apart. *)
let next_id = Atomic.make 1

let create ?(registry = Translate.default_registry)
    ?(config = Pref_bmo.Engine.default) ?(env = []) () =
  {
    s_id = Atomic.fetch_and_add next_id 1;
    env;
    reg = registry;
    config;
    statements = [];
    last = None;
    queries = 0;
    degraded = 0;
    truncated = 0;
    errors = 0;
  }

let id t = t.s_id

let env t = t.env

let drop_seed t = Option.iter (fun l -> l.l_seed <- None) t.last

let set_env t env =
  (* the revision seed was computed against the old tables *)
  if env != t.env then drop_seed t;
  t.env <- env

(* swap a table without touching the revision seed — single-row DML
   below patches the seed itself *)
let set_table t name rel = t.env <- (name, rel) :: List.remove_assoc name t.env

let add_table t name rel =
  let name = String.lowercase_ascii name in
  (match t.last with
  | Some l when String.equal l.l_table name -> t.last <- None
  | _ -> ());
  set_table t name rel

let find_table t name = Exec.find_table t.env name
let config t = t.config
let set_config t cfg = t.config <- cfg

let set t ~key ~value =
  match Pref_bmo.Engine.set t.config ~key ~value with
  | Ok cfg ->
    t.config <- cfg;
    let shown =
      List.assoc_opt (String.lowercase_ascii key)
        (Pref_bmo.Engine.describe cfg)
    in
    Ok
      (Printf.sprintf "%s: %s"
         (String.lowercase_ascii key)
         (Option.value shown ~default:value))
  | Error _ as e -> e

let describe t = Pref_bmo.Engine.describe t.config
let registry t = t.reg

let prepare t ~name src =
  let q = Parser.parse_query src in
  t.statements <- (name, q) :: List.remove_assoc name t.statements

let prepared t = List.map fst t.statements

let count_result t (r : Exec.result) =
  if r.flags.Pref_bmo.Engine.partial then t.degraded <- t.degraded + 1;
  if r.flags.Pref_bmo.Engine.truncated then t.truncated <- t.truncated + 1;
  r

(* [@name] resolves a prepared statement; anything else is source text. *)
let resolve_statement t src =
  let src = String.trim src in
  if String.length src > 0 && src.[0] = '@' then begin
    let name = String.sub src 1 (String.length src - 1) in
    match List.assoc_opt name t.statements with
    | Some q -> (src, Some q)
    | None ->
      raise
        (Exec.Error
           (Printf.sprintf "no prepared statement %S%s" name
              (Typo.suggest (List.map fst t.statements) name)))
  end
  else (src, None)

(* Seed tracking: remember the statement iff its result is literally
   sigma[P](table) — the shape every revision strategy is proved
   against. Everything else clears the seed (the "last term" changed
   to something we cannot revise from). *)
let seedable (q : Ast.query) =
  (match q.Ast.select with [ Ast.Star ] -> true | _ -> false)
  && q.Ast.where = None && q.Ast.top = None && q.Ast.but_only = []
  && q.Ast.grouping = []
  && match q.Ast.from with [ _ ] -> true | _ -> false

let track t src qopt (r : Exec.result) =
  match r.Exec.preference with
  | Some p when r.Exec.flags = Pref_bmo.Engine.complete -> (
    let q =
      match qopt with
      | Some q -> Some q
      | None -> ( try Some (Parser.parse_query src) with _ -> None)
    in
    match q with
    | Some q when seedable q ->
      t.last <-
        Some
          {
            l_table = String.lowercase_ascii (List.hd q.Ast.from);
            l_query = q;
            l_dom = Pref_bmo.Dominance.of_pref (Relation.schema r.relation) p;
            l_seed = Some r.relation;
          }
    | _ -> t.last <- None)
  | _ -> t.last <- None

let execute t ~deadline src =
  match resolve_statement t src with
  | src, Some q ->
    let r =
      count_result t
        (Exec.run_query_within ~registry:t.reg ~deadline t.config t.env q)
    in
    track t src (Some q) r;
    r
  | src, None ->
    let r =
      count_result t
        (Exec.run_within ~registry:t.reg ~deadline t.config t.env src)
    in
    track t src None r;
    r

let plan_summary (r : Exec.result) =
  match r.Exec.profile with
  | Some p -> Some p.Pref_obs.Profile.algorithm
  | None -> None

let run_within t ~deadline src =
  t.queries <- t.queries + 1;
  try
    match t.config.Pref_bmo.Engine.slowlog_ms with
    | None -> execute t ~deadline src
    | Some threshold_ms ->
      (* Time the whole statement and collect its span tree (present only
         while telemetry is on); at or above the threshold the query goes
         to the slow-query log.  The profile knob decides whether a plan
         summary is available — slowlog itself does not force profiling. *)
      let since = Pref_obs.Clock.now_ns () in
      let r, span =
        Pref_obs.Span.collect "session.query"
          ~attrs:[ ("session", string_of_int t.s_id) ]
          (fun () -> execute t ~deadline src)
      in
      let ms = Pref_obs.Clock.elapsed_ms ~since in
      if ms >= threshold_ms then
        Slowlog.record ~ms ~threshold_ms ~query:(String.trim src)
          ~session:t.s_id ~plan:(plan_summary r) ?span ();
      r
  with e ->
    t.errors <- t.errors + 1;
    raise e

let run t src =
  run_within t ~deadline:(Pref_bmo.Engine.deadline_of t.config) src

(* ------------------------------------------------------------------ *)
(* Preference revision (\refine / the REFINE wire verb)                *)

let no_seed_message =
  "no preceding preference query to refine (run SELECT * FROM <table> \
   PREFERRING ... first)"

let revised_query t term_src =
  match t.last with
  | None -> raise (Exec.Error no_seed_message)
  | Some l ->
    let term = Parser.parse_pref term_src in
    (l, { l.l_query with Ast.preferring = Some term; Ast.cascade = [] })

let refine_within t ~deadline term_src =
  let l, q' = revised_query t term_src in
  t.queries <- t.queries + 1;
  try
    let o =
      Revise.execute ~registry:t.reg ~deadline t.config t.env ~table:l.l_table
        ~seed:l.l_seed ~old_q:l.l_query q'
    in
    let r = count_result t o.Revise.o_result in
    track t "" (Some q') r;
    { o with Revise.o_result = r }
  with e ->
    t.errors <- t.errors + 1;
    raise e

let refine t term_src =
  refine_within t ~deadline:(Pref_bmo.Engine.deadline_of t.config) term_src

let refine_explain t term_src =
  let l, q' = revised_query t term_src in
  Revise.explain ~registry:t.reg
    ~deadline:(Pref_bmo.Engine.deadline_of t.config)
    t.config t.env ~table:l.l_table ~seed:l.l_seed ~old_q:l.l_query
    ~query_text:("REFINE " ^ String.trim term_src)
    q'

(* ------------------------------------------------------------------ *)
(* Single-row DML, shared by the shell's .insert/.delete and the wire
   DML verb: update the table, patch the global result cache, keep the
   revision seed in sync. *)

let require_table t name =
  match find_table t name with
  | Some rel -> rel
  | None ->
    raise (Exec.Unknown_table { name = String.lowercase_ascii name; hint = None })

let seed_note_insert t name row =
  match t.last with
  | Some ({ l_seed = Some seed; _ } as l) when String.equal l.l_table name ->
    let rows = Relation.rows seed in
    if not (List.exists (fun r -> l.l_dom r row) rows) then begin
      let kept = List.filter (fun r -> not (l.l_dom row r)) rows in
      l.l_seed <- Some (Relation.make (Relation.schema seed) (kept @ [ row ]))
    end
  | _ -> ()

let seed_note_delete t name row =
  match t.last with
  | Some { l_table; l_seed = Some seed; _ } when String.equal l_table name ->
    (* a deleted best match may promote shadow tuples we do not keep;
       drop the seed and let the next refine run cold *)
    if List.exists (Tuple.equal row) (Relation.rows seed) then drop_seed t
  | _ -> ()

let insert t name row =
  let name = String.lowercase_ascii name in
  let rel = require_table t name in
  let new_rel = Relation.add_row rel row in
  let patched =
    Pref_bmo.Cache.on_insert Pref_bmo.Cache.global ~old_rel:rel ~new_rel row
  in
  set_table t name new_rel;
  seed_note_insert t name row;
  patched

let delete t name row =
  let name = String.lowercase_ascii name in
  let rel = require_table t name in
  let removed = ref false in
  let rows =
    List.filter
      (fun r ->
        if (not !removed) && Tuple.equal r row then begin
          removed := true;
          false
        end
        else true)
      (Relation.rows rel)
  in
  if not !removed then None
  else begin
    let new_rel = Relation.make (Relation.schema rel) rows in
    let patched =
      Pref_bmo.Cache.on_delete Pref_bmo.Cache.global ~old_rel:rel ~new_rel row
    in
    set_table t name new_rel;
    seed_note_delete t name row;
    Some patched
  end

(* ------------------------------------------------------------------ *)

(* [EXPLAIN] SUBSCRIBE <query>: the continuous-query plan is the inner
   query's plan under a [delta] operator — the per-update patch priced
   by the cost model over the maintained result + shadow rows. *)
let subscribe_payload src =
  let s = String.trim src in
  if String.length s > 10 && String.uppercase_ascii (String.sub s 0 10) = "SUBSCRIBE "
  then Some (String.sub s 10 (String.length s - 10))
  else None

let delta_op t inner_src =
  let q =
    match resolve_statement t inner_src with
    | _, Some q -> Some q
    | inner, None -> ( try Some (Parser.parse_query inner) with _ -> None)
  in
  let n, dims =
    match q with
    | Some q ->
      let n =
        match q.Ast.from with
        | [ tbl ] -> (
          match find_table t tbl with
          | Some rel -> Relation.cardinality rel
          | None -> 0)
        | _ -> 0
      in
      let dims =
        match Exec.full_preference ~registry:t.reg q with
        | Some p -> List.length (Preferences.Pref.attrs p)
        | None -> 1
      in
      (n, dims)
    | None -> (0, 1)
  in
  let w =
    { Pref_bmo.Cost.n; dims = max 1 dims; domains = 1; correlation = 0. }
  in
  Pref_bmo.Explain.Plan.op "delta" ~rows_in:n
    ~attrs:
      [
        ("continuous", "true");
        ( "patch_ms",
          Printf.sprintf "%.4f" (Pref_bmo.Cost.predict_ms ~kind:"delta" w) );
      ]

let explain_within t ~analyze ~deadline src =
  match subscribe_payload src with
  | Some inner ->
    let plan =
      match resolve_statement t inner with
      | text, Some q ->
        Exec.explain_query_within ~registry:t.reg ~analyze ~deadline t.config
          t.env ~query_text:text q
      | inner, None ->
        Exec.explain_within ~registry:t.reg ~analyze ~deadline t.config t.env
          inner
    in
    {
      plan with
      Pref_bmo.Explain.Plan.query = String.trim src;
      Pref_bmo.Explain.Plan.ops =
        delta_op t inner :: plan.Pref_bmo.Explain.Plan.ops;
    }
  | None -> (
    match resolve_statement t src with
    | text, Some q ->
      Exec.explain_query_within ~registry:t.reg ~analyze ~deadline t.config
        t.env ~query_text:text q
    | src, None ->
      Exec.explain_within ~registry:t.reg ~analyze ~deadline t.config t.env src)

let explain t ~analyze src =
  explain_within t ~analyze ~deadline:(Pref_bmo.Engine.deadline_of t.config) src

let stats t =
  {
    queries = t.queries;
    degraded = t.degraded;
    truncated = t.truncated;
    errors = t.errors;
  }

let stats_lines t =
  [
    ("session.queries", string_of_int t.queries);
    ("session.degraded", string_of_int t.degraded);
    ("session.truncated", string_of_int t.truncated);
    ("session.errors", string_of_int t.errors);
  ]

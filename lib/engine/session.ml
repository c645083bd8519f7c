open Pref_relation
open Pref_sql

type stats = {
  queries : int;
  degraded : int;
  truncated : int;
  errors : int;
}

type t = {
  s_id : int;
  mutable env : Exec.env;
  reg : Translate.registry;
  mutable config : Pref_bmo.Engine.config;
  mutable statements : (string * Ast.query) list;
  mutable last : Ast.query option;
      (** the last successful statement with a preference: what REFINE
          revises *)
  mutable queries : int;
  mutable degraded : int;
  mutable truncated : int;
  mutable errors : int;
}

(* Session ids only need to be distinct within the process — slow-query
   log entries and trace attributes use them to tell sessions apart. *)
let next_id = Atomic.make 1

(* A session's tables are stored versions: the key columns queries build
   on them are kept for the next query. *)
let store env = List.iter (fun (_, rel) -> Relation.store rel) env

let create ?(registry = Translate.default_registry)
    ?(config = Pref_bmo.Engine.default) ?(env = []) () =
  store env;
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

let set_env t env =
  store env;
  t.env <- env

let set_table t name rel =
  Relation.store rel;
  t.env <- (name, rel) :: List.remove_assoc name t.env
let add_table t name rel = set_table t (String.lowercase_ascii name) rel

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

(* Resolve a statement once: [@name] is a prepared statement, anything
   else is parsed (timed, for the profile's and EXPLAIN's [parse] row).
   Returns the trimmed text, the query and the parse time. *)
let resolve t src =
  let src = String.trim src in
  if String.length src > 0 && src.[0] = '@' then begin
    let name = String.sub src 1 (String.length src - 1) in
    match List.assoc_opt name t.statements with
    | Some q -> (src, q, None)
    | None ->
      raise
        (Exec.Error
           (Printf.sprintf "no prepared statement %S%s" name
              (Typo.suggest (List.map fst t.statements) name)))
  end
  else
    let q, ms =
      Pref_obs.Span.timed_span "psql.parse" (fun () -> Parser.parse_query src)
    in
    (src, q, Some ms)

(* REFINE revises the last successful statement with a preference; a
   statement without one disarms it. *)
let execute t ~deadline ?parse_ms q =
  let r =
    count_result t
      (Exec.run_query_within ~registry:t.reg ?parse_ms ~deadline t.config t.env
         q)
  in
  t.last <- (if r.Exec.preference = None then None else Some q);
  r

(* One statement: counted in the stats (errors re-raise after counting)
   and, with the [slowlog] knob set, timed for the slow-query log. *)
let counted t ~text f =
  t.queries <- t.queries + 1;
  try
    match t.config.Pref_bmo.Engine.slowlog_ms with
    | None -> f ()
    | Some threshold_ms ->
      (* Time the whole statement and collect its span tree (present only
         while telemetry is on); at or above the threshold the query goes
         to the slow-query log with the σ serve that answered as its plan
         — slowlog itself does not force profiling. *)
      let since = Pref_obs.Clock.now_ns () in
      let r, span =
        Pref_obs.Span.collect "session.query"
          ~attrs:[ ("session", string_of_int t.s_id) ]
          f
      in
      let ms = Pref_obs.Clock.elapsed_ms ~since in
      if ms >= threshold_ms then
        Slowlog.record ~ms ~threshold_ms ~query:text ~session:t.s_id
          ~plan:r.Exec.plan ?span ();
      r
  with e ->
    t.errors <- t.errors + 1;
    raise e

let run_within t ~deadline src =
  counted t ~text:(String.trim src) (fun () ->
      let _, q, parse_ms = resolve t src in
      execute t ~deadline ?parse_ms q)

let run t src =
  run_within t ~deadline:(Pref_bmo.Engine.deadline_of t.config) src

(* ------------------------------------------------------------------ *)
(* Preference revision (\refine / the REFINE wire verb)                *)

let no_statement_message =
  "no preceding preference query to refine (run SELECT ... PREFERRING ... \
   first)"

(* The last preference statement with the new term in place of its
   PREFERRING clause (CASCADEs fold into the new term). *)
let revised_query t term_src =
  match t.last with
  | None -> raise (Exec.Error no_statement_message)
  | Some q ->
    let term = Parser.parse_pref term_src in
    (q, { q with Ast.preferring = Some term; Ast.cascade = [] })

let revision_kind t old_q new_q =
  match
    ( Exec.full_preference ~registry:t.reg old_q,
      Exec.full_preference ~registry:t.reg new_q )
  with
  | Some old_p, Some new_p -> Revise.classify ~old_p ~new_p
  | _ -> Revise.Disjoint

let refine_within t ~deadline term_src =
  let old_q, q = revised_query t term_src in
  let r =
    counted t ~text:("REFINE " ^ String.trim term_src) (fun () ->
        execute t ~deadline q)
  in
  {
    Revise.o_result = r;
    o_kind = revision_kind t old_q q;
    o_plan = Option.value r.Exec.plan ~default:"";
  }

let refine t term_src =
  refine_within t ~deadline:(Pref_bmo.Engine.deadline_of t.config) term_src

let refine_explain t term_src =
  let old_q, q = revised_query t term_src in
  let plan =
    Exec.explain_query_within ~registry:t.reg ~analyze:false
      ~deadline:(Pref_bmo.Engine.deadline_of t.config)
      t.config t.env
      ~query_text:("REFINE " ^ String.trim term_src)
      q
  in
  let refine_op =
    Pref_bmo.Explain.Plan.op "refine"
      ~attrs:[ ("revision", Revise.kind_to_string (revision_kind t old_q q)) ]
  in
  { plan with Pref_bmo.Explain.Plan.ops = refine_op :: plan.Pref_bmo.Explain.Plan.ops }

(* ------------------------------------------------------------------ *)
(* Single-row DML, shared by the shell's .insert/.delete and the wire
   DML verb: update the table and patch the global result cache. *)

let require_table t name =
  match find_table t name with
  | Some rel -> rel
  | None ->
    raise (Exec.Unknown_table { name = String.lowercase_ascii name; hint = None })

let insert t name row =
  let name = String.lowercase_ascii name in
  let rel = require_table t name in
  let new_rel = Relation.add_row rel row in
  let patched =
    Pref_bmo.Cache.on_insert Pref_bmo.Cache.global ~old_rel:rel ~new_rel row
  in
  set_table t name new_rel;
  Relation.release rel;
  patched

let delete t name row =
  let name = String.lowercase_ascii name in
  let rel = require_table t name in
  match Relation.remove_row rel row with
  | None -> None
  | Some new_rel ->
    let patched =
      Pref_bmo.Cache.on_delete Pref_bmo.Cache.global ~old_rel:rel ~new_rel row
    in
    set_table t name new_rel;
    Relation.release rel;
    Some patched

(* ------------------------------------------------------------------ *)

(* [EXPLAIN] SUBSCRIBE <query>: the continuous-query plan is the inner
   query's plan under a [delta] operator — the per-update patch priced
   by the cost model over the maintained result + shadow rows. *)
let subscribe_payload src =
  let s = String.trim src in
  if String.length s > 10 && String.uppercase_ascii (String.sub s 0 10) = "SUBSCRIBE "
  then Some (String.sub s 10 (String.length s - 10))
  else None

let delta_op t (q : Ast.query) =
  let n =
    match q.Ast.from with
    | [ tbl ] ->
      Option.fold ~none:0 ~some:Relation.cardinality (find_table t tbl)
    | _ -> 0
  in
  let dims =
    match Exec.full_preference ~registry:t.reg q with
    | Some p -> List.length (Preferences.Pref.attrs p)
    | None -> 1
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
  let inner = subscribe_payload src in
  let text, q, parse_ms = resolve t (Option.value inner ~default:src) in
  let plan =
    Exec.explain_query_within ~registry:t.reg ?parse_ms ~analyze ~deadline
      t.config t.env ~query_text:text q
  in
  match inner with
  | None -> plan
  | Some _ ->
    {
      plan with
      Pref_bmo.Explain.Plan.query = String.trim src;
      ops = delta_op t q :: plan.Pref_bmo.Explain.Plan.ops;
    }

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

open Pref_relation
module Pref = Preferences.Pref
module Canon = Preferences.Canon

(* Preference-aware BMO result cache. See the .mli for the reuse identities;
   the proofs live in DESIGN.md ("Result caching & semantic reuse"). *)

type entry = {
  e_schema : Schema.t;
  e_pref : Pref.t;  (** canonical form *)
  e_pref_key : string;
  e_fp : string;
  e_result : Relation.t;
  e_bytes : int;
  mutable e_tick : int;
}

type stats = {
  entries : int;
  bytes : int;
  hits : int;
  misses : int;
  semantic_reuses : int;
  patched_entries : int;
  evictions : int;
  cost_skipped : int;
}

type t = {
  (* One lock per cache around the public operations: the server's worker
     domains share [global] across sessions, and Hashtbl plus the mutable
     counters race without it.  Internal helpers ([add_entry],
     [find_*], [derive]) assume the lock is held and never re-take it
     (the mutex is not reentrant). *)
  m : Mutex.t;
  table : (string, entry) Hashtbl.t;
  mutable enabled : bool;
  mutable tick : int;
  mutable max_entries : int;
  mutable budget_bytes : int;
  mutable bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable semantic : int;
  mutable patched : int;
  mutable evictions : int;
  mutable cost_skipped : int;
}

let create ?(max_entries = 128) ?(budget_bytes = 64 * 1024 * 1024) () =
  {
    m = Mutex.create ();
    table = Hashtbl.create 64;
    enabled = true;
    tick = 0;
    max_entries;
    budget_bytes;
    bytes = 0;
    hits = 0;
    misses = 0;
    semantic = 0;
    patched = 0;
    evictions = 0;
    cost_skipped = 0;
  }

let global = create ()

let is_enabled () = global.enabled
let set_enabled b = global.enabled <- b

(* {1 Fingerprints} *)

(* Two independent accumulators over the per-row hash: a single polynomial
   hash truncated to an int is collision-prone at cache-relevant scales, and
   a false fingerprint match would serve a wrong result. Memoised on the
   physical identity of the row list — relations are immutable here, so the
   same physical list always denotes the same version. *)
let fp_memo : (Tuple.t list * string) list ref = ref []
let fp_memo_cap = 8

(* The memo list is shared global state touched from every domain that
   fingerprints a relation; its own small lock keeps the lock order
   simple (cache lock, then memo lock — never the reverse). *)
let fp_mutex = Mutex.create ()

let fingerprint rel =
  let rows = Relation.rows rel in
  Mutex.lock fp_mutex;
  let memoised = List.find_opt (fun (r, _) -> r == rows) !fp_memo in
  Mutex.unlock fp_mutex;
  match memoised with
  | Some (_, fp) -> fp
  | None ->
    let h1 = ref 0 and h2 = ref 0 and n = ref 0 in
    List.iter
      (fun t ->
        let h = Tuple.hash t in
        h1 := ((!h1 * 31) + h) land max_int;
        h2 := ((!h2 * 1000003) + (h lxor 0x9e3779b9)) land max_int;
        incr n)
      rows;
    let fp =
      Printf.sprintf "%s#%d:%x:%x"
        (String.concat "," (Schema.names (Relation.schema rel)))
        !n !h1 !h2
    in
    Mutex.lock fp_mutex;
    fp_memo :=
      List.filteri (fun i _ -> i < fp_memo_cap) ((rows, fp) :: !fp_memo);
    Mutex.unlock fp_mutex;
    fp

let entry_key ~fp ~pref_key = fp ^ "\x00" ^ pref_key

(* {1 Capacity} *)

let sync_gauges t =
  Pref_obs.Metrics.set Obs.cache_entries (float_of_int (Hashtbl.length t.table));
  Pref_obs.Metrics.set Obs.cache_bytes (float_of_int t.bytes)

let evict_until_fits t =
  let over () =
    Hashtbl.length t.table > t.max_entries || t.bytes > t.budget_bytes
  in
  while over () && Hashtbl.length t.table > 0 do
    let victim =
      Hashtbl.fold
        (fun key e acc ->
          match acc with
          | Some (_, best) when best.e_tick <= e.e_tick -> acc
          | _ -> Some (key, e))
        t.table None
    in
    match victim with
    | None -> ()
    | Some (key, e) ->
      Hashtbl.remove t.table key;
      t.bytes <- t.bytes - e.e_bytes;
      t.evictions <- t.evictions + 1;
      Pref_obs.Metrics.incr Obs.cache_evictions
  done;
  sync_gauges t

(* Public operations take the cache lock for their whole extent; the
   [locked] wrapper keeps the release exception-safe. *)
let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let clear t =
  locked t @@ fun () ->
  Hashtbl.reset t.table;
  t.bytes <- 0;
  sync_gauges t

let set_budget t ?max_entries ?budget_bytes () =
  locked t @@ fun () ->
  Option.iter (fun n -> t.max_entries <- max 1 n) max_entries;
  Option.iter (fun b -> t.budget_bytes <- max 0 b) budget_bytes;
  evict_until_fits t

(* {1 Store / exact lookup} *)

let touch t e =
  t.tick <- t.tick + 1;
  e.e_tick <- t.tick

let remove_entry t key =
  match Hashtbl.find_opt t.table key with
  | Some old ->
    Hashtbl.remove t.table key;
    t.bytes <- t.bytes - old.e_bytes
  | None -> ()

let make_entry ~fp ~pref_key schema cpref result =
  let e =
    {
      e_schema = schema;
      e_pref = cpref;
      e_pref_key = pref_key;
      e_fp = fp;
      e_result = result;
      e_bytes = 0;
      e_tick = 0;
    }
  in
  (* approximate: stored sets share tuples with their base relation, and
     [reachable_words] counts the shared structure in full, so this bounds
     the cache's worst-case ownership from above *)
  { e with e_bytes = Obj.reachable_words (Obj.repr e) * (Sys.word_size / 8) }

(* Add (or replace) the entry under its key; the caller sets its LRU tick
   and evicts. *)
let add_entry t e =
  let key = entry_key ~fp:e.e_fp ~pref_key:e.e_pref_key in
  remove_entry t key;
  Hashtbl.replace t.table key e;
  t.bytes <- t.bytes + e.e_bytes

let store t schema p rel result =
  if t.enabled then begin
    let fp = fingerprint rel in
    let pref_key = Canon.key p in
    let cpref = Canon.canonical p in
    let e = make_entry ~fp ~pref_key schema cpref result in
    locked t @@ fun () ->
    touch t e;
    add_entry t e;
    evict_until_fits t
  end

let find_exact t ~fp pref_key = Hashtbl.find_opt t.table (entry_key ~fp ~pref_key)

(* {1 Semantic reuse} *)

type derivation =
  | D_prior of entry * Pref.t * string list
      (** cached σ[prefix](R); rest term; groupby attrs of the prefix *)
  | D_dunion of entry list  (** every +-operand cached: fold ∩ *)
  | D_pareto of entry * Pref.t * string list
      (** cached σ[P1](R); the remaining ⊗-term; attrs(P1) *)

let rebuild mk = function
  | [] -> invalid_arg "Cache.rebuild: empty operand list"
  | first :: rest -> List.fold_left mk first rest

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

let rec drop n = function
  | _ :: rest when n > 0 -> drop (n - 1) rest
  | l -> l

(* Longest cached prefix of the &-spine: σ[Q & P'](R) = σ[P' groupby
   attrs(Q)](σ[Q](R)) (Proposition 10; the A1-group of every Q-maximal
   tuple lies wholly inside σ[Q](R), so grouping the cached set suffices). *)
let find_prior t ~fp spine =
  let n = List.length spine in
  let rec go k =
    if k < 1 then None
    else
      let prefix = take k spine in
      let prefix_term = rebuild (fun a b -> Pref.Prior (a, b)) prefix in
      match find_exact t ~fp (Preferences.Serialize.to_string prefix_term) with
      | Some e ->
        let rest = rebuild (fun a b -> Pref.Prior (a, b)) (drop k spine) in
        Some (D_prior (e, rest, Pref.attrs prefix_term))
      | None -> go (k - 1)
  in
  go (n - 1)

let find_dunion t ~fp ops =
  let cached =
    List.map (fun op -> find_exact t ~fp (Preferences.Serialize.to_string op)) ops
  in
  if List.for_all Option.is_some cached then
    Some (D_dunion (List.filter_map Fun.id cached))
  else None

(* One cached ⊗-operand P1 with attributes disjoint from the rest P2:
   σ[P1 ⊗ P2](R) = σ[P1 ⊗ P2](σ[P2 groupby attrs(P1)](R)), and the cached
   σ[P1](R) tuples surviving that restriction are already final
   (Proposition 12's first term) — they seed the scan. *)
let find_pareto t ~fp ops =
  let rec go before = function
    | [] -> None
    | op :: after -> (
      let others = List.rev_append before after in
      let a1 = Pref.attrs op in
      let rest_attrs =
        List.fold_left
          (fun acc q -> Preferences.Attr.union acc (Pref.attrs q))
          [] others
      in
      if not (Preferences.Attr.disjoint a1 rest_attrs) then
        go (op :: before) after
      else
        match find_exact t ~fp (Preferences.Serialize.to_string op) with
        | Some e ->
          let rest = rebuild (fun a b -> Pref.Pareto (a, b)) others in
          Some (D_pareto (e, rest, a1))
        | None -> go (op :: before) after)
  in
  go [] ops

let find_semantic t ~fp cpref =
  match cpref with
  | Pref.Prior _ ->
    Option.map
      (fun d -> ("prior-prefix", d))
      (find_prior t ~fp (Canon.prior_spine cpref))
  | Pref.Dunion _ ->
    Option.map
      (fun d -> ("dunion-inter", d))
      (find_dunion t ~fp (Canon.dunion_operands cpref))
  | Pref.Pareto _ ->
    Option.map
      (fun d -> ("pareto-restrict", d))
      (find_pareto t ~fp (Canon.pareto_operands cpref))
  | _ -> None

let sources = function
  | D_prior (e, _, _) | D_pareto (e, _, _) -> [ e ]
  | D_dunion entries -> entries

let derive schema cpref rel = function
  | D_prior (e, rest, by) -> Groupby.query schema rest ~by e.e_result
  | D_dunion entries -> (
    match entries with
    | [] -> invalid_arg "Cache.derive: empty dunion"
    | first :: others ->
      List.fold_left
        (fun acc e -> Relation.inter acc e.e_result)
        first.e_result others)
  | D_pareto (e, rest, a1) ->
    let restricted = Groupby.query schema rest ~by:a1 rel in
    let seed =
      List.filter
        (fun r -> Relation.mem restricted r)
        (Relation.rows e.e_result)
    in
    let others =
      List.filter
        (fun r -> not (List.exists (Tuple.equal r) seed))
        (Relation.rows restricted)
    in
    let dominates = Dominance.of_pref schema cpref in
    Relation.make schema (Bnl.maxima dominates (seed @ others))

(* Predicted reconstruction overhead a derivation would pay on top of a
   cold evaluation, in ms — [None] means "serve it".  prior-prefix and
   dunion-inter derive from the cached result sets and are strictly
   cheaper than any cold run, so they are never refused (a test pins
   this).  pareto-restrict re-groups the full base relation: at bench
   scale that reconstruction measured ~60x a cold run (B10), so it only
   serves while the predicted overhead stays inside the model's slack. *)
let derivation_overhead_ms ~n = function
  | D_prior _ | D_dunion _ -> None
  | D_pareto _ ->
    let overhead = Cost.derive_pareto_overhead_ms ~n in
    if overhead > Cost.semantic_gate_slack_ms then Some overhead else None

(* {1 The counting protocol} *)

type reuse = Exact | Semantic of string

let reuse_to_string = function
  | Exact -> "exact"
  | Semantic desc -> "semantic:" ^ desc

type tier_probe = { tier : string; hit : bool; ms : float }

(* The semantic tier a canonical term would be matched against — one per
   composition head, mirroring the dispatch in [find_semantic]. *)
let semantic_tier = function
  | Pref.Prior _ -> Some "prior-prefix"
  | Pref.Dunion _ -> Some "dunion-inter"
  | Pref.Pareto _ -> Some "pareto-restrict"
  | _ -> None

(* Time one tier's finder and feed the bmo.cache.probe_ms.<tier>
   histogram; the probe record also rides along in EXPLAIN output. *)
let timed_tier tier hit_of f =
  let since = Pref_obs.Clock.now_ns () in
  let r = f () in
  let ms = Pref_obs.Clock.elapsed_ms ~since in
  Obs.observe_probe tier ms;
  (r, { tier; hit = hit_of r; ms })

(* A lookup's keys, computed before the lock is taken; the row count only
   when the gate prices a derivation, so an exact hit never walks the
   rows. *)
type keys = { fp : string; cpref : Pref.t; pref_key : string; n : int Lazy.t }

let keys p rel =
  let cpref = Canon.canonical p in
  {
    fp = fingerprint rel;
    cpref;
    pref_key = Preferences.Serialize.to_string cpref;
    n = lazy (Relation.cardinality rel);
  }

(* The one tier walk behind both [lookup] and [probe_traced]: exact tier,
   then the term's semantic tier, then the cost gate. It neither counts
   nor derives; the caller holds the lock. *)
type walk = Hit of entry | Derive of string * derivation | Skipped | Miss

let walk t ~gate k =
  let exact, p_exact =
    timed_tier "exact" Option.is_some (fun () ->
        find_exact t ~fp:k.fp k.pref_key)
  in
  match exact, semantic_tier k.cpref with
  | Some e, _ -> (Hit e, [ p_exact ])
  | None, None -> (Miss, [ p_exact ])
  | None, Some tier -> (
    let found, p_sem =
      timed_tier tier Option.is_some (fun () ->
          find_semantic t ~fp:k.fp k.cpref)
    in
    match found with
    | None -> (Miss, [ p_exact; p_sem ])
    | Some (desc, d) -> (
      match
        if gate then derivation_overhead_ms ~n:(Lazy.force k.n) d else None
      with
      | None -> (Derive (desc, d), [ p_exact; p_sem ])
      | Some overhead ->
        (* predicted to lose to a cold run: the probe row carries the
           predicted reconstruction overhead *)
        ( Skipped,
          [
            p_exact;
            {
              p_sem with
              tier = Printf.sprintf "%s[cost-skip +%.1fms]" tier overhead;
            };
          ] )))

let lookup t ?(gate = true) schema p rel =
  if not t.enabled then None
  else begin
    let k = keys p rel in
    locked t @@ fun () ->
    let miss () =
      t.misses <- t.misses + 1;
      Pref_obs.Metrics.incr Obs.cache_misses;
      None
    in
    match fst (walk t ~gate k) with
    | Hit e ->
      touch t e;
      t.hits <- t.hits + 1;
      Pref_obs.Metrics.incr Obs.cache_hits;
      Some (e.e_result, Exact)
    | Derive (desc, d) ->
      (* derived afresh on every lookup and never stored: the cache holds
         cold evaluations only, so derivations cannot crowd them out *)
      List.iter (touch t) (sources d);
      let result = derive schema k.cpref rel d in
      t.semantic <- t.semantic + 1;
      Pref_obs.Metrics.incr Obs.cache_semantic;
      Some (result, Semantic desc)
    | Skipped ->
      t.cost_skipped <- t.cost_skipped + 1;
      Pref_obs.Metrics.incr Obs.cache_cost_skipped;
      miss ()
    | Miss -> miss ()
  end

let probe_traced t ?(gate = true) _schema p rel =
  if not t.enabled then (None, [])
  else begin
    let k = keys p rel in
    locked t @@ fun () ->
    match walk t ~gate k with
    | Hit _, probes -> (Some Exact, probes)
    | Derive (desc, _), probes -> (Some (Semantic desc), probes)
    | (Skipped | Miss), probes -> (None, probes)
  end

let probe t ?gate schema p rel = fst (probe_traced t ?gate schema p rel)

(* {1 Incremental maintenance} *)

let entries_for t fp =
  Hashtbl.fold (fun _ e acc -> if String.equal e.e_fp fp then e :: acc else acc)
    t.table []

(* Apply the maintenance rule to every entry of [old_rel]'s version and
   move it to [new_rel]'s key. A write is not a use: each entry keeps its
   LRU tick. An empty cache returns before fingerprinting either
   version. *)
let patch t ~old_rel ~new_rel rule =
  if not (t.enabled && locked t (fun () -> Hashtbl.length t.table > 0)) then 0
  else begin
    let old_fp = fingerprint old_rel in
    let new_fp = fingerprint new_rel in
    locked t @@ fun () ->
    let affected = entries_for t old_fp in
    List.iter
      (fun e ->
        remove_entry t (entry_key ~fp:old_fp ~pref_key:e.e_pref_key);
        let rows =
          rule
            (Dominance.of_pref e.e_schema e.e_pref)
            (Relation.rows e.e_result)
        in
        (* an unchanged answer (the rule returns the very same list)
           moves as it is *)
        let e' =
          if rows == Relation.rows e.e_result then { e with e_fp = new_fp }
          else
            make_entry ~fp:new_fp ~pref_key:e.e_pref_key e.e_schema e.e_pref
              (Relation.make (Relation.schema e.e_result) rows)
        in
        e'.e_tick <- e.e_tick;
        add_entry t e';
        t.patched <- t.patched + 1;
        Pref_obs.Metrics.incr Obs.cache_patched)
      affected;
    evict_until_fits t;
    List.length affected
  end

let on_insert t ~old_rel ~new_rel row =
  patch t ~old_rel ~new_rel (fun dominates result ->
      fst (Incremental.insert_rule dominates ~result row))

let on_delete t ~old_rel ~new_rel row =
  let domain = Relation.rows new_rel in
  patch t ~old_rel ~new_rel (fun dominates result ->
      match Incremental.delete_rule dominates ~result ~domain row with
      | Some (result', _) -> result'
      | None -> result)

(* {1 Introspection} *)

let stats t =
  locked t @@ fun () ->
  {
    entries = Hashtbl.length t.table;
    bytes = t.bytes;
    hits = t.hits;
    misses = t.misses;
    semantic_reuses = t.semantic;
    patched_entries = t.patched;
    evictions = t.evictions;
    cost_skipped = t.cost_skipped;
  }

let stats_lines ~enabled t =
  let s = stats t in
  let mib b = float_of_int b /. (1024. *. 1024.) in
  [
    Printf.sprintf "cache: %s — %d entries, ~%.2f MiB (budget %.0f MiB, max %d entries)"
      (if enabled then "enabled" else "disabled")
      s.entries (mib s.bytes) (mib t.budget_bytes) t.max_entries;
    Printf.sprintf
      "hits %d  misses %d  semantic %d  cost-skipped %d  patched %d  evictions %d"
      s.hits s.misses s.semantic_reuses s.cost_skipped s.patched_entries
      s.evictions;
  ]

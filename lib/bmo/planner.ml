open Pref_relation
open Preferences

type plan =
  | Plan_naive
  | Plan_bnl
  | Plan_dnc of { attrs : string list; maximize : bool }
  | Plan_par_dnc of { domains : int }
  | Plan_par_sfs of { attrs : string list; maximize : bool; domains : int }
  | Plan_cascade of Pref.t * Pref.t  (** Proposition 11: chain & rest *)
  | Plan_decompose

let plan_kind = function
  | Plan_naive -> "naive"
  | Plan_bnl -> "bnl"
  | Plan_dnc _ -> "dnc"
  | Plan_par_dnc _ -> "par_dnc"
  | Plan_par_sfs _ -> "par_sfs"
  | Plan_cascade _ -> "cascade"
  | Plan_decompose -> "decompose"

let plan_to_string = function
  | Plan_naive -> "naive"
  | Plan_bnl -> "bnl"
  | Plan_dnc { attrs; maximize } ->
    Printf.sprintf "dnc(%s %s)" (String.concat "," attrs)
      (if maximize then "max" else "min")
  | Plan_par_dnc { domains } -> Printf.sprintf "par_dnc(domains=%d)" domains
  | Plan_par_sfs { attrs; maximize; domains } ->
    Printf.sprintf "par_sfs(%s %s domains=%d)" (String.concat "," attrs)
      (if maximize then "max" else "min")
      domains
  | Plan_cascade (p1, p2) ->
    Printf.sprintf "cascade(%s; %s)" (Show.to_string p1) (Show.to_string p2)
  | Plan_decompose -> "decompose"

(* ------------------------------------------------------------------ *)
(* Structural analysis                                                 *)

(* Is the term a Pareto accumulation of pure numeric chains, all in the
   same direction?  Then the [KLP75] divide & conquer and parallel SFS
   apply.  The analysis itself lives in {!Preferences.Pref} (the
   vectorized dominance compiler needs it too); re-exported here because
   it is planner vocabulary. *)
let chain_dims = Pref.chain_dims

(* Is the head of a prioritization a chain on the data?  We accept the
   syntactic chains (LOWEST / HIGHEST / injective-by-construction rank is
   not guaranteed, so only the first two). *)
let syntactic_chain = function
  | Pref.Lowest _ | Pref.Highest _ -> true
  | Pref.Dual (Pref.Lowest _) | Pref.Dual (Pref.Highest _) -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Sampling-based statistics                                           *)

(* Every [ceil (n / size)]-th row: at most [size] rows, spread over the
   whole input. *)
let sample_rows rows ~size =
  let n = List.length rows in
  if n <= size then rows
  else begin
    let step = (n + size - 1) / size in
    List.filteri (fun i _ -> i mod step = 0) rows
  end

(* Pearson correlation of the first two numeric dims on a sample: strongly
   negative correlation predicts large skylines, where divide & conquer
   dominates window algorithms. *)
let sampled_correlation schema attrs rows =
  match attrs with
  | a :: b :: _ -> (
    let ia = Schema.index_of_exn schema a and ib = Schema.index_of_exn schema b in
    let sample = sample_rows rows ~size:500 in
    let xs =
      List.filter_map
        (fun t ->
          match Value.as_float (Tuple.get t ia), Value.as_float (Tuple.get t ib) with
          | Some x, Some y -> Some (x, y)
          | _ -> None)
        sample
    in
    match xs with
    | [] | [ _ ] -> 0.0
    | _ ->
      let n = float_of_int (List.length xs) in
      let mx = List.fold_left (fun acc (x, _) -> acc +. x) 0. xs /. n in
      let my = List.fold_left (fun acc (_, y) -> acc +. y) 0. xs /. n in
      let cov =
        List.fold_left (fun acc (x, y) -> acc +. ((x -. mx) *. (y -. my))) 0. xs
      in
      let sx =
        sqrt (List.fold_left (fun acc (x, _) -> acc +. ((x -. mx) ** 2.)) 0. xs)
      in
      let sy =
        sqrt (List.fold_left (fun acc (_, y) -> acc +. ((y -. my) ** 2.)) 0. xs)
      in
      if sx = 0. || sy = 0. then 0. else cov /. (sx *. sy))
  | _ -> 0.0

(* ------------------------------------------------------------------ *)
(* Decision procedure                                                  *)

(* One decision record feeds both [choose] (which keeps only the plan)
   and [choose_traced] (which renders everything for EXPLAIN), so the two
   can never drift apart. *)
type decision = {
  d_plan : plan;
  d_correlation : float option;
  d_costs : (string * float) list;  (* predicted ms, cheapest first *)
  d_rejected : (string * string) list;
}

let pref_dims chain p =
  match chain with
  | Some (attrs, _) -> List.length attrs
  | None -> max 1 (List.length (Pref.attrs p))

(* Cost-based choice: price every alternative that can evaluate this
   preference shape and take the cheapest. Parallel plans carry their
   spawn + merge overhead, so they lose at small n no matter how many
   domains are available. *)
let decide_by_cost ~missed ~chain ~d ~n schema p rows =
  let correlation =
    match chain with
    | Some (attrs, _) -> Some (sampled_correlation schema attrs rows)
    | None -> None
  in
  let dims = pref_dims chain p in
  let w =
    {
      Cost.n;
      dims;
      domains = d;
      correlation = Option.value correlation ~default:0.;
    }
  in
  let candidates =
    [ ("bnl", Plan_bnl) ]
    @ (match chain with
      | Some (attrs, maximize) ->
        (if List.length attrs >= 2 then
           [ ("dnc", Plan_dnc { attrs; maximize }) ]
         else [])
        @
        if d > 1 then
          [ ("par_sfs", Plan_par_sfs { attrs; maximize; domains = d }) ]
        else []
      | None -> [])
    @ (if d > 1 then [ ("par_dnc", Plan_par_dnc { domains = d }) ] else [])
    @ [ ("naive", Plan_naive) ]
  in
  let priced =
    List.map (fun (k, plan) -> (k, plan, Cost.predict_ms ~kind:k w)) candidates
  in
  let best =
    List.fold_left
      (fun ((_, _, bc) as acc) ((_, _, c) as cand) ->
        if c < bc then cand else acc)
      (List.hd priced) (List.tl priced)
  in
  let bk, bplan, bc = best in
  let by_cost =
    List.sort (fun (_, _, a) (_, _, b) -> Float.compare a b) priced
  in
  {
    d_plan = bplan;
    d_correlation = correlation;
    d_costs = List.map (fun (k, _, c) -> (k, c)) by_cost;
    d_rejected =
      missed
      @ List.filter_map
          (fun (k, _, c) ->
            if String.equal k bk then None
            else
              Some
                (k, Printf.sprintf "predicted %.3f ms vs %.3f ms for %s" c bc bk))
          by_cost;
  }

(* [missed]: the cache was probed and no tier applied — recorded so
   EXPLAIN shows why evaluation was needed at all. *)
let decide ~costmodel ~missed ~d ~n schema p rel =
  let missed =
    if missed then [ ("cache", "probe missed every applicable tier") ] else []
  in
  if n <= 64 then
    {
      d_plan = Plan_naive;
      d_correlation = None;
      d_costs = [];
      d_rejected =
        missed
        @ [ ("bnl", "n <= 64: window bookkeeping costs more than the n^2 scan") ];
    }
  else
    match p with
    | Pref.Prior (p1, p2) when syntactic_chain p1 ->
      (* Proposition 11: evaluate the chain first, then the rest on the
         (typically tiny) intermediate result. Structural, not costed:
         the cascade's first pass subsumes any alternative's scan. *)
      {
        d_plan = Plan_cascade (p1, p2);
        d_correlation = None;
        d_costs =
          (if costmodel then
             let w =
               { Cost.n; dims = pref_dims None p; domains = d; correlation = 0. }
             in
             [
               ("cascade", Cost.predict_ms ~kind:"cascade" w);
               ("bnl", Cost.predict_ms ~kind:"bnl" w);
             ]
           else []);
        d_rejected =
          missed
          @ [
              ( "bnl",
                "prioritisation head is a syntactic chain: the cascade \
                 prunes the input to a thin slice first (Prop. 11)" );
            ];
      }
    | _ when costmodel ->
      decide_by_cost ~missed ~chain:(chain_dims p) ~d ~n schema p
        (Relation.rows rel)
    | _ ->
      {
        d_plan = Plan_bnl;
        d_correlation = None;
        d_costs = [];
        d_rejected =
          missed
          @ [
              ("pricing", "costmodel off: no alternative is priced, bnl runs");
            ];
      }

let choose ?(costmodel = true) ?domains schema p rel =
  Pref_obs.Span.with_span "bmo.plan.choose" @@ fun () ->
  let d =
    match domains with Some d -> max 1 d | None -> Parallel.default_domains ()
  in
  let n = List.length (Relation.rows rel) in
  (decide ~costmodel ~missed:false ~d ~n schema p rel).d_plan

(* ------------------------------------------------------------------ *)
(* Traced choice — the same [decide], with its inputs and the rejected
   alternatives (and their predicted costs) recorded for EXPLAIN. *)

type trace = {
  t_n : int;
  t_dims : int;
  t_domains : int;
  t_chain : (string list * bool) option;
  t_correlation : float option;
  t_probes : Cache.tier_probe list;
  t_rejected : (string * string) list;
  t_estimate : float option;
  t_costs : (string * float) list;
}

let choose_traced ?(cache = true) ?(costmodel = true) ?probe ?domains schema p
    rel =
  let d =
    match domains with Some d -> max 1 d | None -> Parallel.default_domains ()
  in
  let n = List.length (Relation.rows rel) in
  let reuse, probes =
    match probe with
    | Some r -> r
    | None ->
      if cache then Cache.probe_traced ~gate:costmodel Cache.global schema p rel
      else (None, [])
  in
  let chain = chain_dims p in
  let dims = pref_dims chain p in
  let estimate =
    if n = 0 then None else Some (Estimate.expected_skyline_size_fast ~n ~dims)
  in
  let dec =
    decide ~costmodel ~missed:(reuse = None && probes <> []) ~d ~n schema p rel
  in
  ( dec.d_plan,
    {
      t_n = n;
      t_dims = dims;
      t_domains = d;
      t_chain = chain;
      t_correlation = dec.d_correlation;
      t_probes = probes;
      t_rejected = dec.d_rejected;
      t_estimate = estimate;
      t_costs = dec.d_costs;
    } )

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

type outcome = {
  result : Relation.t;
  tests : int;
  timed_out : bool;
  form : Dominance.form;
  attrs : (string * string) list;
  phases : Pref_obs.Profile.phase list;
}

let prepare ?(deadline = Engine.no_deadline) ?like schema p rel plan =
  let remake rows = Relation.make (Relation.schema rel) rows in
  let plain result =
    {
      result;
      tests = -1;
      timed_out = false;
      form = Dominance.Closure;
      attrs = [];
      phases = [];
    }
  in
  (* the window plans run over row positions with the keyed test *)
  let keyed () = Dominance.keyed ?like schema p rel in
  let parallel k (best, stats) =
    Parallel.observe stats;
    {
      result = remake (Dominance.select k best);
      tests = Parallel.total_tests stats;
      timed_out = false;
      form = Dominance.form k;
      attrs = Parallel.stats_attrs stats;
      phases =
        [
          Pref_obs.Profile.phase "local" stats.Parallel.s_local_ms;
          Pref_obs.Profile.phase "merge" stats.Parallel.s_merge_ms;
        ];
    }
  in
  match plan with
  | Plan_naive ->
    let k = keyed () in
    let dom, count = Dominance.counting k.Dominance.dominates in
    fun () ->
      let best = Naive.maxima dom (Array.to_list (Dominance.points k)) in
      {
        result = remake (Dominance.select k (Array.of_list best));
        tests = count ();
        timed_out = false;
        form = Dominance.form k;
        attrs = [];
        phases = [];
      }
  | Plan_bnl ->
    let k = keyed () in
    fun () ->
      let r = Dominance.window ~deadline k in
      Obs.record_peak r.Bnl.peak;
      {
        result = remake (Dominance.select k r.Bnl.survivors);
        tests = r.Bnl.tests;
        timed_out = r.Bnl.timed_out;
        form = Dominance.form k;
        attrs = [ ("window_peak", string_of_int r.Bnl.peak) ];
        phases = [];
      }
  | Plan_dnc { attrs; maximize } ->
    let dims = Dnc.dims_of schema attrs ~maximize in
    fun () -> plain (remake (Dnc.maxima ~dims (Relation.rows rel)))
  | Plan_par_dnc { domains } ->
    let k = keyed () in
    fun () ->
      parallel k
        (Parallel.maxima_dnc ~domains k.Dominance.dominates (Dominance.points k))
  | Plan_par_sfs { attrs; maximize; domains } ->
    let k = keyed () in
    let key = Sfs.sum_key schema attrs ~maximize
    and rows = Relation.row_array k.Dominance.source in
    fun () ->
      parallel k
        (Parallel.maxima_sfs ~domains
           ~key:(fun i -> key rows.(i))
           k.Dominance.dominates (Dominance.points k))
  | Plan_cascade (p1, p2) -> fun () -> plain (Decompose.cascade schema p1 p2 rel)
  | Plan_decompose -> fun () -> plain (Decompose.eval schema p rel)

let execute schema p rel plan =
  Pref_obs.Span.with_span "bmo.plan.execute"
    ~attrs:[ ("plan", plan_kind plan) ]
  @@ fun () ->
  let o, ms = Pref_obs.Span.timed (prepare schema p rel plan) in
  (* the cardinalities are list walks, paid only when telemetry is on *)
  if Pref_obs.Control.is_enabled () then
    Obs.record_query ~algorithm:(plan_kind plan)
      ~n_in:(Relation.cardinality rel)
      ~n_out:(Relation.cardinality o.result)
      ~comparisons:o.tests ~ms;
  o.result

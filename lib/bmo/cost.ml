(* Cost model for BMO evaluation alternatives.

   The planner used to pick between its alternatives — sequential BNL,
   the KLP75 divide & conquer, chunked multi-domain evaluation, cache
   reuse — with fixed thresholds, and the benchmarks caught it picking
   wrong: parallel plans losing 20x at small n to their own spawn
   overhead, semantic cache reconstruction costing 60x a cold run.  This
   module prices every alternative in milliseconds from a small set of
   per-operation constants so {!Planner.choose} can compare them on one
   scale and {!Cache} can refuse a reuse that is predicted to lose.

   The model is deliberately coarse: each plan's cost is (dominant term
   count) x (per-operation constant).  Output cardinality comes from
   {!Estimate.expected_skyline_size_fast} — the independent-uniform
   expectation — bent by the sampled correlation the planner already
   measures (anti-correlation inflates skylines toward n, positive
   correlation deflates them toward 1).

   The constants are compiled in, fitted against BENCH_2026-08-06.json
   and, for the keyed test, against B9's shapes on the keyed window;
   nothing changes them at run time, so a plan choice depends on the
   workload alone. *)

type constants = {
  c_cmp_ns : float;  (** one tuple-closure dominance test, per dimension *)
  c_keyed_ns : float;
      (** one keyed dominance test, per dimension, as [scan_ms] counts
          tests: the plans over row positions (naive, bnl, par_dnc,
          par_sfs) *)
  c_row_ns : float;  (** per-row scan / window bookkeeping *)
  c_sort_ns : float;  (** per element per log2 n of sorting *)
  c_dnc_ns : float;  (** divide & conquer, per row per log2 n per extra dim *)
  c_group_ns : float;  (** grouping/partitioning, per row *)
  c_derive_ns : float;  (** semantic-cache reconstruction, per scanned row *)
  c_par_fixed_us : float;  (** fixed overhead of any parallel plan *)
  c_par_domain_us : float;  (** per-domain spawn + merge overhead *)
  c_par_pessimism : float;  (** multiplier on the parallel scan term *)
  c_shard_rtt_us : float;  (** per-shard scatter dispatch + gather overhead *)
}

let defaults =
  {
    c_cmp_ns = 20.;
    (* the keyed window's time over scan_ms's test count at c = 1, median
       over B9's independent shapes n = 5000..50000, d = 2..8 (0.7 to
       2.7 ns): the count also over-states the window's early exits *)
    c_keyed_ns = 1.5;
    c_row_ns = 40.;
    c_sort_ns = 25.;
    c_dnc_ns = 360.;
    c_group_ns = 60.;
    c_derive_ns = 120.;
    c_par_fixed_us = 4000.;
    c_par_domain_us = 1500.;
    c_par_pessimism = 1.3;
    (* loopback frame round trip incl. CSV encode/decode of a small
       result *)
    c_shard_rtt_us = 400.;
  }

let to_assoc c =
  [
    ("c_cmp_ns", c.c_cmp_ns);
    ("c_keyed_ns", c.c_keyed_ns);
    ("c_row_ns", c.c_row_ns);
    ("c_sort_ns", c.c_sort_ns);
    ("c_dnc_ns", c.c_dnc_ns);
    ("c_group_ns", c.c_group_ns);
    ("c_derive_ns", c.c_derive_ns);
    ("c_par_fixed_us", c.c_par_fixed_us);
    ("c_par_domain_us", c.c_par_domain_us);
    ("c_par_pessimism", c.c_par_pessimism);
    ("c_shard_rtt_us", c.c_shard_rtt_us);
  ]

(* ------------------------------------------------------------------ *)
(* Output-size estimation                                              *)

let clamp lo hi v = Float.min hi (Float.max lo v)

let effective_output ~n ~dims ~correlation =
  if n <= 0 then 0.
  else begin
    let nf = float_of_int n in
    let s = Estimate.expected_skyline_size_fast ~n ~dims in
    let r = clamp (-1.) 1. correlation in
    let analytic =
      if r < 0. then
        (* interpolate between the independent expectation (r = 0) and the
           worst case s = n (r = -1) in log space; the quadratic schedule
           reflects that moderate anti-correlation already produces large
           skylines (a third of a BKS01 anti-correlated input is maximal
           at r ~ -0.45) *)
        let t = (1. +. r) *. (1. +. r) in
        exp ((t *. log s) +. ((1. -. t) *. log nf))
      else if r > 0. then
        (* positive correlation thins the skyline toward a single point *)
        Float.max 1. (Float.pow s (1. -. r))
      else s
    in
    clamp 1. nf analytic
  end

(* ------------------------------------------------------------------ *)
(* Plan pricing                                                        *)

type workload = { n : int; dims : int; domains : int; correlation : float }

let ns_to_ms x = x *. 1e-6
let us_to_ms x = x *. 1e-3
let log2f n = if n <= 2 then 1. else log (float_of_int n) /. log 2.

(* The average BNL window over the scan is about half the final result.
   Under anti-correlation most probes end incomparable: neither direction
   of the dominance test can early-exit and the window is scanned to the
   end, so the comparison term grows toward twice the independent case. *)
let scan_ms w =
  let n = float_of_int w.n in
  let wbar = (effective_output ~n:w.n ~dims:w.dims ~correlation:w.correlation /. 2.) +. 1. in
  let incomparability = 1. -. Float.min 0. (clamp (-1.) 1. w.correlation) in
  ns_to_ms
    (defaults.c_keyed_ns *. float_of_int w.dims *. n *. wbar *. incomparability)

let predict_ms ~kind w =
  let c = defaults in
  let n = float_of_int w.n in
  let out = effective_output ~n:w.n ~dims:w.dims ~correlation:w.correlation in
  let sort = ns_to_ms (c.c_sort_ns *. n *. log2f w.n) in
  let par_base d =
    us_to_ms (c.c_par_fixed_us +. (c.c_par_domain_us *. float_of_int d))
  in
  let par_scan d = c.c_par_pessimism *. scan_ms w /. float_of_int d in
  let par_merge d =
    ns_to_ms (c.c_keyed_ns *. float_of_int w.dims *. out *. out /. float_of_int d)
  in
  match kind with
  | "naive" -> ns_to_ms (c.c_keyed_ns *. float_of_int w.dims *. n *. n)
  | "bnl" -> scan_ms w +. ns_to_ms (c.c_row_ns *. n)
  | "dnc" ->
    ns_to_ms
      (c.c_dnc_ns *. n *. log2f w.n *. float_of_int (max 1 (w.dims - 1)))
  | "par_dnc" -> par_base w.domains +. par_scan w.domains +. par_merge w.domains
  | "par_sfs" ->
    par_base w.domains
    +. (sort /. float_of_int w.domains)
    +. par_scan w.domains
    +. (0.5 *. par_merge w.domains)
  | "cascade" ->
    (* one chain pass prunes to a thin slice; the rest is negligible *)
    ns_to_ms ((c.c_cmp_ns +. c.c_row_ns) *. n)
  | "delta" ->
    (* one subscription patch: a linear screen of the maintained
       result + shadow rows (w.n) against the updated tuple *)
    ns_to_ms (((c.c_cmp_ns *. float_of_int w.dims) +. c.c_row_ns) *. n)
  | _ -> invalid_arg ("Cost.predict_ms: unknown plan kind " ^ kind)

(* ------------------------------------------------------------------ *)
(* Cache-side pricing                                                  *)

(* pareto-restrict reconstruction re-groups the FULL base relation and
   re-filters against it: its overhead on top of a cold evaluation. *)
let derive_pareto_overhead_ms ~n =
  ns_to_ms (float_of_int n *. (defaults.c_group_ns +. defaults.c_derive_ns))

(* A reconstruction predicted to cost at most this much more than the
   cheapest cold plan is still allowed: at tiny n the model's resolution
   is below scheduling noise and refusing reuse would be pure loss. *)
let semantic_gate_slack_ms = 0.5

(* ------------------------------------------------------------------ *)
(* Scatter-gather pricing                                              *)

(* Partition-wise evaluation (Props. 8/10/12): per-shard sigma[P] runs in
   parallel, so the scatter phase costs the slowest shard; the gather
   phase pays one dispatch round trip per shard plus a final BNL pass
   over the union of the per-shard BMO sets. *)

let shard_overhead_ms ~shards =
  us_to_ms (defaults.c_shard_rtt_us *. float_of_int (max 0 shards))

let merge_ms ~rows ~dims =
  if rows <= 0 then 0.
  else
    predict_ms ~kind:"bnl"
      { n = rows; dims = max 1 dims; domains = 1; correlation = 0. }

type scatter_gather = {
  sg_shards : int;
  sg_slowest_ms : float;  (** max over the per-shard predictions *)
  sg_dispatch_ms : float;  (** fan-out/fan-in round trips *)
  sg_merge_ms : float;  (** final BNL pass; 0 when the merge is skipped *)
  sg_total_ms : float;
}

let scatter_gather_ms ~per_shard_ms ~merge_rows ~dims ~merge =
  let shards = List.length per_shard_ms in
  let slowest = List.fold_left Float.max 0. per_shard_ms in
  let dispatch = shard_overhead_ms ~shards in
  let merge_cost = if merge then merge_ms ~rows:merge_rows ~dims else 0. in
  {
    sg_shards = shards;
    sg_slowest_ms = slowest;
    sg_dispatch_ms = dispatch;
    sg_merge_ms = merge_cost;
    sg_total_ms = slowest +. dispatch +. merge_cost;
  }

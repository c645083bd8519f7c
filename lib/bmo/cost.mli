(** Cost model for BMO evaluation alternatives.

    Prices every plan the {!Planner} can choose — and the one cache-tier
    reconstruction the {!Cache} gates — in milliseconds, so they can be
    compared on one scale instead of via fixed thresholds.  Costs are
    (dominant term count) × (per-operation constant); term counts come
    from {!Estimate.expected_skyline_size_fast} bent by the sampled
    correlation, constants from the one compiled-in set {!defaults}.

    See DESIGN.md "Cost-based planning" for the model. *)

(** {1 Constants} *)

type constants = {
  c_cmp_ns : float;  (** one tuple-closure dominance test, per dimension *)
  c_keyed_ns : float;
      (** one keyed dominance test, per dimension, as the scan estimate
          counts tests: the plans over row positions (naive, bnl,
          par_dnc, par_sfs) *)
  c_row_ns : float;  (** per-row scan / window bookkeeping *)
  c_sort_ns : float;  (** per element per log2 n of sorting *)
  c_dnc_ns : float;  (** divide & conquer, per row per log2 n per extra dim *)
  c_group_ns : float;  (** grouping/partitioning, per row *)
  c_derive_ns : float;  (** semantic-cache reconstruction, per scanned row *)
  c_par_fixed_us : float;  (** fixed overhead of any parallel plan *)
  c_par_domain_us : float;  (** per-domain spawn + merge overhead *)
  c_par_pessimism : float;  (** multiplier on the parallel scan term *)
  c_shard_rtt_us : float;
      (** per-shard scatter dispatch + gather overhead (one wire round
          trip incl. frame encode/decode), used by {!scatter_gather_ms} *)
}

val defaults : constants
(** The constants every price reads, fitted against BENCH_2026-08-06.json
    on the reference container. *)

val to_assoc : constants -> (string * float) list
(** [(field name, value)] pairs, for BENCH_JSON meta. *)

(** {1 Pricing} *)

type workload = {
  n : int;
  dims : int;
  domains : int;
  correlation : float;  (** sampled Pearson r; 0. when unknown *)
}

val effective_output : n:int -> dims:int -> correlation:float -> float
(** Expected BMO result size: the independent-uniform expectation
    interpolated toward n under anti-correlation and toward 1 under
    positive correlation. Clamped to [1, n]. *)

val predict_ms : kind:string -> workload -> float
(** Predicted wall time of one plan kind ([naive], [bnl], [dnc],
    [par_dnc], [par_sfs], [cascade] or [delta] — one continuous-query patch,
    [n] = maintained result + shadow rows). Raises [Invalid_argument] on
    unknown kinds. *)

(** {1 Cache-side pricing} *)

val derive_pareto_overhead_ms : n:int -> float
(** What pareto-restrict reconstruction costs {e on top of} a cold run:
    it re-groups and re-filters the full [n]-row base relation. *)

val semantic_gate_slack_ms : float
(** Reconstructions predicted to cost at most this much more than a cold
    run are still served — below the model's resolution at tiny n. *)

(** {1 Scatter-gather pricing}

    Partition-wise evaluation (Props. 8/10/12) over N shards: the
    scatter phase costs the slowest shard (they run in parallel), the
    gather phase one dispatch round trip per shard plus — unless the
    partitioning proves per-shard results disjoint — a final BNL pass
    over the union of the per-shard BMO sets. The router's EXPLAIN uses
    these to price its plan. *)

val shard_overhead_ms : shards:int -> float
(** Fan-out/fan-in dispatch cost: [shards × c_shard_rtt_us]. *)

val merge_ms : rows:int -> dims:int -> float
(** One final BNL pass over [rows] gathered tuples. *)

type scatter_gather = {
  sg_shards : int;
  sg_slowest_ms : float;  (** max over the per-shard predictions *)
  sg_dispatch_ms : float;  (** fan-out/fan-in round trips *)
  sg_merge_ms : float;  (** final BNL pass; 0 when the merge is skipped *)
  sg_total_ms : float;
}

val scatter_gather_ms :
  per_shard_ms:float list -> merge_rows:int -> dims:int -> merge:bool ->
  scatter_gather
(** Price one scatter-gather plan from the per-shard predictions (one
    entry per shard) and the expected size of the gathered union. *)

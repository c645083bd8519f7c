(** Calibrated cost model for BMO evaluation alternatives.

    Prices every plan the {!Planner} can choose — and every cache-tier
    reconstruction the {!Cache} can serve — in milliseconds, so they can
    be compared on one scale instead of via fixed thresholds.  Costs are
    (dominant term count) × (per-operation constant); term counts come
    from {!Estimate.expected_skyline_size_fast} bent by the sampled
    correlation, constants from compiled-in defaults, a calibration file,
    {!calibrate} micro-benchmarks, or online {!observe} refinement.

    See DESIGN.md "Cost-based planning" for the model and its
    calibration story. *)

(** {1 Constants} *)

type constants = {
  c_cmp_ns : float;  (** one dominance test, per dimension *)
  c_row_ns : float;  (** per-row scan / window bookkeeping *)
  c_sort_ns : float;  (** per element per log2 n of sorting *)
  c_dnc_ns : float;  (** divide & conquer, per row per log2 n per extra dim *)
  c_group_ns : float;  (** grouping/partitioning, per row *)
  c_derive_ns : float;  (** semantic-cache reconstruction, per scanned row *)
  c_probe_us : float;  (** one cache-tier probe (hash + fingerprint) *)
  c_par_fixed_us : float;  (** fixed overhead of any parallel plan *)
  c_par_domain_us : float;  (** per-domain spawn + merge overhead *)
  c_par_pessimism : float;  (** multiplier on the parallel scan term *)
  c_shard_rtt_us : float;
      (** per-shard scatter dispatch + gather overhead (one wire round
          trip incl. frame encode/decode), used by {!scatter_gather_ms} *)
}

val defaults : constants
(** Fitted against BENCH_2026-08-06.json on the reference container. *)

val current : unit -> constants
val install : constants -> unit

val reset : unit -> unit
(** Back to {!defaults}; clears learned factors, filter-effect table and
    the learning flag. Tests use this to stay order-independent. *)

val calibrate : unit -> constants
(** Micro-benchmark the scan-side constants on this machine, clamp each
    to [default/8, default×8], install and return the result. Parallel
    overheads keep their defaults. *)

val load : string -> (constants, string) result
(** Read a [key=value] calibration file (blank lines and [#] comments
    ignored; unknown keys skipped; [factor.<kind>] lines restore learned
    factors), install and return the merged constants. The
    [PREF_COST_CALIBRATION] environment variable names a file to load at
    startup. *)

val save : string -> (unit, string) result
val to_assoc : unit -> (string * float) list
(** Constants plus learned [factor.<kind>] entries, for BENCH_JSON meta
    and the calibration file. *)

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
    positive correlation, blended with observed Prop. 13 filter-effect
    ratios when online learning has recorded any. Clamped to [1, n]. *)

val predict_ms : kind:string -> workload -> float
(** Predicted wall time of one plan kind ([naive], [bnl], [sfs], [dnc],
    [par_dnc], [par_sfs], [cascade], [decompose], [refine] — a re-winnow
    of a cached BMO seed, [n] = seed size — or [delta] — one continuous-
    query patch, [n] = maintained result + shadow rows), including any
    learned correction factor. Raises [Invalid_argument] on unknown
    kinds. *)

(** {1 Cache-side pricing} *)

val probe_overhead_ms : unit -> float

val derive_prior_ms : rows:int -> dims:int -> float
(** Prior-prefix reconstruction over a cached result of [rows] tuples. *)

val derive_dunion_ms : rows:int -> float
(** Dunion-inter reconstruction over [rows] cached tuples in total. *)

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

(** {1 Online refinement} *)

val learning : unit -> bool
val set_learning : bool -> unit
(** Off by default so plan choices stay deterministic; {!Planner.observe}
    only feeds measurements back while this is on. *)

val observe : kind:string -> workload -> ms:float -> unit
(** Fold one measured runtime into the plan kind's EMA correction factor
    (clamped to [1/8, 8]). *)

val observe_filter : dims:int -> n_in:int -> n_out:int -> unit
(** Record one Prop. 13 filter-effect observation (result/input ratio). *)

val factor : string -> float
(** Current correction factor for a plan kind (1. when unlearned). *)

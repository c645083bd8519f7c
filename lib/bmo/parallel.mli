(** Parallel BMO evaluation over a pool of domains.

    Two strategies, both exact for every strict partial order (the merge
    correctness argument is spelled out in DESIGN.md):

    - {!maxima_dnc} — divide-and-conquer: P contiguous chunks, array-window
      BNL per chunk in its own domain, pairwise merge of the chunk windows
      with cross-domination filtering.
    - {!maxima_sfs} — one global topological presort, then the append-only
      filter pass split across domains: parallel local windows, followed by
      a parallel cross-chunk filter of each chunk's survivors against all
      earlier chunks' survivors.

    The pool is cached and reused across queries; its size follows the
    [domains] argument, which callers take from the [domains] knob of
    {!Engine.config} or, unset, {!default_domains}. *)

val default_domains : unit -> int
(** Engine-wide default degree of parallelism:
    [Domain.recommended_domain_count ()]. *)

(** {1 Statistics} *)

type chunk_stat = {
  c_rows : int;  (** input rows of the chunk *)
  c_out : int;  (** surviving rows after the final per-chunk phase *)
  c_tests : int;  (** dominance tests performed inside the chunk *)
  c_domain : int;  (** pool domain ({!Pool.self}) that ran the chunk *)
}

type stats = {
  s_domains : int;
  s_chunks : chunk_stat array;
  s_local_ms : float;  (** wall time of the parallel local phase *)
  s_merge_ms : float;  (** wall time of the merge / cross-filter phase *)
  s_merge_tests : int;  (** dominance tests spent merging *)
}

val total_tests : stats -> int
val stats_attrs : stats -> (string * string) list

val observe : stats -> unit
(** Feed one run's statistics into the [bmo.par.*] metrics (no-ops while
    telemetry is off). *)

(** {1 Kernels} *)

val maxima_dnc :
  domains:int -> ('p -> 'p -> bool) -> 'p array -> 'p array * stats
(** [maxima_dnc ~domains dominates points]: BMO set of the points; result
    order is deterministic (chunk order, local window order within each
    chunk). The planner passes row indices and {!Dominance.keyed}'s test,
    which the chunk domains share: it only reads immutable columns. *)

val maxima_sfs :
  domains:int ->
  key:('p -> float) ->
  ('p -> 'p -> bool) ->
  'p array ->
  'p array * stats
(** Requires a topological [key] (see {!Sfs}); output in descending key
    order, exactly like sequential SFS. *)

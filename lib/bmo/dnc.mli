(** Divide & conquer maxima ([KLP75]) for Pareto preferences over numeric
    chains.

    Finds the maxima of d-dimensional float vectors (all coordinates
    maximised) by median splits on the first coordinate: the high half
    cannot be dominated by the low half, so only the low half's local maxima
    are filtered against the high half's. O(n log n) for fixed d on data
    without heavy first-coordinate ties; falls back to quadratic base cases
    otherwise. This is the divide & conquer family the paper's decomposition
    results are "preparing the ground" for. *)

open Pref_relation

val dominates : float array -> float array -> bool
(** Pointwise ≥ with at least one >. *)

val maxima : dims:(Tuple.t -> float array) -> Tuple.t list -> Tuple.t list
(** Maxima under vector dominance of [dims]; input order preserved. *)

val dims_of :
  Schema.t -> string list -> maximize:bool -> Tuple.t -> float array
(** Dimension extractor for HIGHEST ([maximize:true]) or LOWEST chains on
    the named numeric attributes. *)

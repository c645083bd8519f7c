(** Block-nested-loops BMO evaluation ([BKS01], in-memory variant).

    Maintains a window of mutually undominated points; average-case far
    fewer comparisons than {!Naive} because dominated points are discarded
    on the fly and never compared again. Correct for every strict partial
    order: transitivity guarantees a point dominated by an evicted window
    point is also dominated by the evicting one. Result order: first
    appearance order of the surviving points.

    {!window} is the one evicting window loop of the engine. It is generic
    over the point type, so each caller picks the dominance
    representation: served queries pass the compiled closure over tuples,
    the parallel chunk workers projected float or value vectors. The
    window holds indices into the point array, lives in a flat array and
    the scan is iterative, so the pass allocates nothing per candidate
    and handles anti-chain windows of any size. *)

open Pref_relation

type run = {
  survivors : int array;
      (** indices into the input of the window at exit, ascending (the
          first-appearance order of the surviving points) *)
  tests : int;  (** dominance tests performed *)
  peak : int;  (** largest window size reached *)
  timed_out : bool;
      (** the deadline expired and the scan stopped early; [survivors] is
          then the exact BMO set of the scanned prefix *)
}

val deadline_stride : int
(** Candidates scanned between clock polls (clock reads are cheap but not
    free; the stride bounds deadline overshoot to [stride] candidates). *)

val grow : int array -> int -> int array
(** [grow window n]: a full window array's contents in one twice as long,
    at most [n] (the input size) — the window loops' one growth step. *)

val window :
  ?deadline:Engine.deadline -> ?len:int -> ('p -> 'p -> bool) -> 'p array -> run
(** [window better points]: the maxima of [points] under [better a b]
    ("[a] dominates [b]"); with [len], of the first [len] points only. With a [deadline] the monotonic clock is polled
    before every {!deadline_stride}-th candidate (the first included);
    when it has expired the scan stops and returns the current window
    with [timed_out] set — the exact BMO set of the scanned prefix (window
    points are mutually undominated and every discarded point was
    dominated by a window point; unscanned points may have dominated
    them, which is what the [partial] flag reports). An already-expired
    deadline returns an empty window without scanning. Without a deadline
    the clock is never read. *)

val select : 'a array -> run -> 'a list
(** The surviving elements of the scanned array, in window order. *)

val maxima : (Tuple.t -> Tuple.t -> bool) -> Tuple.t list -> Tuple.t list
(** {!window} over tuples, without a deadline. *)

(** Sort-filter BMO evaluation (SFS-style).

    Requires a {e topological} key: whenever [a] dominates [b], [key a >=
    key b] must hold (e.g. the sum of the maximised dimensions for a Pareto
    preference over numeric chains). Under that precondition the window only
    grows, which makes SFS faster than BNL on data with large skylines.
    Supplying a non-topological key yields wrong results — the test suite
    checks both directions.

    The sort runs over a materialised array ([Array.stable_sort]) and
    {!window}, the one append-only window loop of the engine, probes an
    index window, so neither phase allocates per candidate. *)

open Pref_relation

val sorted : key:('a -> float) -> 'a array -> 'a array
(** A copy sorted by descending key — stable, so ties keep input order. *)

val window :
  ?deadline:Engine.deadline -> ('p -> 'p -> bool) -> 'p array -> Bnl.run
(** The append-only filter pass over {e presorted} points, generic over
    the point type like {!Bnl.window} and polling a [deadline] the same
    way. Precondition: points are in descending topological-key order, so
    no later point dominates an earlier one and the window never evicts
    ([peak] is the final window size). *)

val maxima :
  key:(Tuple.t -> float) ->
  (Tuple.t -> Tuple.t -> bool) ->
  Tuple.t list ->
  Tuple.t list

val sum_key : Schema.t -> string list -> maximize:bool -> Tuple.t -> float
(** Topological key for Pareto preferences of HIGHEST (or, with
    [maximize:false], LOWEST) chains over the named numeric attributes. *)

val progressive :
  key:(Tuple.t -> float) ->
  (Tuple.t -> Tuple.t -> bool) ->
  Tuple.t list ->
  Tuple.t Seq.t
(** Progressive skyline delivery ([TEO01]): maxima are emitted as soon as
    they are identified, best presort key first; consuming the whole
    sequence yields exactly [maxima]. Same topological-key precondition as
    {!maxima}. The sequence is ephemeral (internal window state) — consume
    it once. *)

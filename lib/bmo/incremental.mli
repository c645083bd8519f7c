(** Incremental maintenance of σ[P](R) under inserts and deletes.

    Because BMO queries are non-monotonic (Example 9), inserts can evict
    current best matches and deletes can resurrect previously dominated
    tuples. One maintenance rule handles both without recomputing from
    scratch, and it is the only one in the engine: this structure applies
    it with the dominated tuples kept as a shadow set, and the result
    cache ({!Cache.on_insert}/[on_delete]) applies it to its stored BMO
    sets with the table version's rows in the shadow's place. The test
    suite checks every update sequence against batch recomputation.

    The rule, for a relation whose σ[P] is [result]:

    - insert r: if a result row dominates r, nothing changes; otherwise
      r enters the result and evicts the rows it dominates.
    - delete d: if d is not a result row, nothing changes. Otherwise only
      rows that d dominates can be promoted — in a finite SPO every other
      non-maximal row keeps a maximal dominator other than d (the cone
      lemma). One pass over the remaining rows feeds d's cone through a
      BNL window, which ends holding the cone's maxima, and the maxima
      that no remaining result row dominates are promoted. Taking the
      maxima first is exact because every dominator of a cone row in the
      new version is itself a cone row or a remaining result row (its own
      maximal dominator is d or one of those), and it screens a handful
      of maxima against the result instead of the whole cone, which is
      never materialised.

    Both halves are generic over the point type, and whether a caller
    knows row positions decides which the delete half runs on: the cache
    runs it over a table version's row positions with
    {!Dominance.keyed}'s test when an entry records them, and over tuples
    with the closure otherwise; this structure (SUBSCRIBE) always runs it
    over tuples. *)

open Pref_relation

type delta = {
  added : Tuple.t list;  (** rows that entered σ[P](R) *)
  removed : Tuple.t list;  (** rows that left σ[P](R) *)
}

val no_delta : delta

(** {1 The maintenance rule} *)

val remove_first : ('a -> bool) -> 'a list -> 'a list
(** [remove_first same rows]: [rows] without the first row [same]
    matches — one multiset delete. *)

val insert_rule :
  ('p -> 'p -> bool) -> result:'p list -> 'p -> ('p list * 'p list) option
(** [insert_rule dominates ~result r]: [None] when a result point
    dominates [r] (nothing changes). Otherwise [Some (kept, evicted)]:
    the result points [r] does not dominate and those it does, each in
    order; the new σ[P] is [kept] followed by [r]. *)

val delete_rule :
  ('p -> 'p -> bool) ->
  same:('p -> bool) ->
  result:'p list ->
  domain:(('p -> unit) -> unit) ->
  ('p list * 'p * 'p list) option
(** [delete_rule dominates ~same ~result ~domain]: [None] when no result
    point is [same] (the deleted row was not a best match). Otherwise
    [Some (kept, hit, promoted)]: [hit] is the first result point [same]
    matches, [kept] the rest of [result] in order, and [promoted] the
    points of [hit]'s cone that enter σ[P], in the order [domain] visits
    them; the new σ[P] is [kept] with [promoted]. [domain] must visit
    every remaining non-result point (it may visit result points too):
    the cone is drawn from it. *)

(** {1 A maintained result} *)

type t

val create : Schema.t -> Preferences.Pref.t -> Tuple.t list -> t

val result : t -> Relation.t
(** The current σ[P](R), in insertion order. *)

val size : t -> int
(** Number of best matches. *)

val cardinality : t -> int
(** Total rows maintained (result + shadow). *)

val insert : t -> Tuple.t -> unit

val delete : t -> Tuple.t -> bool
(** Remove one occurrence; [false] when the tuple is not present. *)

(** {1 Delta-reporting updates}

    The same updates, also reporting how σ[P](R) itself changed — the
    primitive behind continuous queries (SUBSCRIBE): the reported delta
    is exactly the frame a subscriber must apply to its replica of the
    BMO set. *)

val insert_delta : t -> Tuple.t -> delta
(** {!insert}, reporting the result-set change: empty when the new row
    arrived dominated, otherwise the row itself plus the result tuples it
    evicted. *)

val delete_delta : t -> Tuple.t -> delta option
(** {!delete}, reporting the result-set change: [None] when the tuple was
    not present, [Some no_delta] for a shadow deletion, and the removed
    row plus any promoted shadow tuples for a result deletion. The
    promoted tuples leave the shadow in one walk of it. *)

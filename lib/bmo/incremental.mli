(** Incremental maintenance of σ[P](R) under inserts and deletes.

    Because BMO queries are non-monotonic (Example 9), inserts can evict
    current best matches and deletes can resurrect previously dominated
    tuples; this structure keeps the dominated tuples in a shadow set so
    both updates are handled without recomputing from scratch. The test
    suite checks every update sequence against batch recomputation. *)

open Pref_relation

type t

val create : Schema.t -> Preferences.Pref.t -> Tuple.t list -> t

val of_parts :
  Schema.t ->
  Preferences.Pref.t ->
  result:Tuple.t list ->
  shadow:Tuple.t list ->
  t
(** Build the structure from an already-known split — [result] must be
    exactly σ[P](result ∪ shadow) — without the window pass of
    {!create}. This is how the result cache ({!Cache}) rehydrates an entry
    before patching it: the cached BMO set is the result, the rest of the
    base relation the shadow. *)

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

type delta = {
  added : Tuple.t list;  (** rows that entered σ[P](R) *)
  removed : Tuple.t list;  (** rows that left σ[P](R) *)
}

val no_delta : delta

val insert_delta : t -> Tuple.t -> delta
(** {!insert}, reporting the result-set change: empty when the new row
    arrived dominated, otherwise the row itself plus the result tuples it
    evicted. *)

val delete_delta : t -> Tuple.t -> delta option
(** {!delete}, reporting the result-set change: [None] when the tuple was
    not present, [Some no_delta] for a shadow deletion, and the removed
    row plus any promoted shadow tuples for a result deletion. *)

(** Incremental maintenance of σ[P](R) under inserts and deletes.

    Because BMO queries are non-monotonic (Example 9), inserts can evict
    current best matches and deletes can resurrect previously dominated
    tuples. One maintenance rule handles both without recomputing from
    scratch, and it is the only one in the engine: this structure applies
    it with the dominated tuples kept as a shadow set, and the result
    cache ({!Cache.on_insert}/[on_delete]) applies it to its stored BMO
    sets with the new relation version's rows in the shadow's place. The
    test suite checks every update sequence against batch recomputation.

    The rule, for a relation whose σ[P] is [result]:

    - insert r: if a result row dominates r, nothing changes; otherwise
      r enters the result and evicts the rows it dominates.
    - delete d: if d is not a result row, nothing changes. Otherwise only
      rows that d dominates can be promoted — in a finite SPO every other
      non-maximal row keeps a maximal dominator other than d — so one pass
      over the remaining rows collects d's cone, drops the cone rows the
      remaining result dominates, and {!Bnl.maxima} keeps the maxima of
      what is left. *)

open Pref_relation

type delta = {
  added : Tuple.t list;  (** rows that entered σ[P](R) *)
  removed : Tuple.t list;  (** rows that left σ[P](R) *)
}

val no_delta : delta

(** {1 The maintenance rule} *)

val remove_first : (Tuple.t -> bool) -> Tuple.t list -> Tuple.t list
(** [remove_first same rows]: [rows] without the first row [same]
    matches — one multiset delete. *)

val insert_rule :
  Dominance.t -> result:Tuple.t list -> Tuple.t -> Tuple.t list * delta
(** [insert_rule dominates ~result r]: the new σ[P] after inserting [r]
    (the kept rows in order, then [r]) and the change. *)

val delete_rule :
  Dominance.t ->
  result:Tuple.t list ->
  domain:Tuple.t list ->
  Tuple.t ->
  (Tuple.t list * delta) option
(** [delete_rule dominates ~result ~domain d]: [None] when no result row
    equals [d]; otherwise the new σ[P] (the kept rows in order, then the
    promoted ones) and the change. [domain] must hold every remaining
    non-result row (it may hold the remaining result rows too): d's cone
    is screened from it. *)

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
    row plus any promoted shadow tuples for a result deletion. *)

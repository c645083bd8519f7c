(** Tuples: flat arrays of values, interpreted against a {!Schema.t}. *)

type t = Value.t array

val make : Value.t list -> t
val of_array : Value.t array -> t
val to_list : t -> Value.t list
val arity : t -> int

val get : t -> int -> Value.t
val get_by_name : Schema.t -> t -> string -> Value.t

val project : Schema.t -> t -> string list -> t
(** [project schema t attrs] is [t[A]], the projection onto the named
    attributes in the given order. *)

val equal : t -> t -> bool
(** Pointwise {!Value.equal}. *)

val equal_on : Schema.t -> string list -> t -> t -> bool
(** Equality of the projections onto the named attributes — the "[x1 = y1]"
    tests of Definitions 8 and 9. *)

val compare : t -> t -> int
(** Lexicographic total order via {!Value.compare}, for sorting and sets. *)

val pp : t Fmt.t

val hash : t -> int
(** Allocation-free positional mix of {!Value.hash} over the fields;
    consistent with {!equal} (equal tuples hash equal). *)

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed by {!equal} classes (NULL = NULL, NaN ≠ NaN, [Int 3]
    = [Float 3.0]), unlike the polymorphic [Hashtbl]. *)

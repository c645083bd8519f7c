(** Typed attribute values.

    Domains of attribute values (Definition 1's [dom(A_i)]) are drawn from the
    SQL-ish type universe the paper works with: booleans, integers, reals,
    strings and dates. Numerical base preferences (Definition 7) additionally
    need a total ['<'] and a subtraction on the domain — dates qualify via a
    days-since-epoch encoding, as the paper notes ("also applicable to other
    ordered SQL types like Date"). *)

type date = { year : int; month : int; day : int }

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Date of date

type ty = TBool | TInt | TFloat | TStr | TDate

val ty_to_string : ty -> string
val pp_ty : ty Fmt.t

val type_of : t -> ty option
(** [None] for [Null]. *)

val date : year:int -> month:int -> day:int -> t
(** Smart constructor; raises [Invalid_argument] on an invalid calendar
    date. *)

val valid_date : date -> bool

val date_to_days : date -> int
(** Days in the proleptic Gregorian calendar; gives dates the ['<'] / ['-']
    structure required by AROUND / BETWEEN / LOWEST / HIGHEST. *)

val equal : t -> t -> bool
(** Structural equality; [Int] and [Float] compare numerically. *)

val compare : t -> t -> int
(** Total order: within a type, the natural order; across types, an arbitrary
    but fixed order ([Null] least). *)

val as_float : t -> float option
(** Numeric view: ints, floats, dates (as days) and bools (0/1). *)

val to_float_exn : t -> float

val is_null : t -> bool

val to_string : t -> string
val pp : t Fmt.t

val pp_quoted : t Fmt.t
(** Like [pp] but strings are single-quoted, for SQL-ish output. *)

val of_string_as : ty -> string -> t option
(** Parse a string as the given type; [None] when it does not parse. *)

val infer : string -> t
(** Parse with type inference in the order int, float, date, bool, string;
    empty or ["NULL"] becomes [Null]. Used by the CSV loader. *)

val wide_int : int -> bool
(** Beyond 2^53 in magnitude, where [float_of_int] stops being injective:
    two such ints can equal one float under {!equal} without equalling
    each other, so {!equal} is transitive only on values without both a
    wide int and a float. *)

val hash : t -> int
(** Consistent with {!equal}: numerically equal [Int]/[Float] values hash
    equal. *)

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed by {!equal} classes. A NaN key is never found again
    (NaN ≠ NaN), so each NaN added is its own entry. *)

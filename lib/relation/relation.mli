(** In-memory relations (the paper's "database sets" [R], §5.1).

    A relation is a schema plus a row list, and a table version: the
    {{!section:keys}key columns} derived from its rows are built on first
    use and, once its owner {!store}s it, kept with the value, so every
    later query on it reuses them. A restriction ({!restrict}, {!group_by})
    of a stored version reads them from that version. Rows are validated
    against the
    schema on construction. Set-flavoured operations ([union], [inter],
    [diff], [equal_as_sets]) use tuple value equality, matching the paper's
    treatment of database sets as sets of values; duplicate rows are allowed
    and preserved unless [distinct] is applied. *)

type t

val make : Schema.t -> Tuple.t list -> t
(** Raises [Invalid_argument] if a row does not fit the schema. Integer
    values are accepted in float columns. *)

val of_lists : Schema.t -> Value.t list list -> t
val empty : Schema.t -> t

val schema : t -> Schema.t
val rows : t -> Tuple.t list
val cardinality : t -> int
val is_empty : t -> bool

val add_row : t -> Tuple.t -> t

val remove_row : t -> Tuple.t -> t option
(** [remove_row r row]: [r] without its first row equal to [row]
    ({!Tuple.equal}), or [None] when no row is. The remaining rows were
    checked when [r] was made, so none is checked again. *)

val mem : t -> Tuple.t -> bool

val distinct : t -> t
(** Remove duplicate rows ({!Tuple.equal}), keeping first occurrences. *)

val project : t -> string list -> t
(** [R[A]]: projection onto the named attributes, duplicates preserved. *)

val project_distinct : t -> string list -> t
(** Set-semantics projection — the paper's [R[A] ⊆ dom(A)]. *)

val select : (Tuple.t -> bool) -> t -> t

val restrict : (Tuple.t -> bool) -> t -> t
(** The rows {!select} keeps. Over a stored version (or a restriction of
    one) the result is a restriction of that version: it records where
    its rows sit there ({!origin}), so the kernels read the version's key
    columns at those positions rather than building columns for the
    result, and it keeps the version alive. Over any other record it is
    {!select}. *)

val map_rows : (Tuple.t -> Tuple.t) -> t -> t

val union : t -> t -> t
(** Set union (no duplicates introduced); raises on schema mismatch. *)

val inter : t -> t -> t
val diff : t -> t -> t

val equal_as_sets : t -> t -> bool

val group_by : t -> string list -> t list
(** Partition rows into groups with {!Value.equal} values on the named
    attributes (NULL = NULL, NaN ≠ NaN, [Int 3] = [Float 3.0]),
    preserving first-appearance order of groups and input order within
    each — the grouped evaluation of Definition 16. Buckets rows by the
    attributes' {!dict} ids and, over a stored version or a restriction
    of one, returns each group as a restriction of that version (see
    {!restrict}). *)

val sort_by : (Tuple.t -> Tuple.t -> int) -> t -> t

(** Reinterpret the rows under a schema of the same arity (e.g. one with
    qualified column names); raises on arity mismatch. *)
val rename_schema : t -> Schema.t -> t

(** Cartesian product; raises [Invalid_argument] on overlapping column
    names (qualify them first with {!Schema.prefix}). *)
val product : t -> t -> t

(** Equi-join on the given key columns (hash-based, SQL semantics: NULL
    keys never join). Raises on empty/unequal key lists or overlapping
    column names. *)
val hash_join : t -> t -> left_cols:string list -> right_cols:string list -> t
val column : t -> string -> Value.t list
val fold : ('acc -> Tuple.t -> 'acc) -> 'acc -> t -> 'acc

val pp : t Fmt.t
(** Short summary ("schema [n rows]"); use {!Table_fmt} for full tables. *)

(** {1:keys Key columns}

    Per-column layouts of a record's rows for the dominance kernels
    ([Pref_bmo.Dominance.keyed]). Each is built lazily, on first use. On a
    stored version it is published through an [Atomic], so concurrent
    domains agree on one copy and later calls on the same record return
    it without a pass over the rows; on any other record each call builds
    a copy its caller drops, so a relation that lives for one query (or in
    an answer) holds no columns. Every function above that returns different rows returns a
    record with empty slots ({!rename_schema}, which keeps the rows,
    keeps them too); no record's slots hold another's columns. A
    restriction's own slots are built like any other record's; the
    kernels read its {!origin}'s instead. The arrays are shared: callers
    must not mutate them. *)

val store : t -> unit
(** Mark the record as a stored table version, which its owner keeps
    across queries (a session's or a server's tables): from now on the
    key columns built for it are published and kept. *)

val stored : t -> bool

val origin : t -> (t * int array) option
(** For a restriction, the table version its rows were taken from and
    their positions there, ascending: row [k] is that version's row
    [pos.(k)]. [None] for every other record. *)

val row_array : t -> Tuple.t array
(** The rows as an array, in order. *)

type floats = {
  values : float array;
      (** [Value.as_float] of each row's value, [nan] where it is [None] *)
  nulls : Bytes.t;
      (** ['\001'] where [Value.as_float] is [None] (NULL, or a string);
          empty when no row has one. A real NaN is not NULL. *)
  float_equal : bool;
      (** float equality with the NULL mask decides {!Value.equal} on this
          column: every non-NULL value is a number (ints within 2^53), or
          every one a date, or every one a bool *)
}

val floats : t -> int -> floats
(** The float column of the attribute at this index. *)

type ids =
  | Byte_ids of Bytes.t  (** one byte per row: at most 256 classes *)
  | Int_ids of int array

type dict = {
  ids : ids;
      (** per row, the id of its {!Value.equal} class, numbered by first
          appearance (each NaN is a class of its own) *)
  reps : Value.t array;  (** per id, the first value of its class *)
  has_float : bool;  (** some value is a [Float] *)
  has_wide_int : bool;
      (** some value is an [Int] beyond 2^53 in magnitude. With [has_float]
          as well, {!Value.equal} is not transitive on the column and the
          ids are one partition among several. *)
}

val dict : t -> int -> dict
(** The dictionary column of the attribute at this index. *)

val release : t -> unit
(** Drop the record's derived data and its stored mark; a later use
    builds a copy for its caller. For a version its owner has just
    superseded: sessions still holding it keep correct answers, and the
    memory goes now rather than when the last of them lets go. *)

val has_floats : t -> int -> bool
val has_dict : t -> int -> bool
(** Whether that column is already published, so a caller can tell the
    queries that paid for a build. *)

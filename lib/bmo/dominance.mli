(** Dominance tests — the 'better-than' checks driving BMO evaluation.

    [dom a b] holds when tuple [a] is strictly better than tuple [b]
    ([b <_P a]). All BMO algorithms are parameterised over such a test so
    they work for every preference constructor.

    {!keyed} is the served form: it compiles a term against a table
    version's key columns ({!Pref_relation.Relation.floats},
    {!Pref_relation.Relation.dict}) into a test over row indices that
    reads unboxed floats, dictionary ids and small class tables, with no
    per-row projection and no allocation per test. The tuple closure
    ({!of_pref}) stays the oracle, and the fallback for leaves with no key
    form. *)

open Pref_relation

type t = Tuple.t -> Tuple.t -> bool

val of_pref : Schema.t -> Preferences.Pref.t -> t
(** Compiled dominance test of a preference term. *)

val counting : ('p -> 'p -> bool) -> ('p -> 'p -> bool) * (unit -> int)
(** Instrument a test with a comparison counter, for the cost experiments. *)

(** {1 Projection vectors} *)

type vec = {
  project : Tuple.t -> Value.t array;
      (** per-tuple projection onto the term's attributes *)
  better : Value.t array -> Value.t array -> bool;
      (** dominance over projection vectors *)
}

val of_pref_vec : Schema.t -> Preferences.Pref.t -> vec
(** The wire benchmark's oracle checks candidate answers with it. *)

(** {1 Keyed dominance} *)

type keyed = {
  dominates : int -> int -> bool;
      (** [dominates i j]: the row at position [i] of [source] is strictly
          better than the row at position [j] (other positions raise
          [Invalid_argument]) *)
  term : Preferences.Pref.t;  (** the term compiled *)
  relation : Relation.t;  (** the relation compiled for *)
  source : Relation.t;
      (** the table version whose columns the test reads: [relation]
          itself, or its {!Relation.origin} for a restriction *)
  points : int array;
      (** the positions of [relation]'s rows in [source], in order, in
          the first [size] entries (for an unrestricted relation, a shared
          identity array that may be longer) *)
  size : int;  (** [relation]'s cardinality *)
  closure_leaves : Preferences.Pref.t list;
      (** sub-terms with no key form, read through the compiled tuple
          closure at those positions: SCORE, rank(F), linear sums, and
          value-level leaves naming more than 255 distinct values or
          mixing ints beyond 2^53 with floats *)
  columns_ms : float;  (** time this compile spent building key columns *)
}

val keyed :
  ?like:keyed Lazy.t -> Schema.t -> Preferences.Pref.t -> Relation.t -> keyed
(** Compile a term against the key columns of the relation's table
    version, building the ones it touches that are not built yet. Leaf
    rules, each exact against {!Preferences.Pref.lt_via}:
    - LOWEST, HIGHEST, AROUND and BETWEEN read the float column: a number
      beats NULL, two NULLs tie, a real NaN compares false both ways;
    - POS, NEG, POS/NEG, POS/POS, EXPLICIT and two-graphs read the
      dictionary column: each id maps to a class (the distinct named
      value it equals, or every other value), and
      {!Preferences.Pref.compile_value} fills a table over the classes
      some id falls in;
    - ⊗ and & test {!Value.equal} on attrs(P) by float or id equality
      (boxed values where neither decides it), and flatten nested
      accumulations.
    The compile costs a pass over each touched dictionary and a table
    quadratic in the classes that occur, never in the rows. With [like],
    a compile of this same term (physically) over another relation with
    the same [source] — another group of one GROUPING — its test is
    reused and only the points change (it is forced by the first keyed
    compile that is given it). Raises what
    {!Preferences.Pref.compile} raises on ill-formed terms. *)

val points : keyed -> int array
(** The first [size] entries of [points]: the parallel kernels' input. *)

val window : ?deadline:Engine.deadline -> keyed -> Bnl.run
(** {!Bnl.window} of [dominates] over [points]: the served BNL plan. Its
    survivors are positions in [source]. *)

val select : keyed -> int array -> Tuple.t list
(** The rows at these positions of [source], in this order. Ascending
    positions (the window plans' survivors) take one walk of
    [relation]'s row list; others read {!Relation.row_array} of
    [source]. *)

(** How a σ run compared rows: through the compiled tuple closure
    (the plans that do not run a window over positions), or keyed. *)
type form =
  | Closure
  | Keyed of {
      closure_leaves : Preferences.Pref.t list;
      columns_ms : float;
    }

val form : keyed -> form

val form_attrs : form -> (string * string) list
(** What profiles and EXPLAIN ANALYZE report: [dominance=keyed] or
    [closure], the [columns_ms] the compile paid, and [closure_leaves]
    when some leaf fell back. *)

(** Preference terms and their strict-partial-order semantics.

    This is the paper's inductive preference model (§3): base preference
    constructors (Definition 6 and 7) and complex preference constructors
    (Definitions 8–12), each denoting a strict partial order [<_P] over the
    tuples of a schema, projected onto the term's attribute set.

    The representation type is exposed for pattern matching (the algebra in
    {!Laws} and {!Rewrite} needs it), but terms should be built through the
    smart constructors below, which validate the side conditions the paper
    imposes (disjoint value sets, acyclic EXPLICIT graphs, scorable rank
    operands, equal attribute sets for ♦ and +, single attributes and
    disjoint domains for ⊕). *)

open Pref_relation

type score_fn = {
  sname : string;  (** printable name, also used for term equality *)
  score : Value.t -> float;
}

type combine_fn = {
  cname : string;
  combine : float -> float -> float;
}

type t =
  | Pos of string * Value.t list
      (** POS(A, POS-set): favourites, everything else level 2. *)
  | Neg of string * Value.t list
      (** NEG(A, NEG-set): dislikes at level 2, everything else maximal. *)
  | Pos_neg of string * Value.t list * Value.t list
      (** POS/NEG(A, POS-set; NEG-set): three levels. *)
  | Pos_pos of string * Value.t list * Value.t list
      (** POS/POS(A, POS1-set; POS2-set): favourites, alternatives, rest. *)
  | Explicit of string * (Value.t * Value.t) list
      (** EXPLICIT(A, graph): hand-crafted finite order. The stored edge list
          is the {e transitive closure} in [(worse, better)] orientation. *)
  | Around of string * float
  | Between of string * float * float
  | Lowest of string
  | Highest of string
  | Score of string * score_fn
  | Antichain of Attr.t  (** S↔: no value better than any other. *)
  | Dual of t  (** P∂: reverses the order (Definition 3c). *)
  | Pareto of t * t  (** P1 ⊗ P2 (Definition 8). *)
  | Prior of t * t  (** P1 & P2 (Definition 9). *)
  | Rank of combine_fn * t * t  (** rank(F)(P1, P2) (Definition 10). *)
  | Inter of t * t  (** P1 ♦ P2 (Definition 11a). *)
  | Dunion of t * t  (** P1 + P2 (Definition 11b). *)
  | Lsum of lsum_spec  (** P1 ⊕ P2 (Definition 12). *)
  | Two_graphs of two_graphs_spec
      (** The super-constructor of POS/NEG and EXPLICIT suggested in §3.4:
          a POS graph on top, all other values in the middle, a NEG graph
          at the bottom, assembled by linear sums. *)

and lsum_spec = {
  ls_attr : string;  (** the new attribute name A with dom(A1) ∪ dom(A2) *)
  ls_left : t;
  ls_left_dom : Value.t list;
  ls_right : t;
  ls_right_dom : Value.t list;
}

and two_graphs_spec = {
  tg_attr : string;
  tg_pos : (Value.t * Value.t) list;
      (** transitively closed POS edges in [(worse, better)] orientation *)
  tg_pos_singles : Value.t list;  (** isolated POS values (no edges) *)
  tg_neg : (Value.t * Value.t) list;
  tg_neg_singles : Value.t list;
}

exception Ill_formed of { code : string; message : string; term : t }
(** A side-condition violation detected at evaluation/compile time, carrying
    the stable diagnostic code of the static analyzer ([Pref_analysis]) and
    the offending subterm — the executor and the analyzer report identical
    findings. Raised today by {!compile} for rank over a non-scorable
    operand ([E004]) and for a base constructor spanning several attributes
    ([E007]); the smart constructors keep their documented
    [Invalid_argument] behaviour. *)

(** {1 Attribute sets} *)

val attrs : t -> Attr.t
(** The attribute-name set A of the preference (normalized). *)

val is_single_attribute : t -> bool

(** {1 Smart constructors} *)

val pos : string -> Value.t list -> t
val neg : string -> Value.t list -> t

val pos_neg : string -> pos:Value.t list -> neg:Value.t list -> t
(** Raises [Invalid_argument] if the two sets intersect. *)

val pos_pos : string -> pos1:Value.t list -> pos2:Value.t list -> t

val explicit : string -> (Value.t * Value.t) list -> t
(** [explicit a edges] with edges in the paper's [(worse, better)] reading:
    [(v1, v2)] means [v1 <_E v2]. Computes the transitive closure; raises
    [Invalid_argument] on a cyclic graph. *)

val two_graphs :
  attr:string ->
  ?pos_edges:(Value.t * Value.t) list ->
  ?pos_singles:Value.t list ->
  ?neg_edges:(Value.t * Value.t) list ->
  ?neg_singles:Value.t list ->
  unit ->
  t
(** The §3.4 super-constructor: POS-graph values (ordered by their closed
    edge relation, isolated values unranked within the block) are better
    than all other domain values, which are better than all NEG-graph
    values. Specialises to POS/NEG (singles only) and EXPLICIT (POS edges
    only). Raises [Invalid_argument] on cyclic graphs or overlapping
    POS/NEG ranges. *)

val around : string -> float -> t
val between : string -> low:float -> up:float -> t
val lowest : string -> t
val highest : string -> t
val score : string -> name:string -> (Value.t -> float) -> t
val antichain : string list -> t
val dual : t -> t
val pareto : t -> t -> t

val pareto_all : t list -> t
(** Left-nested Pareto accumulation of a non-empty list (⊗ is associative and
    commutative, Proposition 2). *)

val prior : t -> t -> t
val prior_all : t list -> t

val rank : combine_fn -> t -> t -> t
(** Raises [Invalid_argument] unless both operands are SCORE preferences or
    sub-constructors of SCORE (constructor substitutability, §3.4). *)

val weighted_sum : float -> float -> combine_fn
(** [weighted_sum w1 w2] combines scores as [w1*x + w2*y]. *)

val inter : t -> t -> t
(** Raises [Invalid_argument] unless both operands share one attribute set. *)

val dunion : t -> t -> t
(** Disjoint union. The disjoint-range requirement of Definition 11b is a
    semantic condition checked by {!Laws.disjoint_on}; operands over
    different attribute sets are order-embedded into the union implicitly, as
    in the appendix proof of Proposition 4(b). *)

val lsum : attr:string -> t * Value.t list -> t * Value.t list -> t
(** [lsum ~attr (p1, dom1) (p2, dom2)] is P1 ⊕ P2 over the new attribute
    [attr]. Operands must be single-attribute preferences with disjoint
    declared domains. *)

(** {1 Semantics} *)

val lt : Schema.t -> t -> Tuple.t -> Tuple.t -> bool
(** [lt schema p x y] is [x <_P y]: "I like [y] better than [x]". *)

val better : Schema.t -> t -> Tuple.t -> Tuple.t -> bool
(** [better schema p x y] iff [y <_P x] — the dominance test used by BMO
    evaluation. *)

val cmp : Schema.t -> t -> Tuple.t -> Tuple.t -> Pref_order.Cmp.t
(** Classification from the first tuple's perspective; [Equal] means equal
    projections onto [attrs p]. *)

val lt_value : t -> Value.t -> Value.t -> bool
(** Value-level order for single-attribute preferences; raises
    [Invalid_argument] on multi-attribute terms. *)

val better_value : t -> Value.t -> Value.t -> bool

val score_via : ('row -> string -> Value.t) -> t -> ('row -> float) option
(** Scoring view, when the term is a sub-constructor of SCORE: SCORE itself,
    AROUND ([-distance]), BETWEEN ([-distance]), LOWEST ([-x]), HIGHEST
    ([x]), their duals, and rank(F) compositions. *)

val is_scorable : t -> bool

val distance_around : Value.t -> float -> float
(** [abs(v - z)], infinite for non-numeric values (Definition 7a). *)

val distance_between : Value.t -> low:float -> up:float -> float
(** Distance to the interval, 0 inside it (Definition 7b). *)

(** {1 Term equality and compilation} *)

val equal : t -> t -> bool
(** Structural (syntactic) equality of terms; function components compare by
    name. Semantic equivalence (Definition 13) lives in {!Equiv}. *)

val compile : Schema.t -> t -> Tuple.t -> Tuple.t -> bool
(** Compiled [lt]: attribute indices, membership tables and score closures
    are resolved once. Raises [Invalid_argument] if an attribute is missing
    from the schema. *)

val compile_better : Schema.t -> t -> Tuple.t -> Tuple.t -> bool
(** Compiled dominance test ([better]). *)

val compile_value : t -> Value.t -> Value.t -> bool
(** Compiled {!lt_value} of a single-attribute term, with hashed
    membership and edge tables: the leaf order {!compile} applies to the
    attribute's values. *)

val chain_dims : t -> (string list * bool) option
(** [Some (attrs, maximize)] when the term is a Pareto accumulation of
    same-direction numeric chains over disjoint attributes — the pure
    skyline shape the [KLP75] divide & conquer applies to. *)

type vec_compiled = {
  vc_attrs : string list;  (** projected attributes, in slot order *)
  vc_index : int array;  (** slot -> index in the source schema *)
  vc_better : Tuple.t -> Tuple.t -> bool;
      (** dominance over projection vectors, not full tuples *)
}

val compile_vec : Schema.t -> t -> vec_compiled
(** Compile the dominance test to run on flat projection vectors: project
    each tuple once with {!vec_project}, then every test reads a short
    [Value.t array] with slots resolved at compile time — no per-test
    name lookups and no wider-than-needed tuple traffic. The hot-loop
    contract of the array-based BMO kernels. *)

val vec_project : vec_compiled -> Tuple.t -> Tuple.t
(** The projection vector of a tuple (a tuple of the projected
    sub-schema). *)

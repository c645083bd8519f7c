open Pref_relation

type score_fn = {
  sname : string;
  score : Value.t -> float;
}

type combine_fn = {
  cname : string;
  combine : float -> float -> float;
}

type t =
  | Pos of string * Value.t list
  | Neg of string * Value.t list
  | Pos_neg of string * Value.t list * Value.t list
  | Pos_pos of string * Value.t list * Value.t list
  | Explicit of string * (Value.t * Value.t) list
  | Around of string * float
  | Between of string * float * float
  | Lowest of string
  | Highest of string
  | Score of string * score_fn
  | Antichain of Attr.t
  | Dual of t
  | Pareto of t * t
  | Prior of t * t
  | Rank of combine_fn * t * t
  | Inter of t * t
  | Dunion of t * t
  | Lsum of lsum_spec
  | Two_graphs of two_graphs_spec

and lsum_spec = {
  ls_attr : string;
  ls_left : t;
  ls_left_dom : Value.t list;
  ls_right : t;
  ls_right_dom : Value.t list;
}

and two_graphs_spec = {
  tg_attr : string;
  tg_pos : (Value.t * Value.t) list;  (* closed edges, (worse, better) *)
  tg_pos_singles : Value.t list;
  tg_neg : (Value.t * Value.t) list;
  tg_neg_singles : Value.t list;
}

(* Structured ill-formedness: the diagnostic code matches the static
   analyzer's (Pref_analysis.Diagnostic), so the executor and the analyzer
   report identical findings for the same defect. *)
exception Ill_formed of { code : string; message : string; term : t }

let ill_formed ~code ~message term = raise (Ill_formed { code; message; term })

let () =
  Printexc.register_printer (function
    | Ill_formed { code; message; _ } ->
      Some (Printf.sprintf "Pref.Ill_formed[%s]: %s" code message)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Attribute sets                                                      *)

let rec attrs = function
  | Pos (a, _) | Neg (a, _) | Pos_neg (a, _, _) | Pos_pos (a, _, _)
  | Explicit (a, _) | Around (a, _) | Between (a, _, _)
  | Lowest a | Highest a | Score (a, _) ->
    [ a ]
  | Antichain l -> Attr.normalize l
  | Dual p -> attrs p
  | Pareto (p, q) | Prior (p, q) | Rank (_, p, q) | Inter (p, q) | Dunion (p, q)
    ->
    Attr.union (attrs p) (attrs q)
  | Lsum s -> [ s.ls_attr ]
  | Two_graphs s -> [ s.tg_attr ]

let is_single_attribute p = match attrs p with [ _ ] -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Smart constructors                                                  *)

let check_disjoint_sets what s1 s2 =
  if List.exists (fun v -> List.exists (Value.equal v) s2) s1 then
    invalid_arg (what ^ ": value sets must be disjoint")

let pos a set = Pos (a, set)
let neg a set = Neg (a, set)

let pos_neg a ~pos ~neg =
  check_disjoint_sets "Pref.pos_neg" pos neg;
  Pos_neg (a, pos, neg)

let pos_pos a ~pos1 ~pos2 =
  check_disjoint_sets "Pref.pos_pos" pos1 pos2;
  Pos_pos (a, pos1, pos2)

(* Close an edge list transitively, rejecting cycles; edges are in the
   paper's (worse, better) reading.  The result is sorted canonically so
   structurally equal orders have structurally equal terms regardless of
   how the edges were supplied. *)
let close_edge_list ~what edges =
  let values =
    List.fold_left
      (fun acc (x, y) ->
        let add v acc = if List.exists (Value.equal v) acc then acc else v :: acc in
        add x (add y acc))
      [] edges
  in
  (* of_edges expects (better, worse); the paper's pairs are (worse, better). *)
  let g =
    Pref_order.Graph.of_edges ~equal:Value.equal values
      (List.map (fun (worse, better) -> (better, worse)) edges)
  in
  if not (Pref_order.Graph.is_acyclic g) then
    invalid_arg (what ^ ": better-than graph is cyclic");
  let closed = Pref_order.Graph.transitive_closure g in
  List.map (fun (better, worse) -> (worse, better)) (Pref_order.Graph.edges closed)
  |> List.sort (fun (w1, b1) (w2, b2) ->
         match Value.compare w1 w2 with
         | 0 -> Value.compare b1 b2
         | c -> c)

let edge_values edges =
  List.fold_left
    (fun acc (x, y) ->
      let add v acc = if List.exists (Value.equal v) acc then acc else v :: acc in
      add x (add y acc))
    [] edges

let explicit a edges =
  (* The stored term carries the full strict order <_E of Definition 6(e). *)
  Explicit (a, close_edge_list ~what:"Pref.explicit" edges)

let two_graphs ~attr ?(pos_edges = []) ?(pos_singles = []) ?(neg_edges = [])
    ?(neg_singles = []) () =
  (* §3.4's suggested super-constructor of POS/NEG and EXPLICIT: a POS graph
     on top, all other domain values in the middle, a NEG graph at the
     bottom — assembled by linear sums in analogy to POS/NEG. *)
  let tg_pos = close_edge_list ~what:"Pref.two_graphs (pos)" pos_edges in
  let tg_neg = close_edge_list ~what:"Pref.two_graphs (neg)" neg_edges in
  let dedup_singles edges singles =
    let in_edges = edge_values edges in
    List.sort_uniq Value.compare
      (List.filter (fun v -> not (List.exists (Value.equal v) in_edges)) singles)
  in
  let tg_pos_singles = dedup_singles tg_pos pos_singles in
  let tg_neg_singles = dedup_singles tg_neg neg_singles in
  let pos_range = edge_values tg_pos @ tg_pos_singles in
  let neg_range = edge_values tg_neg @ tg_neg_singles in
  if List.exists (fun v -> List.exists (Value.equal v) neg_range) pos_range then
    invalid_arg "Pref.two_graphs: POS and NEG graphs must be disjoint";
  Two_graphs { tg_attr = attr; tg_pos; tg_pos_singles; tg_neg; tg_neg_singles }

let around a z = Around (a, z)

let between a ~low ~up =
  if low > up then invalid_arg "Pref.between: low must be <= up";
  Between (a, low, up)

let lowest a = Lowest a
let highest a = Highest a
let score a ~name f = Score (a, { sname = name; score = f })
let antichain l = Antichain (Attr.normalize l)
let dual p = Dual p
let pareto p q = Pareto (p, q)

let pareto_all = function
  | [] -> invalid_arg "Pref.pareto_all: empty list"
  | p :: rest -> List.fold_left pareto p rest

let prior p q = Prior (p, q)

let prior_all = function
  | [] -> invalid_arg "Pref.prior_all: empty list"
  | p :: rest -> List.fold_left prior p rest

let inter p q =
  if not (Attr.equal (attrs p) (attrs q)) then
    invalid_arg "Pref.inter: operands must share the same attribute set";
  Inter (p, q)

(* No attribute-set check: Definition 11b states both operands act on the
   same attribute set, but Proposition 4(b) applies '+' after order-embedding
   P1 into A1 ∪ A2 (appendix proof).  Tuple-level evaluation performs that
   embedding implicitly, so operands over different attribute sets are
   meaningful and needed. *)
let dunion p q = Dunion (p, q)

(* ------------------------------------------------------------------ *)
(* Scoring view (for rank(F) and constructor substitutability, §3.4)   *)

let rec score_via getv p =
  let num a t = Value.as_float (getv t a) in
  match p with
  | Score (a, f) -> Some (fun t -> f.score (getv t a))
  | Around (a, z) ->
    Some
      (fun t ->
        match num a t with
        | Some v -> -.Float.abs (v -. z)
        | None -> Float.neg_infinity)
  | Between (a, low, up) ->
    Some
      (fun t ->
        match num a t with
        | Some v -> if v < low then v -. low else if v > up then up -. v else 0.
        | None -> Float.neg_infinity)
  | Lowest a ->
    Some
      (fun t ->
        match num a t with Some v -> -.v | None -> Float.neg_infinity)
  | Highest a ->
    Some (fun t -> match num a t with Some v -> v | None -> Float.neg_infinity)
  | Dual p -> (
    match score_via getv p with
    | Some s -> Some (fun t -> -.s t)
    | None -> None)
  | Rank (f, p1, p2) -> (
    match score_via getv p1, score_via getv p2 with
    | Some s1, Some s2 -> Some (fun t -> f.combine (s1 t) (s2 t))
    | _ -> None)
  | Pos _ | Neg _ | Pos_neg _ | Pos_pos _ | Explicit _ | Antichain _
  | Pareto _ | Prior _ | Inter _ | Dunion _ | Lsum _ | Two_graphs _ ->
    None

let is_scorable p = Option.is_some (score_via (fun _ _ -> Value.Null) p)

let rank f p q =
  if not (is_scorable p && is_scorable q) then
    invalid_arg
      "Pref.rank: operands must be SCORE preferences or sub-constructors of \
       SCORE (AROUND, BETWEEN, LOWEST, HIGHEST, rank)";
  Rank (f, p, q)

let weighted_sum w1 w2 =
  {
    cname = Printf.sprintf "%g*x + %g*y" w1 w2;
    combine = (fun x y -> (w1 *. x) +. (w2 *. y));
  }

let lsum ~attr (left, left_dom) (right, right_dom) =
  if not (is_single_attribute left && is_single_attribute right) then
    invalid_arg "Pref.lsum: operands must be single-attribute preferences";
  check_disjoint_sets "Pref.lsum (domains)" left_dom right_dom;
  Lsum
    {
      ls_attr = attr;
      ls_left = left;
      ls_left_dom = left_dom;
      ls_right = right;
      ls_right_dom = right_dom;
    }

(* ------------------------------------------------------------------ *)
(* Semantics                                                           *)

let value_mem v set = List.exists (Value.equal v) set

(* Value-level order of a two-graphs preference: POS block on top (ordered
   by its graph), all other values in the middle, NEG block at the bottom
   (ordered by its graph) — a linear sum of three blocks, hence an SPO. *)
let tg_lt s vx vy =
  let mem_edges edges v =
    List.exists (fun (w, b) -> Value.equal v w || Value.equal v b) edges
  in
  let in_pos v = mem_edges s.tg_pos v || value_mem v s.tg_pos_singles in
  let in_neg v = mem_edges s.tg_neg v || value_mem v s.tg_neg_singles in
  let edge edges =
    List.exists (fun (w, b) -> Value.equal vx w && Value.equal vy b) edges
  in
  if in_neg vx then (not (in_neg vy)) || edge s.tg_neg
  else if in_pos vx then in_pos vy && edge s.tg_pos
  else in_pos vy

let distance_around v z =
  match Value.as_float v with
  | Some f -> Float.abs (f -. z)
  | None -> Float.infinity

let distance_between v ~low ~up =
  match Value.as_float v with
  | Some f -> if f < low then low -. f else if f > up then f -. up else 0.
  | None -> Float.infinity

(* [lt_via getv p x y] decides x <_P y ("y is better than x"), reading
   attribute values through [getv].  Polymorphic recursion: the Lsum case
   re-enters at the Value.t instantiation to evaluate its single-attribute
   operands directly on values. *)
let rec lt_via : 'row. ('row -> string -> Value.t) -> t -> 'row -> 'row -> bool =
  fun (type row) (getv : row -> string -> Value.t) p (x : row) (y : row) ->
  match p with
  | Pos (a, set) ->
    let vx = getv x a and vy = getv y a in
    (not (value_mem vx set)) && value_mem vy set
  | Neg (a, set) ->
    let vx = getv x a and vy = getv y a in
    (not (value_mem vy set)) && value_mem vx set
  | Pos_neg (a, pset, nset) ->
    let vx = getv x a and vy = getv y a in
    (value_mem vx nset && not (value_mem vy nset))
    || ((not (value_mem vx nset))
       && (not (value_mem vx pset))
       && value_mem vy pset)
  | Pos_pos (a, p1, p2) ->
    let vx = getv x a and vy = getv y a in
    (value_mem vx p2 && value_mem vy p1)
    || ((not (value_mem vx p1))
       && (not (value_mem vx p2))
       && (value_mem vy p2 || value_mem vy p1))
  | Explicit (a, closed) ->
    let vx = getv x a and vy = getv y a in
    let in_range v =
      List.exists (fun (w, b) -> Value.equal v w || Value.equal v b) closed
    in
    List.exists (fun (w, b) -> Value.equal vx w && Value.equal vy b) closed
    || ((not (in_range vx)) && in_range vy)
  | Around (a, z) -> distance_around (getv x a) z > distance_around (getv y a) z
  | Between (a, low, up) ->
    distance_between (getv x a) ~low ~up > distance_between (getv y a) ~low ~up
  | Lowest a -> (
    match Value.as_float (getv x a), Value.as_float (getv y a) with
    | Some vx, Some vy -> vx > vy
    | None, Some _ -> true (* NULL is worst *)
    | (Some _ | None), None -> false)
  | Highest a -> (
    match Value.as_float (getv x a), Value.as_float (getv y a) with
    | Some vx, Some vy -> vx < vy
    | None, Some _ -> true
    | (Some _ | None), None -> false)
  | Score (a, f) -> f.score (getv x a) < f.score (getv y a)
  | Antichain _ -> false
  | Dual p -> lt_via getv p y x
  | Pareto (p1, p2) ->
    let lt1 = lt_via getv p1 x y
    and lt2 = lt_via getv p2 x y
    and eq1 = eq_via getv (attrs p1) x y
    and eq2 = eq_via getv (attrs p2) x y in
    (lt1 && (lt2 || eq2)) || (lt2 && (lt1 || eq1))
  | Prior (p1, p2) ->
    lt_via getv p1 x y || (eq_via getv (attrs p1) x y && lt_via getv p2 x y)
  | Rank (f, p1, p2) -> (
    match score_via getv p1, score_via getv p2 with
    | Some s1, Some s2 -> f.combine (s1 x) (s2 x) < f.combine (s1 y) (s2 y)
    | _ -> invalid_arg "Pref: rank applied to non-scorable operand")
  | Inter (p1, p2) -> lt_via getv p1 x y && lt_via getv p2 x y
  | Dunion (p1, p2) -> lt_via getv p1 x y || lt_via getv p2 x y
  | Lsum s ->
    let vx = getv x s.ls_attr and vy = getv y s.ls_attr in
    let sub p v w =
      (* Evaluate the single-attribute operand on raw values by rerouting
         every attribute lookup to the linear sum's combined attribute. *)
      let getv' u (_ : string) = u in
      lt_via getv' p v w
    in
    sub s.ls_left vx vy || sub s.ls_right vx vy
    || (value_mem vx s.ls_right_dom && value_mem vy s.ls_left_dom)
  | Two_graphs s -> tg_lt s (getv x s.tg_attr) (getv y s.tg_attr)

and eq_via : 'row. ('row -> string -> Value.t) -> string list -> 'row -> 'row -> bool =
  fun getv names x y ->
  List.for_all (fun a -> Value.equal (getv x a) (getv y a)) names

(* ------------------------------------------------------------------ *)
(* Top-level evaluation over tuples of a schema                        *)

let getv_of_schema schema t a = Tuple.get_by_name schema t a

let lt schema p x y = lt_via (getv_of_schema schema) p x y
let better schema p x y = lt schema p y x

let cmp schema p x y =
  let names = attrs p in
  if eq_via (getv_of_schema schema) names x y then Pref_order.Cmp.Equal
  else if better schema p x y then Pref_order.Cmp.Better
  else if better schema p y x then Pref_order.Cmp.Worse
  else Pref_order.Cmp.Unranked

(* ------------------------------------------------------------------ *)
(* Value-level evaluation (single-attribute preferences)               *)

let lt_value p vx vy =
  if not (is_single_attribute p) then
    invalid_arg "Pref.lt_value: preference spans several attributes";
  lt_via (fun v (_ : string) -> v) p vx vy

let better_value p vx vy = lt_value p vy vx

(* ------------------------------------------------------------------ *)
(* Structural equality of terms                                        *)

let equal_values_list a b =
  List.length a = List.length b && List.for_all2 Value.equal a b

let rec equal p q =
  match p, q with
  | Pos (a, s), Pos (b, s') | Neg (a, s), Neg (b, s') ->
    String.equal a b && equal_values_list s s'
  | Pos_neg (a, s1, s2), Pos_neg (b, s1', s2')
  | Pos_pos (a, s1, s2), Pos_pos (b, s1', s2') ->
    String.equal a b && equal_values_list s1 s1' && equal_values_list s2 s2'
  | Explicit (a, e), Explicit (b, e') ->
    String.equal a b
    && List.length e = List.length e'
    && List.for_all2
         (fun (x, y) (x', y') -> Value.equal x x' && Value.equal y y')
         e e'
  | Around (a, z), Around (b, z') -> String.equal a b && z = z'
  | Between (a, l, u), Between (b, l', u') -> String.equal a b && l = l' && u = u'
  | Lowest a, Lowest b | Highest a, Highest b -> String.equal a b
  | Score (a, f), Score (b, f') -> String.equal a b && String.equal f.sname f'.sname
  | Antichain l, Antichain l' -> Attr.equal l l'
  | Dual p, Dual q -> equal p q
  | Pareto (p1, p2), Pareto (q1, q2)
  | Prior (p1, p2), Prior (q1, q2)
  | Inter (p1, p2), Inter (q1, q2)
  | Dunion (p1, p2), Dunion (q1, q2) ->
    equal p1 q1 && equal p2 q2
  | Rank (f, p1, p2), Rank (g, q1, q2) ->
    String.equal f.cname g.cname && equal p1 q1 && equal p2 q2
  | Lsum s, Lsum s' ->
    String.equal s.ls_attr s'.ls_attr
    && equal s.ls_left s'.ls_left
    && equal s.ls_right s'.ls_right
    && equal_values_list s.ls_left_dom s'.ls_left_dom
    && equal_values_list s.ls_right_dom s'.ls_right_dom
  | Two_graphs s, Two_graphs s' ->
    let edges_equal e e' =
      List.length e = List.length e'
      && List.for_all2
           (fun (x, y) (x', y') -> Value.equal x x' && Value.equal y y')
           e e'
    in
    String.equal s.tg_attr s'.tg_attr
    && edges_equal s.tg_pos s'.tg_pos
    && edges_equal s.tg_neg s'.tg_neg
    && equal_values_list s.tg_pos_singles s'.tg_pos_singles
    && equal_values_list s.tg_neg_singles s'.tg_neg_singles
  | ( ( Pos _ | Neg _ | Pos_neg _ | Pos_pos _ | Explicit _ | Around _
      | Between _ | Lowest _ | Highest _ | Score _ | Antichain _ | Dual _
      | Pareto _ | Prior _ | Rank _ | Inter _ | Dunion _ | Lsum _
      | Two_graphs _ ),
      _ ) ->
    false

(* ------------------------------------------------------------------ *)
(* Compilation: resolve attribute indices once for hot loops           *)

(* Membership and edge tables keyed by Value.equal classes: hashing a
   value allocates nothing, and ints meet floats numerically while NaN
   meets nothing, exactly as [value_mem] decides. *)
let member_fn set =
  let tbl = Value.Tbl.create (max 4 (List.length set)) in
  List.iter (fun v -> Value.Tbl.replace tbl v ()) set;
  fun v -> Value.Tbl.mem tbl v

module Pair_tbl = Hashtbl.Make (struct
  type t = Value.t * Value.t

  let equal (a, b) (c, d) = Value.equal a c && Value.equal b d
  let hash (a, b) = (Value.hash a * 0x01000193) lxor Value.hash b
end)

let edge_fn edges =
  let tbl = Pair_tbl.create (max 4 (List.length edges)) in
  List.iter (fun e -> Pair_tbl.replace tbl e ()) edges;
  fun vx vy -> Pair_tbl.mem tbl (vx, vy)

(* Compiled value-level order for single-attribute operands (Lsum). *)
let rec compile_value p : Value.t -> Value.t -> bool =
  match p with
  | Pos (_, set) ->
    let m = member_fn set in
    fun vx vy -> (not (m vx)) && m vy
  | Neg (_, set) ->
    let m = member_fn set in
    fun vx vy -> (not (m vy)) && m vx
  | Pos_neg (_, pset, nset) ->
    let mp = member_fn pset and mn = member_fn nset in
    fun vx vy ->
      (mn vx && not (mn vy)) || ((not (mn vx)) && (not (mp vx)) && mp vy)
  | Pos_pos (_, p1, p2) ->
    let m1 = member_fn p1 and m2 = member_fn p2 in
    fun vx vy ->
      (m2 vx && m1 vy) || ((not (m1 vx)) && (not (m2 vx)) && (m2 vy || m1 vy))
  | Explicit (_, closed) ->
    let edge = edge_fn closed
    and range = member_fn (List.concat_map (fun (w, b) -> [ w; b ]) closed) in
    fun vx vy -> edge vx vy || ((not (range vx)) && range vy)
  | Around (_, z) -> fun vx vy -> distance_around vx z > distance_around vy z
  | Between (_, low, up) ->
    fun vx vy -> distance_between vx ~low ~up > distance_between vy ~low ~up
  | Lowest _ -> (
    fun vx vy ->
      match Value.as_float vx, Value.as_float vy with
      | Some a, Some b -> a > b
      | None, Some _ -> true
      | (Some _ | None), None -> false)
  | Highest _ -> (
    fun vx vy ->
      match Value.as_float vx, Value.as_float vy with
      | Some a, Some b -> a < b
      | None, Some _ -> true
      | (Some _ | None), None -> false)
  | Score (_, f) -> fun vx vy -> f.score vx < f.score vy
  | Antichain _ -> fun _ _ -> false
  | Dual p ->
    let c = compile_value p in
    fun vx vy -> c vy vx
  | Pareto (p1, p2) ->
    let c1 = compile_value p1 and c2 = compile_value p2 in
    fun vx vy ->
      let eq = Value.equal vx vy in
      (c1 vx vy && (c2 vx vy || eq)) || (c2 vx vy && (c1 vx vy || eq))
  | Prior (p1, p2) ->
    let c1 = compile_value p1 and c2 = compile_value p2 in
    fun vx vy -> c1 vx vy || (Value.equal vx vy && c2 vx vy)
  | Rank _ | Inter (_, _) | Dunion (_, _) ->
    fun vx vy -> lt_via (fun v (_ : string) -> v) p vx vy
  | Lsum s ->
    let cl = compile_value s.ls_left
    and cr = compile_value s.ls_right
    and ml = member_fn s.ls_left_dom
    and mr = member_fn s.ls_right_dom in
    fun vx vy -> cl vx vy || cr vx vy || (mr vx && ml vy)
  | Two_graphs s ->
    let range_fn edges singles =
      member_fn (List.concat_map (fun (w, b) -> [ w; b ]) edges @ singles)
    in
    let pos_edge = edge_fn s.tg_pos
    and neg_edge = edge_fn s.tg_neg
    and in_pos = range_fn s.tg_pos s.tg_pos_singles
    and in_neg = range_fn s.tg_neg s.tg_neg_singles in
    fun vx vy ->
      if in_neg vx then (not (in_neg vy)) || neg_edge vx vy
      else if in_pos vx then in_pos vy && pos_edge vx vy
      else in_pos vy

(* [compile schema p] returns the relation [lt] (x <_P y) with attribute
   indices, membership tables and score closures resolved once. *)
let compile schema p : Tuple.t -> Tuple.t -> bool =
  let idx a = Schema.index_of_exn schema a in
  let eq_fn names =
    let is = List.map idx names in
    fun x y -> List.for_all (fun i -> Value.equal (Tuple.get x i) (Tuple.get y i)) is
  in
  let score_fn p =
    match score_via (fun t a -> Tuple.get t (idx a)) p with
    | Some s -> s
    | None ->
      ill_formed ~code:"E004"
        ~message:"Pref.compile: rank applied to non-scorable operand" p
  in
  let rec go p =
    match p with
    | Pos _ | Neg _ | Pos_neg _ | Pos_pos _ | Explicit _ | Around _ | Between _
    | Lowest _ | Highest _ | Score _ | Two_graphs _ -> (
      match attrs p with
      | [ a ] ->
        let i = idx a and c = compile_value p in
        fun x y -> c (Tuple.get x i) (Tuple.get y i)
      | _ ->
        ill_formed ~code:"E007"
          ~message:"Pref.compile: base preference spans several attributes" p)
    | Antichain _ -> fun _ _ -> false
    | Dual p ->
      let c = go p in
      fun x y -> c y x
    | Pareto (p1, p2) ->
      let c1 = go p1
      and c2 = go p2
      and eq1 = eq_fn (attrs p1)
      and eq2 = eq_fn (attrs p2) in
      fun x y ->
        let lt1 = c1 x y and lt2 = c2 x y in
        (lt1 && (lt2 || eq2 x y)) || (lt2 && (lt1 || eq1 x y))
    | Prior (p1, p2) ->
      let c1 = go p1 and c2 = go p2 and eq1 = eq_fn (attrs p1) in
      fun x y -> c1 x y || (eq1 x y && c2 x y)
    | Rank (f, p1, p2) ->
      let s1 = score_fn p1 and s2 = score_fn p2 in
      fun x y -> f.combine (s1 x) (s2 x) < f.combine (s1 y) (s2 y)
    | Inter (p1, p2) ->
      let c1 = go p1 and c2 = go p2 in
      fun x y -> c1 x y && c2 x y
    | Dunion (p1, p2) ->
      let c1 = go p1 and c2 = go p2 in
      fun x y -> c1 x y || c2 x y
    | Lsum s ->
      let i = idx s.ls_attr and c = compile_value (Lsum s) in
      fun x y -> c (Tuple.get x i) (Tuple.get y i)
  in
  go p

let compile_better schema p =
  let c = compile schema p in
  fun x y -> c y x

(* ------------------------------------------------------------------ *)
(* Structural analysis: pure numeric skylines                          *)

(* Is the term a Pareto accumulation of pure numeric chains over disjoint
   attributes, all in the same direction?  Then the skyline algorithms
   (KLP75 divide & conquer, SFS presorting) apply. *)
let rec chain_dims = function
  | Highest a -> Some ([ a ], true)
  | Lowest a -> Some ([ a ], false)
  | Dual p -> (
    match chain_dims p with
    | Some (attrs, maximize) -> Some (attrs, not maximize)
    | None -> None)
  | Pareto (p, q) -> (
    match chain_dims p, chain_dims q with
    | Some (a1, m1), Some (a2, m2) when m1 = m2 && Attr.disjoint a1 a2 ->
      Some (a1 @ a2, m1)
    | _ -> None)
  | Pos _ | Neg _ | Pos_neg _ | Pos_pos _ | Explicit _ | Around _ | Between _
  | Score _ | Antichain _ | Prior _ | Rank _ | Inter _ | Dunion _ | Lsum _
  | Two_graphs _ ->
    None

(* ------------------------------------------------------------------ *)
(* Vectorized compilation: dominance over flat projection vectors      *)

type vec_compiled = {
  vc_attrs : string list;  (* projected attributes, in slot order *)
  vc_index : int array;  (* slot -> index in the source schema *)
  vc_better : Tuple.t -> Tuple.t -> bool;  (* over projection vectors *)
}

(* [compile_vec schema p] compiles the better-than test to run on flat
   projection vectors instead of full tuples: project each tuple once with
   {!vec_project}, then every dominance test reads a short [Value.t array]
   whose slots were resolved at compile time.  Implemented by compiling [p]
   against the projected sub-schema — a projection vector *is* a tuple of
   that schema — so the vector semantics are the compiled semantics by
   construction. *)
let compile_vec schema p =
  let vc_attrs = attrs p in
  let proj_schema = Schema.project schema vc_attrs in
  let vc_index =
    Array.of_list (List.map (Schema.index_of_exn schema) vc_attrs)
  in
  let c = compile proj_schema p in
  { vc_attrs; vc_index; vc_better = (fun x y -> c y x) }

let vec_project vc (t : Tuple.t) =
  Array.map (fun i -> Tuple.get t i) vc.vc_index

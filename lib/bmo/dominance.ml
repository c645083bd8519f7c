open Pref_relation
open Preferences

type t = Tuple.t -> Tuple.t -> bool

let of_pref schema p = Pref.compile_better schema p

let counting dom =
  let n = ref 0 in
  let dom' a b =
    incr n;
    dom a b
  in
  (dom', fun () -> !n)

(* ------------------------------------------------------------------ *)
(* Projection vectors                                                  *)

type vec = {
  project : Tuple.t -> Value.t array;
  better : Value.t array -> Value.t array -> bool;
}

let of_pref_vec schema p =
  let vc = Pref.compile_vec schema p in
  { project = Pref.vec_project vc; better = vc.Pref.vc_better }

(* ------------------------------------------------------------------ *)
(* Keyed dominance over a table version's key columns                  *)

type form = Closure | Keyed of { closure_leaves : Pref.t list; columns_ms : float }

type keyed = {
  dominates : int -> int -> bool;
  term : Pref.t;
  relation : Relation.t;
  source : Relation.t;
  points : int array;
  size : int;
  closure_leaves : Pref.t list;
  columns_ms : float;
}

(* The values a value-level leaf names. Its order reads a value only
   through Value.equal against these, so every value equal to none of
   them behaves alike — NaN, equal to nothing, stands in for them all. *)
let named_values = function
  | Pref.Pos (_, s) | Pref.Neg (_, s) -> s
  | Pref.Pos_neg (_, a, b) | Pref.Pos_pos (_, a, b) -> a @ b
  | Pref.Explicit (_, edges) -> List.concat_map (fun (w, b) -> [ w; b ]) edges
  | Pref.Two_graphs s ->
    List.concat_map (fun (w, b) -> [ w; b ]) (s.Pref.tg_pos @ s.Pref.tg_neg)
    @ s.Pref.tg_pos_singles @ s.Pref.tg_neg_singles
  | _ -> []

(* Above this many distinct named values the leaf reads the tuple
   closure: its class table would be quadratic in them. *)
let max_named = 255

let is_float = function Value.Float _ -> true | _ -> false
let is_wide_int = function Value.Int i -> Value.wide_int i | _ -> false

(* Nested Pareto (and prioritised) accumulations flatten: by Def. 8,
   x <_{P1⊗…⊗Pk} y iff every operand has x <_i y or x =_i y and one has
   x <_i y, because equality on attrs(P1) ∪ attrs(P2) is the conjunction
   of the two; by Def. 9 x <_{P1&…&Pk} y iff some operand has x <_i y
   with x =_j y on every earlier one. A dual distributes over ⊗, &, ♦
   and + (equality is symmetric), so the compiler pushes it to the
   leaves. *)
let rec pareto_operands = function
  | Pref.Pareto (p, q) -> pareto_operands p @ pareto_operands q
  | p -> [ p ]

let rec prior_operands = function
  | Pref.Prior (p, q) -> prior_operands p @ prior_operands q
  | p -> [ p ]

let is_null nulls x = Bytes.length nulls > 0 && Bytes.get nulls x <> '\000'

(* A Pareto operand that is a numeric chain: LOWEST or HIGHEST under any
   number of duals, with whether smaller values are better. *)
let rec chain_leaf = function
  | Pref.Lowest a -> Some (a, true)
  | Pref.Highest a -> Some (a, false)
  | Pref.Dual q -> Option.map (fun (a, low) -> (a, not low)) (chain_leaf q)
  | _ -> None

(* x <_P y for a Pareto accumulation of numeric chains over float
   columns with no NULL, where float equality is Value.equal: per
   dimension x <_i y, or x =_i y (NaN equals nothing), or the test fails.
   One flat loop over the columns instead of two closure calls per
   operand: on the 2-d and 3-d skyline templates at n = 50 000 it takes a
   quarter off the general loop (DESIGN §7). *)
let float_pareto (dims : (float array * bool) array) =
  let k = Array.length dims in
  let vs = Array.map fst dims and better_low = Array.map snd dims in
  fun x y ->
    let strict = ref false and ok = ref true and i = ref 0 in
    while !ok && !i < k do
      let v = Array.unsafe_get vs !i in
      let a = v.(x) and b = v.(y) in
      if if Array.unsafe_get better_low !i then a > b else a < b then strict := true
      else if not (a = b) then ok := false;
      incr i
    done;
    !ok && !strict

(* One identity array, grown on demand and never mutated, holds the
   positions of every unrestricted relation: a compile allocates no array
   of positions. *)
let identity = Atomic.make [||]

let identity_points n =
  let cur = Atomic.get identity in
  if Array.length cur >= n then cur
  else begin
    let ids = Array.init (max n (2 * Array.length cur)) Fun.id in
    Atomic.set identity ids;
    ids
  end

let keyed ?like schema p rel =
  (* a restriction reads its origin's columns at its rows' positions *)
  let source, points =
    match Relation.origin rel with
    | Some (base, pos) -> (base, pos)
    | None -> (rel, identity_points (Relation.cardinality rel))
  in
  let fresh = match like with Some l -> not (Lazy.is_val l) | None -> false in
  match like with
  | Some (lazy k) when k.source == source && k.term == p ->
    (* the compile that forced [like] paid its column builds *)
    let columns_ms = if fresh then k.columns_ms else 0. in
    { k with relation = rel; points; size = Relation.cardinality rel; columns_ms }
  | _ ->
  (* only a closure leaf or boxed equality indexes the tuples *)
  let rows = lazy (Relation.row_array source) in
  let paid = ref 0. and fallback = ref [] in
  let fetch has build i =
    if has source i then build source i
    else begin
      let c, ms = Pref_obs.Span.timed (fun () -> build source i) in
      Pref_obs.Metrics.observe Obs.columns_build_ms ms;
      paid := !paid +. ms;
      c
    end
  in
  let floats = fetch Relation.has_floats Relation.floats
  and dict = fetch Relation.has_dict Relation.dict
  and idx = Schema.index_of_exn schema in
  let swap dual c = if dual then fun x y -> c y x else c in
  let closure ~dual p =
    fallback := p :: !fallback;
    let c = Pref.compile schema p and rows = Lazy.force rows in
    swap dual (fun x y -> c rows.(x) rows.(y))
  in
  (* Value.equal on one attribute *)
  let eq_attr a =
    let i = idx a in
    let by_dict () =
      let d = dict i in
      if d.Relation.has_float && d.Relation.has_wide_int then
        let rows = Lazy.force rows in
        fun x y -> Value.equal (Tuple.get rows.(x) i) (Tuple.get rows.(y) i)
      else
        match d.Relation.ids with
        | Relation.Byte_ids b -> fun x y -> Bytes.get b x = Bytes.get b y
        | Relation.Int_ids a -> fun x y -> a.(x) = a.(y)
    in
    match Schema.type_of schema a with
    | Some (Value.TInt | Value.TFloat | Value.TDate | Value.TBool) ->
      let f = floats i in
      if not f.Relation.float_equal then by_dict ()
      else
        let v = f.Relation.values and nulls = f.Relation.nulls in
        if Bytes.length nulls = 0 then fun x y -> v.(x) = v.(y)
        else fun x y ->
          let nx = is_null nulls x and ny = is_null nulls y in
          if nx || ny then nx && ny else v.(x) = v.(y)
    | Some Value.TStr | None -> by_dict ()
  in
  let eq_attrs names =
    match List.map eq_attr names with
    | [] -> fun _ _ -> true
    | [ e ] -> e
    | es -> fun x y -> List.for_all (fun e -> e x y) es
  in
  (* LOWEST / HIGHEST, AROUND, BETWEEN: lt_via's NULL rules on the float
     column — a number beats NULL, two NULLs tie — while a real NaN
     compares false both ways. *)
  let chain ~dual a ~up =
    let f = floats (idx a) in
    let v = f.Relation.values and nulls = f.Relation.nulls in
    if Bytes.length nulls = 0 then
      if up <> dual then fun x y -> v.(x) < v.(y) else fun x y -> v.(x) > v.(y)
    else
      swap dual (fun x y ->
          (not (is_null nulls y))
          && (is_null nulls x
             ||
             let a = v.(x) and b = v.(y) in
             if up then a < b else a > b))
  in
  let around ~dual a z =
    let f = floats (idx a) in
    let v = f.Relation.values and nulls = f.Relation.nulls in
    if Bytes.length nulls = 0 then
      swap dual (fun x y -> Float.abs (v.(x) -. z) > Float.abs (v.(y) -. z))
    else
      let dist k = if is_null nulls k then Float.infinity else Float.abs (v.(k) -. z) in
      swap dual (fun x y -> dist x > dist y)
  in
  let between ~dual a low up =
    let f = floats (idx a) in
    let v = f.Relation.values and nulls = f.Relation.nulls in
    let dist k =
      if is_null nulls k then Float.infinity
      else
        let f = v.(k) in
        if f < low then low -. f else if f > up then f -. up else 0.
    in
    swap dual (fun x y -> dist x > dist y)
  in
  (* POS, NEG, POS/NEG, POS/POS, EXPLICIT, two graphs: every dictionary id
     maps to a class — the distinct named value it equals, or the class of
     all the others — numbered only for the classes some id falls in, and
     Pref.compile_value decides the order once per pair of classes. *)
  let value_leaf ~dual p a =
    let named = Value.Tbl.create 16 in
    List.iter
      (fun v ->
        if not (Value.Tbl.mem named v) then Value.Tbl.add named v (Value.Tbl.length named))
      (named_values p);
    let m = Value.Tbl.length named in
    if m > max_named then closure ~dual p
    else
      let d = dict (idx a) in
      if
        (d.Relation.has_float || Value.Tbl.fold (fun v _ b -> b || is_float v) named false)
        && (d.Relation.has_wide_int
           || Value.Tbl.fold (fun v _ b -> b || is_wide_int v) named false)
      then closure ~dual p
      else begin
        (* [number.(c)]: the number of named class [c] (or [m], the others) *)
        let number = Array.make (m + 1) (-1) and reps = ref [] and k = ref 0 in
        let cls =
          Array.map
            (fun v ->
              let c = Option.value (Value.Tbl.find_opt named v) ~default:m in
              if number.(c) < 0 then begin
                number.(c) <- !k;
                reps := (if c = m then Value.Float Float.nan else v) :: !reps;
                incr k
              end;
              number.(c))
            d.Relation.reps
        in
        let k = !k and reps = Array.of_list (List.rev !reps) in
        let lt = Pref.compile_value p in
        let table =
          Array.init (k * k) (fun c ->
              let x = reps.(c / k) and y = reps.(c mod k) in
              if dual then lt y x else lt x y)
        in
        match d.Relation.ids with
        | Relation.Byte_ids b ->
          fun x y ->
            table.((cls.(Char.code (Bytes.get b x)) * k) + cls.(Char.code (Bytes.get b y)))
        | Relation.Int_ids a -> fun x y -> table.((cls.(a.(x)) * k) + cls.(a.(y)))
      end
  in
  (* [go ~dual p] is x <_P y over row positions, or y <_P x when [dual] *)
  let rec go ~dual p =
    match p with
    | Pref.Lowest a -> chain ~dual a ~up:false
    | Pref.Highest a -> chain ~dual a ~up:true
    | Pref.Around (a, z) -> around ~dual a z
    | Pref.Between (a, low, up) -> between ~dual a low up
    | Pref.Pos (a, _) | Pref.Neg (a, _) | Pref.Pos_neg (a, _, _)
    | Pref.Pos_pos (a, _, _) | Pref.Explicit (a, _) ->
      value_leaf ~dual p a
    | Pref.Two_graphs s -> value_leaf ~dual p s.Pref.tg_attr
    | Pref.Score _ | Pref.Rank _ | Pref.Lsum _ -> closure ~dual p
    | Pref.Antichain _ -> fun _ _ -> false
    | Pref.Dual q -> go ~dual:(not dual) q
    | Pref.Inter (q, r) ->
      let c1 = go ~dual q and c2 = go ~dual r in
      fun x y -> c1 x y && c2 x y
    | Pref.Dunion (q, r) ->
      let c1 = go ~dual q and c2 = go ~dual r in
      fun x y -> c1 x y || c2 x y
    | Pref.Pareto _ -> (
      let ops = pareto_operands p in
      let dim q =
        match chain_leaf q with
        | Some (a, low) ->
          let f = floats (idx a) in
          if f.Relation.float_equal && Bytes.length f.Relation.nulls = 0 then
            Some (f.Relation.values, low <> dual)
          else None
        | None -> None
      in
      match List.map dim ops with
      | dims when List.for_all Option.is_some dims ->
        float_pareto (Array.of_list (List.map Option.get dims))
      | _ -> pareto ~dual ops)
    | Pref.Prior _ ->
      let ops = Array.of_list (prior_operands p) in
      let lts = Array.map (go ~dual) ops
      and eqs = Array.map (fun q -> eq_attrs (Pref.attrs q)) ops in
      let k = Array.length ops in
      fun x y ->
        (* the first operand that is not equal decides *)
        let i = ref 0 and decided = ref false and lt = ref false in
        while (not !decided) && !i < k do
          if (Array.unsafe_get lts !i) x y then begin
            lt := true;
            decided := true
          end
          else if not ((Array.unsafe_get eqs !i) x y) then decided := true;
          incr i
        done;
        !lt
  and pareto ~dual ops =
    let ops = Array.of_list ops in
    let lts = Array.map (go ~dual) ops
    and eqs = Array.map (fun q -> eq_attrs (Pref.attrs q)) ops in
    let k = Array.length ops in
    fun x y ->
      (* every operand better or equal, one better *)
      let strict = ref false and ok = ref true and i = ref 0 in
      while !ok && !i < k do
        if (Array.unsafe_get lts !i) x y then strict := true
        else if not ((Array.unsafe_get eqs !i) x y) then ok := false;
        incr i
      done;
      !ok && !strict
  in
  (* x dominates y iff y <_P x: the term compiled under a dual *)
  let dominates = go ~dual:true p in
  {
    dominates;
    term = p;
    relation = rel;
    source;
    points;
    size = Relation.cardinality rel;
    closure_leaves = List.rev !fallback;
    columns_ms = !paid;
  }

let points k = if k.size = Array.length k.points then k.points else Array.sub k.points 0 k.size

let window ?deadline k =
  let r = Bnl.window ?deadline ~len:k.size k.dominates k.points in
  (* the loop returns indices into the points: make them positions *)
  match Relation.origin k.relation with
  | None -> r
  | Some _ -> { r with Bnl.survivors = Array.map (Array.get k.points) r.Bnl.survivors }

let select k pos =
  let m = Array.length pos in
  let rec ascending i = i >= m - 1 || (pos.(i) < pos.(i + 1) && ascending (i + 1)) in
  if ascending 0 then begin
    (* one walk of the relation's row list, matching positions in order *)
    let rec walk rows j i acc =
      if i = m then List.rev acc
      else
        match rows with
        | t :: rest when j < k.size ->
          if k.points.(j) = pos.(i) then walk rest (j + 1) (i + 1) (t :: acc)
          else walk rest (j + 1) i acc
        | _ -> invalid_arg "Dominance.select: position out of range"
    in
    walk (Relation.rows k.relation) 0 0 []
  end
  else
    let rows = Relation.row_array k.source in
    Array.fold_right (fun i acc -> rows.(i) :: acc) pos []

let form k = Keyed { closure_leaves = k.closure_leaves; columns_ms = k.columns_ms }

let form_attrs = function
  | Closure -> [ ("dominance", "closure") ]
  | Keyed { closure_leaves; columns_ms } ->
    ("dominance", "keyed")
    :: ("columns_ms", Printf.sprintf "%.3f" columns_ms)
    ::
    (match closure_leaves with
    | [] -> []
    | leaves ->
      [ ("closure_leaves", String.concat "; " (List.map Show.to_string leaves)) ])

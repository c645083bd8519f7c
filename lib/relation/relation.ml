(* A record is one table version: its schema, its rows, and the key
   columns derived from those rows. Each is built lazily; on a stored
   version ([store]) at most one copy is published per slot and lives as
   long as the record, on any other record a build serves its caller and
   is dropped. Every function below that returns rows different from its
   argument's builds a fresh record through [v] or [restricted], so no
   record's slots hold another's columns. A restriction ([restrict],
   [group_by]) of a stored version also names that version and its rows'
   positions there: the kernels read that version's columns at those
   positions instead of building columns per query. *)

type floats = { values : float array; nulls : Bytes.t; float_equal : bool }

type ids = Byte_ids of Bytes.t | Int_ids of int array

type dict = {
  ids : ids;
  reps : Value.t array;
  has_float : bool;
  has_wide_int : bool;
}

type slots = {
  kept : bool;  (* a stored version: builds are published *)
  arr : Tuple.t array option;
  floats : floats option array;
  dicts : dict option array;
}

type t = {
  schema : Schema.t;
  rows : Tuple.t list;
  slots : slots Atomic.t;
  origin : (t * int array) option;
      (* the version these rows were taken from, and their ascending
         positions in it; that version has no origin itself *)
}

let no_slots = { kept = false; arr = None; floats = [||]; dicts = [||] }
let v schema rows = { schema; rows; slots = Atomic.make no_slots; origin = None }

let restricted schema base rows pos =
  { schema; rows; slots = Atomic.make no_slots; origin = Some (base, pos) }

let origin r = r.origin

let rec store r =
  let s = Atomic.get r.slots in
  if not (s.kept || Atomic.compare_and_set r.slots s { s with kept = true }) then
    store r

let stored r = (Atomic.get r.slots).kept

(* The version whose columns hold [r]'s rows, and where the [k]-th row of
   [r] sits in it: a stored version, or [r] itself. *)
let source r =
  match r.origin with
  | Some (b, pos) -> (b, Array.get pos)
  | None -> (r, Fun.id)

let schema r = r.schema
let rows r = r.rows
let cardinality r = List.length r.rows
let is_empty r = r.rows = []

let check_row schema row =
  if Tuple.arity row <> Schema.arity schema then
    invalid_arg
      (Printf.sprintf "Relation: row arity %d does not match schema arity %d"
         (Tuple.arity row) (Schema.arity schema));
  List.iteri
    (fun i (name, ty) ->
      let v = Tuple.get row i in
      match Value.type_of v with
      | None -> () (* NULL fits any column *)
      | Some ty' ->
        let compatible =
          ty = ty'
          || (ty = Value.TFloat && ty' = Value.TInt) (* ints widen to float *)
        in
        if not compatible then
          invalid_arg
            (Printf.sprintf
               "Relation: column %S expects %s but row carries %s value %s" name
               (Value.ty_to_string ty) (Value.ty_to_string ty')
               (Value.to_string v)))
    schema

let make schema rows =
  List.iter (check_row schema) rows;
  v schema rows

let of_lists schema lists = make schema (List.map Tuple.make lists)

let empty schema = v schema []

let add_row r row =
  check_row r.schema row;
  v r.schema (r.rows @ [ row ])

let remove_row r row =
  let rec go acc = function
    | [] -> None
    | x :: rest ->
      if Tuple.equal x row then Some (v r.schema (List.rev_append acc rest))
      else go (x :: acc) rest
  in
  go [] r.rows

let mem r row = List.exists (Tuple.equal row) r.rows

let distinct r =
  let seen = Tuple.Tbl.create (List.length r.rows) in
  let keep row =
    if Tuple.Tbl.mem seen row then false
    else begin
      Tuple.Tbl.add seen row ();
      true
    end
  in
  v r.schema (List.filter keep r.rows)

let project r attrs =
  let schema = Schema.project r.schema attrs in
  v schema (List.map (fun t -> Tuple.project r.schema t attrs) r.rows)

let project_distinct r attrs = distinct (project r attrs)

let select p r = v r.schema (List.filter p r.rows)

let map_rows f r = v r.schema (List.map f r.rows)

let union a b =
  if not (Schema.equal a.schema b.schema) then
    invalid_arg "Relation.union: schema mismatch";
  v a.schema (a.rows @ List.filter (fun row -> not (mem a row)) b.rows)

let inter a b =
  if not (Schema.equal a.schema b.schema) then
    invalid_arg "Relation.inter: schema mismatch";
  v a.schema (List.filter (mem b) a.rows)

let diff a b =
  if not (Schema.equal a.schema b.schema) then
    invalid_arg "Relation.diff: schema mismatch";
  v a.schema (List.filter (fun row -> not (mem b row)) a.rows)

let equal_as_sets a b =
  Schema.equal a.schema b.schema
  && List.for_all (mem b) a.rows
  && List.for_all (mem a) b.rows

(* ------------------------------------------------------------------ *)
(* Key columns                                                         *)

(* Publish a layout into a stored version's slots unless another domain
   published one first; either way every reader sees the first one. *)
let rec publish r get set x =
  let s = Atomic.get r.slots in
  match get s with
  | Some y -> y
  | None ->
    if (not s.kept) || Atomic.compare_and_set r.slots s (set s x) then x
    else publish r get set x

let derived r get set build =
  match get (Atomic.get r.slots) with
  | Some x -> x
  | None -> publish r get set (build ())

let row_array r =
  derived r
    (fun s -> s.arr)
    (fun s a -> { s with arr = Some a })
    (fun () -> Array.of_list r.rows)

(* Per-column slot arrays are sized on the first publish. *)
let slot cols i = if i < Array.length cols then cols.(i) else None

let with_slot r cols i x =
  let cols =
    if Array.length cols = 0 then Array.make (Schema.arity r.schema) None
    else Array.copy cols
  in
  cols.(i) <- Some x;
  cols

let check_column r i =
  if i < 0 || i >= Schema.arity r.schema then
    invalid_arg "Relation: column index out of range"

(* Column builds walk the row list: a record that is not stored (a join
   product, a selection of one) then pays for the columns its query
   touches and for no row array. *)
let build_floats rows i =
  let n = List.length rows in
  let values = Array.create_float n in
  (* the mask is made at the first NULL: most columns have none *)
  let nulls = ref Bytes.empty in
  (* kinds of non-NULL values seen: 1 number, 2 date, 4 bool, 8 string *)
  let kinds = ref 0 and wide = ref false in
  List.iteri
    (fun k row ->
    let x =
      match Tuple.get row i with
      | Value.Float f ->
        kinds := !kinds lor 1;
        f
      | Value.Int n ->
        kinds := !kinds lor 1;
        if Value.wide_int n then wide := true;
        float_of_int n
      | Value.Date d ->
        kinds := !kinds lor 2;
        float_of_int (Value.date_to_days d)
      | Value.Bool b ->
        kinds := !kinds lor 4;
        if b then 1. else 0.
      | (Value.Null | Value.Str _) as v ->
        if not (Value.is_null v) then kinds := !kinds lor 8;
        if Bytes.length !nulls = 0 then nulls := Bytes.make n '\000';
        Bytes.set !nulls k '\001';
        Float.nan
    in
    Array.unsafe_set values k x)
    rows;
  {
    values;
    nulls = !nulls;
    float_equal =
      (not !wide) && List.mem !kinds [ 0; 1; 2; 4 ];
  }

(* The derived data stays live with the version, so ids take a byte per
   row until a 257th class turns them into an int array. *)
let build_dict rows i =
  let n = List.length rows in
  let tbl = Value.Tbl.create 64 in
  let bytes = Bytes.create n and ints = ref None in
  let set k id =
    match !ints with
    | Some a -> a.(k) <- id
    | None when id < 256 -> Bytes.set bytes k (Char.chr id)
    | None ->
      let a = Array.make n 0 in
      for j = 0 to k - 1 do
        a.(j) <- Char.code (Bytes.get bytes j)
      done;
      a.(k) <- id;
      ints := Some a
  in
  let reps = ref [] and next = ref 0 in
  let has_float = ref false and has_wide_int = ref false in
  List.iteri
    (fun k row ->
      let x = Tuple.get row i in
      (match x with
      | Value.Float _ -> has_float := true
      | Value.Int n when Value.wide_int n -> has_wide_int := true
      | _ -> ());
      match Value.Tbl.find_opt tbl x with
      | Some id -> set k id
      | None ->
        Value.Tbl.add tbl x !next;
        reps := x :: !reps;
        set k !next;
        incr next)
    rows;
  {
    ids = (match !ints with Some a -> Int_ids a | None -> Byte_ids bytes);
    reps = Array.of_list (List.rev !reps);
    has_float = !has_float;
    has_wide_int = !has_wide_int;
  }

let floats r i =
  check_column r i;
  derived r
    (fun s -> slot s.floats i)
    (fun s c -> { s with floats = with_slot r s.floats i c })
    (fun () -> build_floats r.rows i)

let dict r i =
  check_column r i;
  derived r
    (fun s -> slot s.dicts i)
    (fun s c -> { s with dicts = with_slot r s.dicts i c })
    (fun () -> build_dict r.rows i)

let id d k =
  match d.ids with Byte_ids b -> Char.code (Bytes.get b k) | Int_ids a -> a.(k)

let release r = Atomic.set r.slots no_slots

let has_floats r i = slot (Atomic.get r.slots).floats i <> None
let has_dict r i = slot (Atomic.get r.slots).dicts i <> None

(* A restriction's positions and rows, in order: the list is built
   backwards and reversed, garbage rather than a row array kept with the
   origin version. *)
let restriction r base pos rev_rows = restricted r.schema base (List.rev rev_rows) pos

let restrict p r =
  let base, at = source r in
  if not (stored base) then select p r
  else begin
    let n = cardinality r in
    let keep = Bytes.make n '\000' and m = ref 0 and kept = ref [] in
    List.iteri
      (fun k t ->
        if p t then begin
          Bytes.unsafe_set keep k '\001';
          kept := t :: !kept;
          incr m
        end)
      r.rows;
    let pos = Array.make !m 0 and j = ref 0 in
    for k = 0 to n - 1 do
      if Bytes.unsafe_get keep k <> '\000' then begin
        pos.(!j) <- at k;
        incr j
      end
    done;
    restriction r base pos !kept
  end

(* A group's number is the first-appearance rank of its key. On one
   attribute that is a rank per dictionary id; on several, rows are
   renumbered one attribute at a time, a row's new number being the rank
   of (its number so far, its id). The ids are the source version's, read
   at the rows' positions there, and every group is a restriction of that
   version. *)
let group_by r attrs =
  let idx = List.map (Schema.index_of_exn r.schema) attrs in
  let n = cardinality r in
  let base, at = source r in
  let restricting = stored base in
  let base, at = if restricting then (base, at) else (r, Fun.id) in
  let group_of, groups =
    match idx with
    | [ i ] ->
      let d = dict base i in
      let rank = Array.make (Array.length d.reps) (-1) and next = ref 0 in
      for k = 0 to n - 1 do
        let x = id d (at k) in
        if rank.(x) < 0 then begin
          rank.(x) <- !next;
          incr next
        end
      done;
      ((fun k -> rank.(id d (at k))), !next)
    | _ ->
      let gid = Array.make n 0 in
      let groups =
        List.fold_left
          (fun groups i ->
            let d = dict base i in
            let width = Array.length d.reps in
            let next = ref 0 in
            let renumber find add =
              for k = 0 to n - 1 do
                let key = (gid.(k) * width) + id d (at k) in
                match find key with
                | Some g -> gid.(k) <- g
                | None ->
                  add key !next;
                  gid.(k) <- !next;
                  incr next
              done
            in
            (if groups * width <= (4 * n) + 64 then
               let tbl = Array.make (groups * width) (-1) in
               renumber
                 (fun key -> if tbl.(key) < 0 then None else Some tbl.(key))
                 (fun key g -> tbl.(key) <- g)
             else
               let tbl = Hashtbl.create 64 in
               renumber (Hashtbl.find_opt tbl) (Hashtbl.add tbl));
            !next)
          (if n = 0 then 0 else 1)
          idx
      in
      (Array.get gid, groups)
  in
  let sizes = Array.make groups 0 in
  for k = 0 to n - 1 do
    let g = group_of k in
    sizes.(g) <- sizes.(g) + 1
  done;
  let pos = Array.map (fun m -> Array.make m 0) sizes in
  let buckets = Array.make groups [] in
  Array.fill sizes 0 groups 0;
  List.iteri
    (fun k row ->
      let g = group_of k in
      pos.(g).(sizes.(g)) <- at k;
      sizes.(g) <- sizes.(g) + 1;
      buckets.(g) <- row :: buckets.(g))
    r.rows;
  Array.to_list
    (Array.mapi
       (fun g p ->
         if restricting then restriction r base p buckets.(g)
         else v r.schema (List.rev buckets.(g)))
       pos)

let sort_by cmp r = v r.schema (List.sort cmp r.rows)

(* the same rows under other names: the key columns stay valid *)
let rename_schema r schema' =
  if Schema.arity schema' <> Schema.arity r.schema then
    invalid_arg "Relation.rename_schema: arity mismatch";
  { r with schema = schema' }

let product a b =
  let schema = Schema.union a.schema b.schema in
  if Schema.arity schema <> Schema.arity a.schema + Schema.arity b.schema then
    invalid_arg "Relation.product: overlapping column names";
  let rows =
    List.concat_map
      (fun ra ->
        List.map (fun rb -> Array.append ra rb) b.rows)
      a.rows
  in
  v schema rows

let hash_join a b ~left_cols ~right_cols =
  if List.length left_cols <> List.length right_cols || left_cols = [] then
    invalid_arg "Relation.hash_join: key column lists must match and be non-empty";
  let left_idx = List.map (Schema.index_of_exn a.schema) left_cols in
  let right_idx = List.map (Schema.index_of_exn b.schema) right_cols in
  let schema = Schema.union a.schema b.schema in
  if Schema.arity schema <> Schema.arity a.schema + Schema.arity b.schema then
    invalid_arg "Relation.hash_join: overlapping column names";
  (* keys compare by Value.equal: ints and floats join numerically *)
  let key idxs row = Array.of_list (List.map (Tuple.get row) idxs) in
  let tbl = Tuple.Tbl.create (List.length b.rows) in
  List.iter
    (fun rb ->
      let k = key right_idx rb in
      Tuple.Tbl.replace tbl k
        (rb :: Option.value (Tuple.Tbl.find_opt tbl k) ~default:[]))
    b.rows;
  let rows =
    List.concat_map
      (fun ra ->
        (* null keys never join, as in SQL *)
        if List.exists (fun i -> Value.is_null (Tuple.get ra i)) left_idx then []
        else
          match Tuple.Tbl.find_opt tbl (key left_idx ra) with
          | Some matches ->
            List.rev_map (fun rb -> Array.append ra rb) matches
          | None -> [])
      a.rows
  in
  v schema rows

let column r name =
  let i = Schema.index_of_exn r.schema name in
  List.map (fun row -> Tuple.get row i) r.rows

let fold f init r = List.fold_left f init r.rows

let pp ppf r =
  Fmt.pf ppf "%a [%d rows]" Schema.pp r.schema (cardinality r)

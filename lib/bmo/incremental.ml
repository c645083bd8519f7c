open Pref_relation

(* Incremental maintenance of sigma[P](R) under inserts and deletes: the
   one maintenance rule and the cone lemma behind its delete half are in
   the .mli.  The maintained structure keeps the non-result tuples as its
   shadow, the domain of the delete cone.  Every operation is a linear
   scan with no index, and a delete of a best match tests the closure
   against every shadow row and runs BNL over d's cone: on a large cone
   that nears a recomputation.  The result cache runs the same rule over
   row positions with the keyed test instead (Cache.on_delete). *)

type delta = { added : Tuple.t list; removed : Tuple.t list }

let no_delta = { added = []; removed = [] }

(* the first element [same] matches, and the list without it *)
let take_first same l =
  let rec go acc = function
    | [] -> None
    | x :: rest -> if same x then Some (x, List.rev_append acc rest) else go (x :: acc) rest
  in
  go [] l

let remove_first same l =
  match take_first same l with Some (_, rest) -> rest | None -> l

let insert_rule dominates ~result row =
  if List.exists (fun r -> dominates r row) result then None
  else
    let evicted, kept = List.partition (fun r -> dominates row r) result in
    Some (kept, evicted)

(* By the cone lemma every dominator of a cone point in the new version is
   a cone point or a kept point, so the cone's maxima screened against
   [kept] are exactly the promoted points. The cone is never built: the
   domain pass feeds it through a BNL window (a point a window point
   dominates is dropped, one that enters evicts those it dominates),
   which ends holding the cone's maxima, newest first; then the few
   maxima are screened against [kept]. *)
let delete_rule dominates ~same ~result ~domain =
  match take_first same result with
  | None -> None
  | Some (hit, kept) ->
    let window = ref [] in
    domain (fun s ->
        if dominates hit s && not (List.exists (fun w -> dominates w s) !window)
        then window := s :: List.filter (fun w -> not (dominates s w)) !window);
    let promoted =
      List.filter
        (fun s -> not (List.exists (fun u -> dominates u s) kept))
        (List.rev !window)
    in
    Some (kept, hit, promoted)

type t = {
  schema : Schema.t;
  dominates : Dominance.t;
  mutable result : Tuple.t list;  (** current sigma[P](R), oldest first *)
  mutable shadow : Tuple.t list;  (** the dominated tuples *)
}

let create schema pref rows =
  let dominates = Dominance.of_pref schema pref in
  (* one window pass splits the rows into their maxima and the rest *)
  let arr = Array.of_list rows in
  let survives = Array.make (Array.length arr) false in
  Array.iter (fun i -> survives.(i) <- true) (Bnl.window dominates arr).survivors;
  let result = ref [] and shadow = ref [] in
  for i = Array.length arr - 1 downto 0 do
    if survives.(i) then result := arr.(i) :: !result
    else shadow := arr.(i) :: !shadow
  done;
  { schema; dominates; result = !result; shadow = !shadow }

let result t = Relation.make t.schema t.result
let size t = List.length t.result
let cardinality t = List.length t.result + List.length t.shadow

let insert_delta t row =
  match insert_rule t.dominates ~result:t.result row with
  | None ->
    t.shadow <- row :: t.shadow;
    no_delta
  | Some (kept, evicted) ->
    t.result <- kept @ [ row ];
    t.shadow <- evicted @ t.shadow;
    { added = [ row ]; removed = evicted }

let insert t row = ignore (insert_delta t row)

(* [l] without [sub], whose elements sit in [l] physically and in this
   order: one walk, one occurrence of [l] per element of [sub] *)
let drop_subsequence sub l =
  let rec go acc sub l =
    match sub, l with
    | [], _ -> List.rev_append acc l
    | s :: sub', x :: l' -> if x == s then go acc sub' l' else go (x :: acc) sub l'
    | _ :: _, [] -> invalid_arg "Incremental.drop_subsequence"
  in
  go [] sub l

let delete_delta t row =
  match
    delete_rule t.dominates ~same:(Tuple.equal row) ~result:t.result
      ~domain:(fun visit -> List.iter visit t.shadow)
  with
  | Some (kept, hit, promoted) ->
    t.result <- kept @ promoted;
    (* the promoted rows are shadow rows, in shadow order *)
    t.shadow <- drop_subsequence promoted t.shadow;
    Some { added = promoted; removed = [ hit ] }
  | None -> (
    match take_first (Tuple.equal row) t.shadow with
    | Some (_, shadow) ->
      t.shadow <- shadow;
      Some no_delta
    | None -> None)

let delete t row = Option.is_some (delete_delta t row)

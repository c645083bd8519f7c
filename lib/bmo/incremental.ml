open Pref_relation

(* Incremental maintenance of sigma[P](R) under inserts and deletes: the
   one maintenance rule and the cone lemma behind its delete half are in
   the .mli.  The maintained structure keeps the non-result tuples as its
   shadow, the domain of the delete cone.  All operations are linear
   scans (no index), already far cheaper than recomputation. *)

type delta = { added : Tuple.t list; removed : Tuple.t list }

let no_delta = { added = []; removed = [] }

(* remove the first element [same] matches *)
let remove_first same l =
  let rec go acc = function
    | [] -> List.rev acc
    | x :: rest -> if same x then List.rev_append acc rest else go (x :: acc) rest
  in
  go [] l

let insert_rule dominates ~result row =
  if List.exists (fun r -> dominates r row) result then (result, no_delta)
  else
    let evicted, kept = List.partition (fun r -> dominates row r) result in
    (kept @ [ row ], { added = [ row ]; removed = evicted })

let delete_rule dominates ~result ~domain row =
  match List.find_opt (Tuple.equal row) result with
  | None -> None
  | Some hit ->
    let kept = remove_first (fun r -> r == hit) result in
    let promoted =
      List.filter
        (fun s ->
          dominates row s && not (List.exists (fun u -> dominates u s) kept))
        domain
      |> Bnl.maxima dominates
    in
    Some (kept @ promoted, { added = promoted; removed = [ hit ] })

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
  let result, d = insert_rule t.dominates ~result:t.result row in
  t.result <- result;
  t.shadow <- (if d.added = [] then [ row ] else d.removed) @ t.shadow;
  d

let insert t row = ignore (insert_delta t row)

let delete_delta t row =
  match delete_rule t.dominates ~result:t.result ~domain:t.shadow row with
  | Some (result, d) ->
    t.result <- result;
    t.shadow <-
      List.fold_left (fun sh p -> remove_first (fun s -> s == p) sh) t.shadow d.added;
    Some d
  | None ->
    if List.exists (Tuple.equal row) t.shadow then begin
      t.shadow <- remove_first (Tuple.equal row) t.shadow;
      Some no_delta
    end
    else None

let delete t row = Option.is_some (delete_delta t row)

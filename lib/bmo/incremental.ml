open Pref_relation

(* Incremental maintenance of sigma[P](R) under inserts and deletes.

   BMO results are non-monotonic (Example 9): an insert can both add to and
   evict from the result, and a delete can resurrect previously dominated
   tuples.  The classic approach keeps the non-result tuples around:

   - insert t: if some result tuple dominates t, t goes to the shadow;
     otherwise t enters the result and evicts the result tuples it
     dominates (they move to the shadow).
   - delete t: removing a shadow tuple changes nothing; removing a result
     tuple may promote shadow tuples that were only dominated by it —
     those are re-screened against the remaining rows.

   All operations are linear scans (no index), which is already far cheaper
   than recomputation for the common case. *)

type t = {
  schema : Schema.t;
  dominates : Dominance.t;
  mutable result : Tuple.t list;  (** current sigma[P](R), newest first *)
  mutable shadow : Tuple.t list;  (** dominated tuples, newest first *)
}

(* One window pass splits rows into their maxima and the rest, both in
   input order. *)
let split dominates rows =
  let arr = Array.of_list rows in
  let survives = Array.make (Array.length arr) false in
  Array.iter (fun i -> survives.(i) <- true) (Bnl.window dominates arr).survivors;
  let maxima = ref [] and rest = ref [] in
  for i = Array.length arr - 1 downto 0 do
    if survives.(i) then maxima := arr.(i) :: !maxima
    else rest := arr.(i) :: !rest
  done;
  (!maxima, !rest)

let create schema pref rows =
  let dominates = Dominance.of_pref schema pref in
  let result, shadow = split dominates rows in
  { schema; dominates; result; shadow }

let of_parts schema pref ~result ~shadow =
  (* trusts the caller's split (e.g. a cached BMO set plus the rest of the
     relation) instead of recomputing the maxima from scratch *)
  { schema; dominates = Dominance.of_pref schema pref; result; shadow }

let result t = Relation.make t.schema (List.rev t.result)
let size t = List.length t.result
let cardinality t = List.length t.result + List.length t.shadow

type delta = { added : Tuple.t list; removed : Tuple.t list }

let no_delta = { added = []; removed = [] }

let insert_delta t row =
  if List.exists (fun r -> t.dominates r row) t.result then begin
    (* dominated on arrival *)
    t.shadow <- row :: t.shadow;
    no_delta
  end
  else begin
    let evicted, kept = List.partition (fun r -> t.dominates row r) t.result in
    t.result <- row :: kept;
    t.shadow <- evicted @ t.shadow;
    { added = [ row ]; removed = evicted }
  end

let insert t row = ignore (insert_delta t row)

let delete_delta t row =
  let removed_from_result = List.exists (Tuple.equal row) t.result in
  let remove l =
    (* remove one occurrence *)
    let rec go acc = function
      | [] -> List.rev acc
      | x :: rest ->
        if Tuple.equal x row then List.rev_append acc rest else go (x :: acc) rest
    in
    go [] l
  in
  if removed_from_result then begin
    t.result <- remove t.result;
    (* shadow tuples may only have been dominated by the removed tuple.
       Screening against the remaining maxima suffices: every dominance
       chain in an SPO ends in a maximal element, so a tuple dominated by
       anything is dominated by a survivor of the result or by another
       promotion candidate — the candidates' own maxima settle the rest. *)
    let candidates, still_shadow =
      List.partition
        (fun s -> not (List.exists (fun u -> t.dominates u s) t.result))
        t.shadow
    in
    let promoted, demoted = split t.dominates candidates in
    t.result <- promoted @ t.result;
    t.shadow <- demoted @ still_shadow;
    Some { added = promoted; removed = [ row ] }
  end
  else if List.exists (Tuple.equal row) t.shadow then begin
    t.shadow <- remove t.shadow;
    Some no_delta
  end
  else None

let delete t row = Option.is_some (delete_delta t row)

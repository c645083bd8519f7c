(* The answer oracle: reference answers computed in-process with the
   naive evaluator, cache off and no deadline, compared with the wire
   answers as row multisets.

   Every table version the workloads produce is the base table B plus a
   small set S of live generated rows. Winnow commutes with union
   (σ[P](B ∪ S) = σ[P](σ[P](B) ∪ S)), per group under GROUPING, and
   WHERE and BUT ONLY filter single rows, so the statement over B ∪ S
   answers the same as the statement over core(B) ∪ S, where core(B) is
   the statement's winnow over B with TOP, ORDER BY, BUT ONLY and the
   projection removed. The naive pass over the whole base table then
   runs once per statement, not once per version. *)

open Pref_relation
open Pref_sql

let naive_cfg =
  {
    Pref_bmo.Engine.default with
    algorithm = Pref_bmo.Engine.Alg_naive;
    cache = false;
    check = false;
    deadline_ms = None;
    max_rows = None;
  }

(* An order-independent multiset fingerprint of a relation, over the wire
   rendering of its values. *)
type fp = { rows : int; h1 : int; h2 : int; schema : string }

let row_key row =
  String.concat "\x1f" (List.map Pref_server.Protocol.value_wire (Tuple.to_list row))

let fingerprint_rows schema rows =
  let h1, h2 =
    List.fold_left
      (fun (a, b) row ->
        let k = row_key row in
        ((a + Hashtbl.hash k) land max_int, (b + Hashtbl.seeded_hash 17 k) land max_int))
      (0, 0) rows
  in
  {
    rows = List.length rows;
    h1;
    h2;
    schema =
      String.concat ","
        (List.map (fun (n, ty) -> n ^ ":" ^ Value.ty_to_string ty) schema);
  }

let fingerprint rel = fingerprint_rows (Relation.schema rel) (Relation.rows rel)

type t = {
  base : Relation.t;
  cores : (string, Tuple.t list) Hashtbl.t;
  answers : (string * int, Relation.t) Hashtbl.t;
  m : Mutex.t;
}

let create base =
  { base; cores = Hashtbl.create 64; answers = Hashtbl.create 256; m = Mutex.create () }

let core_sql sql =
  let q = Parser.parse_query sql in
  Pretty.query_to_string
    { q with Ast.select = [ Ast.Star ]; top = None; order_by = []; but_only = [] }

let naive_core base sql =
  Relation.rows (Exec.run_cfg naive_cfg [ (Gen.table, base) ] (core_sql sql)).Exec.relation

(* The naive pass costs |R|² dominance tests; on the session pool's
   thousands of statements that is minutes per run. For an ungrouped
   statement, take BNL's cache-off answer as a candidate and check it
   against Definition 15 exhaustively instead: no row of the input
   dominates a candidate, and every other row is dominated by a candidate
   (enough, as dominance is transitive). That is 2·|R|·|answer| tests of
   the term's own better-than relation, unrewritten, over projections; a
   candidate that fails falls back to the naive pass. *)
module Rows = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

let bnl_cfg = { naive_cfg with Pref_bmo.Engine.algorithm = Pref_bmo.Engine.Alg_bnl }

let checked_core base sql =
  let q = Parser.parse_query sql in
  match (q.Ast.grouping, Exec.full_preference q) with
  | [], Some p ->
    let core = core_sql sql in
    let input =
      match q.Ast.where with
      | None -> Relation.rows base
      | Some c -> List.filter (Translate.condition (Relation.schema base) c) (Relation.rows base)
    in
    let candidate =
      Relation.rows (Exec.run_cfg bnl_cfg [ (Gen.table, base) ] core).Exec.relation
    in
    let v = Pref_bmo.Dominance.of_pref_vec (Relation.schema base) p in
    let proj rows = Array.of_list (List.map (fun t -> (t, v.Pref_bmo.Dominance.project t)) rows) in
    let better = v.Pref_bmo.Dominance.better in
    let input = proj input and cand = proj candidate in
    let keys = Rows.create 64 in
    Array.iter (fun (r, _) -> Rows.replace keys r ()) cand;
    let maximal (_, c) = not (Array.exists (fun (_, u) -> better u c) input) in
    let covered (t, x) = Rows.mem keys t || Array.exists (fun (_, c) -> better c x) cand in
    if Array.for_all maximal cand && Array.for_all covered input then candidate
    else naive_core base sql
  | _ -> naive_core base sql

let core t sql =
  match Hashtbl.find_opt t.cores sql with
  | Some rows -> rows
  | None ->
    let rows = checked_core t.base sql in
    Hashtbl.replace t.cores sql rows;
    rows

(* Compute the cores of [sqls] not yet known, spread over the cores of
   the machine: they are the oracle's whole cost. *)
let precompute t sqls =
  let todo =
    List.sort_uniq compare (List.filter (fun sql -> not (Hashtbl.mem t.cores sql)) sqls)
  in
  let workers = max 1 (min 4 (Domain.recommended_domain_count ())) in
  let share k = List.filteri (fun i _ -> i mod workers = k) todo in
  let results =
    List.map Domain.join
      (List.init workers (fun k ->
           Domain.spawn (fun () -> List.map (fun sql -> (sql, checked_core t.base sql)) (share k))))
  in
  List.iter (List.iter (fun (sql, rows) -> Hashtbl.replace t.cores sql rows)) results;
  List.length todo

(* The reference answer of [sql] over the base table plus [live], the
   live generated rows of table version [version]. *)
let answer t ~version ~live sql =
  Mutex.protect t.m @@ fun () ->
  match Hashtbl.find_opt t.answers (sql, version) with
  | Some r -> r
  | None ->
    let rows = core t sql @ live in
    let env = [ (Gen.table, Relation.make (Relation.schema t.base) rows) ] in
    let r = (Exec.run_cfg naive_cfg env sql).Exec.relation in
    Hashtbl.replace t.answers (sql, version) r;
    r

(* Live generated rows after each acknowledged DML: element [k] is the
   set of table version [k] (version 0 is the base table). *)
let versions dml_ops =
  let step live = function
    | Gen.Insert r -> live @ [ r ]
    | Gen.Delete r ->
      let rec drop = function
        | [] -> []
        | x :: rest -> if Tuple.equal x r then rest else x :: drop rest
      in
      drop live
    | Gen.Query _ | Gen.Refine _ -> live
  in
  let _, acc =
    List.fold_left (fun (live, acc) op -> let l = step live op in (l, l :: acc)) ([], [ [] ]) dml_ops
  in
  Array.of_list (List.rev acc)

(* The multiset difference [a - b]. *)
let minus a b =
  let counts = Hashtbl.create 64 in
  List.iter (fun r -> let k = row_key r in Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))) b;
  List.filter
    (fun r ->
      let k = row_key r in
      match Hashtbl.find_opt counts k with
      | Some c when c > 0 ->
        Hashtbl.replace counts k (c - 1);
        false
      | _ -> true)
    a

(* The subscription's expected delta at each acknowledged DML:
   [(added, removed)] between consecutive reference answers. *)
let expected_deltas t live_by_version =
  List.init
    (Array.length live_by_version - 1)
    (fun k ->
      let before = Relation.rows (answer t ~version:k ~live:live_by_version.(k) Gen.subscription) in
      let after =
        Relation.rows (answer t ~version:(k + 1) ~live:live_by_version.(k + 1) Gen.subscription)
      in
      (minus after before, minus before after))

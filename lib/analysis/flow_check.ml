open Preferences
open Pref_relation
open Pref_sql

(* ------------------------------------------------------------------ *)
(* W210: unsatisfiable WHERE conjunctions                              *)

(* Interval/set facts accumulated per attribute from the top-level
   conjuncts. Opaque conjuncts (OR, NOT, LIKE, NULL tests, attribute
   comparisons) are simply skipped: a contradiction among a subset of
   conjuncts already makes the whole conjunction unsatisfiable. *)
type facts = {
  mutable lo : (float * bool) option;  (** strongest lower bound, strict? *)
  mutable hi : (float * bool) option;  (** strongest upper bound, strict? *)
  mutable eqs : Value.t list;  (** equality constraints *)
  mutable sets : Value.t list list;  (** IN sets *)
}

let where_unsat (cond : Ast.condition) =
  let tbl : (string, facts) Hashtbl.t = Hashtbl.create 8 in
  let facts a =
    match Hashtbl.find_opt tbl a with
    | Some f -> f
    | None ->
      let f = { lo = None; hi = None; eqs = []; sets = [] } in
      Hashtbl.add tbl a f;
      f
  in
  let tighten_lo f v strict =
    match f.lo with
    | Some (v0, s0) when v0 > v || (v0 = v && s0) -> ignore strict
    | _ -> f.lo <- Some (v, strict)
  in
  let tighten_hi f v strict =
    match f.hi with
    | Some (v0, s0) when v0 < v || (v0 = v && s0) -> ignore strict
    | _ -> f.hi <- Some (v, strict)
  in
  List.iter
    (fun c ->
      match (c : Ast.condition) with
      | Ast.Cmp (a, Ast.Eq, v) ->
        let f = facts a in
        f.eqs <- v :: f.eqs
      | Ast.Cmp (a, op, v) -> (
        match (Value.as_float v, op) with
        | Some x, Ast.Lt -> tighten_hi (facts a) x true
        | Some x, Ast.Le -> tighten_hi (facts a) x false
        | Some x, Ast.Gt -> tighten_lo (facts a) x true
        | Some x, Ast.Ge -> tighten_lo (facts a) x false
        | _ -> ())
      | Ast.Between_cond (a, l, u) -> (
        match (Value.as_float l, Value.as_float u) with
        | Some fl, Some fu ->
          let f = facts a in
          tighten_lo f fl false;
          tighten_hi f fu false
        | _ -> ())
      | Ast.In (a, vs) ->
        let f = facts a in
        f.sets <- vs :: f.sets
      | _ -> ())
    (Ast.conjuncts cond);
  let pp_vals vs = String.concat ", " (List.map Value.to_string vs) in
  let contradiction = ref None in
  let found reason = if !contradiction = None then contradiction := Some reason in
  Hashtbl.iter
    (fun a f ->
      (* conflicting equalities *)
      (match f.eqs with
      | v1 :: rest -> (
        match List.find_opt (fun v -> not (Value.equal v v1)) rest with
        | Some v2 ->
          found
            (Printf.sprintf "%s = %s contradicts %s = %s" a
               (Value.to_string v1) a (Value.to_string v2))
        | None -> ())
      | [] -> ());
      (* an equality outside an IN set *)
      List.iter
        (fun v ->
          List.iter
            (fun set ->
              if not (List.exists (Value.equal v) set) then
                found
                  (Printf.sprintf "%s = %s is outside %s IN (%s)" a
                     (Value.to_string v) a (pp_vals set)))
            f.sets)
        f.eqs;
      (* disjoint IN sets *)
      (match f.sets with
      | s1 :: rest ->
        List.iter
          (fun s2 ->
            if
              not
                (List.exists
                   (fun v -> List.exists (Value.equal v) s2)
                   s1)
            then
              found
                (Printf.sprintf "%s IN (%s) and %s IN (%s) are disjoint" a
                   (pp_vals s1) a (pp_vals s2)))
          rest
      | [] -> ());
      (* empty numeric range *)
      (match (f.lo, f.hi) with
      | Some (lo, ls), Some (hi, hs) when lo > hi || (lo = hi && (ls || hs))
        ->
        found
          (Printf.sprintf "the bounds on %s leave the empty range %c%g, %g%c"
             a
             (if ls then '(' else '[')
             lo hi
             (if hs then ')' else ']'))
      | _ -> ());
      (* equalities vs bounds *)
      List.iter
        (fun v ->
          match Value.as_float v with
          | None -> ()
          | Some x ->
            let below =
              match f.lo with
              | Some (lo, strict) -> x < lo || (x = lo && strict)
              | None -> false
            and above =
              match f.hi with
              | Some (hi, strict) -> x > hi || (x = hi && strict)
              | None -> false
            in
            if below || above then
              found
                (Printf.sprintf "%s = %s violates the range bounds on %s" a
                   (Value.to_string v) a))
        f.eqs)
    tbl;
  !contradiction

(* ------------------------------------------------------------------ *)
(* Data lints                                                          *)

let pairwise_distinct schema attrs rows =
  let rec go = function
    | [] | [ _ ] -> true
    | x :: rest ->
      List.for_all (fun y -> not (Tuple.equal_on schema attrs x y)) rest
      && go rest
  in
  go rows

(* Cap for the O(n^2) distinctness scan of W220. *)
let max_scan_rows = 512

let data_findings ?registry ~env (q : Ast.query) =
  let diags = ref [] in
  let emit ?fixit path code message =
    diags := Diagnostic.make ~path ?fixit code message :: !diags
  in
  (* W212: loaded but empty FROM tables *)
  List.iter
    (fun t ->
      match Exec.find_table env t with
      | Some rel when Relation.is_empty rel ->
        emit [ "from" ] "W212"
          (Printf.sprintf
             "table %S is empty: the query returns no rows whatever the \
              preference"
             t)
      | _ -> ())
    q.Ast.from;
  (* W210: contradictory WHERE *)
  (match q.Ast.where with
  | Some c -> (
    match where_unsat c with
    | Some reason ->
      emit [ "where" ] "W210"
        (Printf.sprintf
           "WHERE is unsatisfiable (%s): the result is empty on every input"
           reason)
    | None -> ())
  | None -> ());
  (* single-table preference lints against the loaded data *)
  (match q.Ast.from with
  | [ t ] -> (
    match Exec.find_table env t with
    | Some rel when Relation.cardinality rel >= 2 -> (
      let schema = Relation.schema rel in
      let full =
        try Exec.full_preference ?registry q with _ -> None
      in
      match full with
      | None -> ()
      | Some p ->
        (* W211: σ[P] provably returns every row. The Constraints proof
           is a ∀-statement over rows, so it survives WHERE filtering and
           GROUPING splits of this relation. BUT ONLY still evaluates
           levels/distances, so it keeps the preference meaningful. *)
        (if q.Ast.but_only = [] then
           match (try Constraints.redundant schema p rel with _ -> None) with
           | Some reason ->
             emit [ "preferring" ] "W211"
               (Printf.sprintf
                  "the preference never discriminates on %S (%s): the \
                   winnow returns every row"
                  t reason)
           | None -> ());
        (* W220: a prioritisation prefix that already identifies rows *)
        let rows = Relation.rows rel in
        let spine = Canon.prior_spine p in
        if
          List.length spine >= 2
          && List.length rows <= max_scan_rows
        then begin
          let rec scan i seen = function
            | [] -> ()
            | op :: rest ->
              let seen = Attr.union seen (Pref.attrs op) in
              if rest = [] then ()
              else if
                List.for_all (fun a -> Schema.mem schema a) seen
                && pairwise_distinct schema seen rows
              then
                emit [ "preferring" ] "W220"
                  (Printf.sprintf
                     "the prioritisation prefix {%s} (operands 0..%d) \
                      already identifies every row of %S: the %d later \
                      operand(s) never discriminate on this data \
                      (Prop. 4a, per row)"
                     (String.concat ", " seen) i t (List.length rest))
              else scan (i + 1) seen rest
          in
          scan 0 [] spine
        end)
    | _ -> ())
  | _ -> ());
  !diags

let check_query ?registry ~env (q : Ast.query) =
  let base = Ast_check.check_query ?registry ~env q in
  if Diagnostic.has_errors base then base
  else base @ data_findings ?registry ~env q

let check_source ?registry ~env src =
  match Parser.parse_query src with
  | q -> check_query ?registry ~env q
  | exception Parser.Error (msg, pos) ->
    [
      Diagnostic.make ~path:[ "source" ] "E111"
        (Printf.sprintf "parse error at offset %d: %s" pos msg);
    ]
  | exception Lexer.Error (msg, pos) ->
    [
      Diagnostic.make ~path:[ "source" ] "E111"
        (Printf.sprintf "lex error at offset %d: %s" pos msg);
    ]

(* ------------------------------------------------------------------ *)
(* Workload mode                                                       *)

(* [SET knob value] is session syntax (shell [\set], wire [SET]); a
   workload file interleaves it with queries, so recognise it textually
   before SQL parsing. *)
let parse_set src =
  let words =
    String.split_on_char ' '
      (String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) (String.trim src))
    |> List.filter (fun w -> w <> "")
  in
  match words with
  | s :: key :: rest when String.lowercase_ascii s = "set" ->
    let value =
      match rest with
      | "=" :: tail -> String.concat " " tail
      | tail -> String.concat " " tail
    in
    Some (String.lowercase_ascii key, value)
  | _ -> None

type entry = {
  label : string;
  kind : [ `Set of string * string | `Query of Ast.query | `Opaque ];
  mutable found : Diagnostic.t list;
}

(* Canonical signature of the preference-free part of a statement. *)
let base_signature (q : Ast.query) =
  Pretty.query_to_string { q with Ast.preferring = None; cascade = [] }

let spine_keys ?registry (q : Ast.query) =
  match (try Exec.full_preference ?registry q with _ -> None) with
  | None -> None
  | Some p -> Some (List.map Canon.key (Canon.prior_spine p))

(* Whether the result cache's prior-prefix tier derives the new term's
   BMO set from the old one's cached result — decided by the revision
   classifier a session's REFINE labels with.  A Pareto extension gets no
   hint: its reuse is unsound in general and, where the pareto-restrict
   tier applies, usually refused by its cost gate. *)
let prior_prefix_reuse ~old_p ~new_p =
  Pref_engine.Revise.classify ~old_p ~new_p = Pref_engine.Revise.Prior_suffix

let check_statements ?registry ~env labeled =
  let entries =
    List.map
      (fun (label, text) ->
        match parse_set text with
        | Some (key, value) ->
          let found =
            match
              Pref_bmo.Engine.set Pref_bmo.Engine.default ~key ~value
            with
            | Ok _ -> []
            | Error msg ->
              [
                Diagnostic.make ~path:[ "set" ] "E210"
                  (Printf.sprintf "SET %s: %s" key msg);
              ]
          in
          { label; kind = `Set (key, value); found }
        | None -> (
          match Parser.parse_query text with
          | q -> { label; kind = `Query q; found = check_query ?registry ~env q }
          | exception _ ->
            { label; kind = `Opaque; found = check_source ?registry ~env text }
          ))
      labeled
  in
  let arr = Array.of_list entries in
  let n = Array.length arr in
  (* SET liveness: a knob set and overwritten before any query is dead;
     a SET to the value already in effect is redundant. *)
  let pending : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let effective : (string, string) Hashtbl.t = Hashtbl.create 8 in
  for i = 0 to n - 1 do
    match arr.(i).kind with
    | `Query _ | `Opaque -> Hashtbl.reset pending
    | `Set (key, value) ->
      (match Hashtbl.find_opt pending key with
      | Some j ->
        arr.(j).found <-
          Diagnostic.make ~path:[ "set" ] "W222"
            (Printf.sprintf
               "dead SET: %s is overwritten by %s before any query runs" key
               arr.(i).label)
          :: arr.(j).found
      | None -> ());
      (match Hashtbl.find_opt effective key with
      | Some v
        when String.lowercase_ascii v = String.lowercase_ascii value
             && not (Hashtbl.mem pending key) ->
        arr.(i).found <-
          Diagnostic.make ~path:[ "set" ] "W222"
            (Printf.sprintf "redundant SET: %s is already %s" key value)
          :: arr.(i).found
      | _ -> ());
      Hashtbl.replace pending key i;
      Hashtbl.replace effective key value
  done;
  (* repeated / refining statements *)
  let seen = ref [] in
  for i = 0 to n - 1 do
    match arr.(i).kind with
    | `Set _ | `Opaque -> ()
    | `Query q ->
      let base = base_signature q in
      let spine = spine_keys ?registry q in
      let pref = try Exec.full_preference ?registry q with _ -> None in
      let plain =
        q.Ast.but_only = [] && q.Ast.grouping = [] && q.Ast.top = None
      in
      let repeat =
        List.find_opt
          (fun (_, base', spine', _, _) -> base' = base && spine' = spine)
          !seen
      and refines =
        match pref with
        | None -> None
        | Some new_p ->
          List.find_map
            (fun (label', base', _, pref', plain') ->
              if not (plain && plain' && base' = base) then None
              else
                match pref' with
                | Some old_p when prior_prefix_reuse ~old_p ~new_p -> Some label'
                | _ -> None)
            !seen
      in
      (match repeat with
      | Some (label', _, _, _, _) ->
        arr.(i).found <-
          Diagnostic.make ~path:[ "source" ] "W221"
            (Printf.sprintf
               "statement repeats %s: same base query and canonically \
                identical preference"
               label')
          :: arr.(i).found
      | None -> (
        match refines with
        | Some label' ->
          arr.(i).found <-
            Diagnostic.make ~path:[ "preferring" ] "H210"
              (Printf.sprintf
                 "refines the preference of %s: the result cache's \
                  prior-prefix tier derives this BMO set from that \
                  statement's cached result alone (Prop. 10)"
                 label')
            :: arr.(i).found
        | None -> ()));
      seen := (arr.(i).label, base, spine, pref, plain) :: !seen
  done;
  Array.to_list (Array.map (fun e -> (e.label, e.found)) arr)

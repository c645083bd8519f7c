open Pref_relation
open Preferences

type event =
  | Wanted of string * Value.t
  | Rejected of string * Value.t
  | Target of string * float
  | Range of string * float * float
  | Wants_low of string
  | Wants_high of string

let event_attr = function
  | Wanted (a, _) | Rejected (a, _) | Target (a, _) | Range (a, _, _)
  | Wants_low a | Wants_high a ->
    a

(* ------------------------------------------------------------------ *)
(* Extracting events from Preference SQL queries                       *)

let rec events_of_condition (c : Pref_sql.Ast.condition) =
  match c with
  | Pref_sql.Ast.Cmp (a, Pref_sql.Ast.Eq, v) -> (
    match Value.as_float v with
    | Some f when (match v with Value.Str _ -> false | _ -> true) ->
      [ Wanted (a, v); Target (a, f) ]
    | _ -> [ Wanted (a, v) ])
  | Pref_sql.Ast.Cmp (a, Pref_sql.Ast.Neq, v) -> [ Rejected (a, v) ]
  | Pref_sql.Ast.Cmp (a, (Pref_sql.Ast.Le | Pref_sql.Ast.Lt), _) ->
    [ Wants_low a ]
  | Pref_sql.Ast.Cmp (a, (Pref_sql.Ast.Ge | Pref_sql.Ast.Gt), _) ->
    [ Wants_high a ]
  | Pref_sql.Ast.In (a, vs) -> List.map (fun v -> Wanted (a, v)) vs
  | Pref_sql.Ast.Not_in (a, vs) -> List.map (fun v -> Rejected (a, v)) vs
  | Pref_sql.Ast.Between_cond (a, low, up) -> (
    match Value.as_float low, Value.as_float up with
    | Some l, Some u -> [ Range (a, l, u) ]
    | _ -> [])
  | Pref_sql.Ast.Like _ | Pref_sql.Ast.Is_null _ | Pref_sql.Ast.Is_not_null _
  | Pref_sql.Ast.Cmp_attr _ ->
    []
  | Pref_sql.Ast.And (c1, c2) | Pref_sql.Ast.Or (c1, c2) ->
    events_of_condition c1 @ events_of_condition c2
  | Pref_sql.Ast.Not c1 ->
    (* a negated equality is a rejection; deeper negations are dropped *)
    (match c1 with
    | Pref_sql.Ast.Cmp (a, Pref_sql.Ast.Eq, v) -> [ Rejected (a, v) ]
    | Pref_sql.Ast.In (a, vs) -> List.map (fun v -> Rejected (a, v)) vs
    | _ -> [])

let rec events_of_pref (p : Pref_sql.Ast.pref) =
  match p with
  | Pref_sql.Ast.P_pos (a, vs) -> List.map (fun v -> Wanted (a, v)) vs
  | Pref_sql.Ast.P_neg (a, vs) -> List.map (fun v -> Rejected (a, v)) vs
  | Pref_sql.Ast.P_pos_pos (a, v1, v2) ->
    List.map (fun v -> Wanted (a, v)) (v1 @ v2)
  | Pref_sql.Ast.P_pos_neg (a, vs, ns) ->
    List.map (fun v -> Wanted (a, v)) vs @ List.map (fun v -> Rejected (a, v)) ns
  | Pref_sql.Ast.P_around (a, v) -> (
    match Value.as_float v with Some f -> [ Target (a, f) ] | None -> [])
  | Pref_sql.Ast.P_between (a, low, up) -> (
    match Value.as_float low, Value.as_float up with
    | Some l, Some u -> [ Range (a, l, u) ]
    | _ -> [])
  | Pref_sql.Ast.P_lowest a -> [ Wants_low a ]
  | Pref_sql.Ast.P_highest a -> [ Wants_high a ]
  | Pref_sql.Ast.P_explicit (a, edges) ->
    List.map (fun (_, better) -> Wanted (a, better)) edges
  | Pref_sql.Ast.P_score _ -> []
  | Pref_sql.Ast.P_rank (_, p1, p2)
  | Pref_sql.Ast.P_pareto (p1, p2)
  | Pref_sql.Ast.P_prior (p1, p2) ->
    events_of_pref p1 @ events_of_pref p2
  | Pref_sql.Ast.P_dual p1 -> events_of_pref p1

let events_of_query (q : Pref_sql.Ast.query) =
  let where = match q.Pref_sql.Ast.where with Some c -> events_of_condition c | None -> [] in
  let prefs =
    List.concat_map events_of_pref
      (Option.to_list q.Pref_sql.Ast.preferring @ q.Pref_sql.Ast.cascade)
  in
  where @ prefs

let events_of_log queries = List.concat_map events_of_query queries

let parse_log lines =
  List.filter_map
    (fun line ->
      let line = String.trim line in
      if line = "" || line.[0] = '#' then None
      else
        try Some (Pref_sql.Parser.parse_query line) with
        | Pref_sql.Parser.Error _ -> None)
    lines

(* ------------------------------------------------------------------ *)
(* Mining                                                              *)

type config = {
  min_support : float;  (** fraction of the attribute's events a value needs *)
  max_set_size : int;  (** cap for mined POS/NEG sets *)
}

let default_config = { min_support = 0.2; max_set_size = 4 }

type attribute_report = {
  attr : string;
  occurrences : int;
  mined : Pref.t option;
}

let count_values pairs =
  let tbl = Value.Tbl.create 16 in
  List.iter
    (fun v ->
      match Value.Tbl.find_opt tbl v with
      | Some (count, first) -> Value.Tbl.replace tbl v (count + 1, first)
      | None -> Value.Tbl.add tbl v (1, v))
    pairs;
  Value.Tbl.fold (fun _ (count, v) acc -> (count, v) :: acc) tbl []
  |> List.sort (fun (c1, v1) (c2, v2) ->
         match compare c2 c1 with 0 -> Value.compare v1 v2 | c -> c)

let frequent config total counted =
  let threshold = config.min_support *. float_of_int total in
  List.filteri
    (fun i (count, _) ->
      i < config.max_set_size && float_of_int count >= threshold)
    counted
  |> List.map snd

let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let mine_attribute ?(config = default_config) attr events =
  let mine = List.filter (fun e -> String.equal (event_attr e) attr) events in
  let total = List.length mine in
  if total = 0 then None
  else begin
    let wanted = List.filter_map (function Wanted (_, v) -> Some v | _ -> None) mine in
    let rejected =
      List.filter_map (function Rejected (_, v) -> Some v | _ -> None) mine
    in
    let targets = List.filter_map (function Target (_, f) -> Some f | _ -> None) mine in
    let ranges =
      List.filter_map (function Range (_, l, u) -> Some (l, u) | _ -> None) mine
    in
    let lows = List.filter (function Wants_low _ -> true | _ -> false) mine in
    let highs = List.filter (function Wants_high _ -> true | _ -> false) mine in
    let n_wanted = List.length wanted
    and n_rejected = List.length rejected
    and n_targets = List.length targets
    and n_ranges = List.length ranges
    and n_lows = List.length lows
    and n_highs = List.length highs in
    (* pick the dominant signal family for this attribute *)
    let categorical = n_wanted + n_rejected in
    let numeric = n_targets + n_ranges in
    let directional = n_lows + n_highs in
    if categorical >= numeric && categorical >= directional && categorical > 0
    then begin
      let pos = frequent config (max 1 n_wanted) (count_values wanted) in
      let neg =
        List.filter
          (fun v -> not (List.exists (Value.equal v) pos))
          (frequent config (max 1 n_rejected) (count_values rejected))
      in
      match pos, neg with
      | [], [] -> None
      | pos, [] -> Some (Pref.pos attr pos)
      | [], neg -> Some (Pref.neg attr neg)
      | pos, neg -> Some (Pref.pos_neg attr ~pos ~neg)
    end
    else if numeric >= directional && numeric > 0 then
      if n_ranges > n_targets then begin
        let low = mean (List.map fst ranges) and up = mean (List.map snd ranges) in
        Some (Pref.between attr ~low:(Float.min low up) ~up:(Float.max low up))
      end
      else Some (Pref.around attr (mean targets))
    else if directional > 0 then
      Some (if n_lows >= n_highs then Pref.lowest attr else Pref.highest attr)
    else None
  end

let attribute_frequencies events =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let a = event_attr e in
      Hashtbl.replace tbl a (1 + Option.value (Hashtbl.find_opt tbl a) ~default:0))
    events;
  Hashtbl.fold (fun a c acc -> (a, c) :: acc) tbl []
  |> List.sort (fun (a1, c1) (a2, c2) ->
         match compare c2 c1 with 0 -> String.compare a1 a2 | c -> c)

let mine ?(config = default_config) events =
  let freqs = attribute_frequencies events in
  let reports =
    List.map
      (fun (attr, occurrences) ->
        { attr; occurrences; mined = mine_attribute ~config attr events })
      freqs
  in
  (* attributes that are asked about more often matter more: bucket by
     frequency, Pareto within a bucket, prioritized across buckets *)
  let mined = List.filter (fun r -> r.mined <> None) reports in
  let rec buckets = function
    | [] -> []
    | r :: rest ->
      let same, others =
        List.partition (fun r' -> r'.occurrences = r.occurrences) rest
      in
      (r :: same) :: buckets others
  in
  let term =
    match mined with
    | [] -> None
    | _ ->
      let bucket_terms =
        List.map
          (fun bucket -> Pref.pareto_all (List.filter_map (fun r -> r.mined) bucket))
          (buckets mined)
      in
      Some (Pref.prior_all bucket_terms)
  in
  (term, reports)

let mine_queries ?config queries = mine ?config (events_of_log queries)

let mine_log ?config lines = mine_queries ?config (parse_log lines)

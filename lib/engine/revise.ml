open Pref_sql
module Canon = Preferences.Canon

(* Revision of the session's preference term (Chomicki, "Database
   Querying under Changing Preferences").  The classifier compares the
   old and new term through their canonical forms.  The class only
   labels the revision: the result cache's tiers decide what an earlier
   BMO set contributes (see the .mli). *)

type kind = Same | Prior_suffix | Pareto_extend | Contraction | Disjoint

let kind_to_string = function
  | Same -> "same"
  | Prior_suffix -> "prior-suffix"
  | Pareto_extend -> "pareto-extend"
  | Contraction -> "contraction"
  | Disjoint -> "disjoint"

let rec is_prefix a b =
  match (a, b) with
  | [], _ -> true
  | x :: a', y :: b' -> String.equal x y && is_prefix a' b'
  | _ :: _, [] -> false

(* multiset containment over canonical keys (Pareto operands may repeat) *)
let multiset_subset a b =
  let remove_one x l =
    let rec go acc = function
      | [] -> None
      | y :: rest ->
        if String.equal x y then Some (List.rev_append acc rest)
        else go (y :: acc) rest
    in
    go [] l
  in
  let rec go a b =
    match a with
    | [] -> true
    | x :: rest -> (
      match remove_one x b with None -> false | Some b' -> go rest b')
  in
  go a b

let classify ~old_p ~new_p =
  if Canon.equal old_p new_p then Same
  else begin
    let ospine = List.map Canon.key (Canon.prior_spine old_p) in
    let nspine = List.map Canon.key (Canon.prior_spine new_p) in
    if List.length ospine < List.length nspine && is_prefix ospine nspine then
      Prior_suffix
    else if
      List.length nspine < List.length ospine && is_prefix nspine ospine
    then Contraction
    else begin
      let opar = List.map Canon.key (Canon.pareto_operands old_p) in
      let npar = List.map Canon.key (Canon.pareto_operands new_p) in
      if List.length opar < List.length npar && multiset_subset opar npar then
        Pareto_extend
      else if
        List.length npar < List.length opar && multiset_subset npar opar
      then Contraction
      else Disjoint
    end
  end

type outcome = { o_result : Exec.result; o_kind : kind; o_plan : string }

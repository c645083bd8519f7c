type date = { year : int; month : int; day : int }

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Date of date

type ty = TBool | TInt | TFloat | TStr | TDate

let ty_to_string = function
  | TBool -> "bool"
  | TInt -> "int"
  | TFloat -> "float"
  | TStr -> "string"
  | TDate -> "date"

let pp_ty ppf ty = Fmt.string ppf (ty_to_string ty)

let type_of = function
  | Null -> None
  | Bool _ -> Some TBool
  | Int _ -> Some TInt
  | Float _ -> Some TFloat
  | Str _ -> Some TStr
  | Date _ -> Some TDate

let is_leap y = (y mod 4 = 0 && y mod 100 <> 0) || y mod 400 = 0

let days_in_month y m =
  match m with
  | 1 | 3 | 5 | 7 | 8 | 10 | 12 -> 31
  | 4 | 6 | 9 | 11 -> 30
  | 2 -> if is_leap y then 29 else 28
  | _ -> invalid_arg "Value.days_in_month"

let valid_date d =
  d.month >= 1 && d.month <= 12 && d.day >= 1 && d.day <= days_in_month d.year d.month

let date ~year ~month ~day =
  let d = { year; month; day } in
  if not (valid_date d) then invalid_arg "Value.date: invalid date";
  Date d

(* Days since a fixed epoch (proleptic Gregorian), used to give dates the
   '<' and '-' operators required by numerical base preferences. *)
let date_to_days d =
  let y = d.year and m = d.month in
  let a = (14 - m) / 12 in
  let y' = y + 4800 - a in
  let m' = m + (12 * a) - 3 in
  d.day
  + (((153 * m') + 2) / 5)
  + (365 * y')
  + (y' / 4)
  - (y' / 100)
  + (y' / 400)
  - 32045

let equal a b =
  match a, b with
  | Null, Null -> true
  | Bool a, Bool b -> a = b
  | Int a, Int b -> a = b
  | Float a, Float b -> a = b
  | Str a, Str b -> String.equal a b
  | Date a, Date b -> a = b
  | Int a, Float b | Float b, Int a -> float_of_int a = b
  | (Null | Bool _ | Int _ | Float _ | Str _ | Date _), _ -> false

let compare a b =
  match a, b with
  | Null, Null -> 0
  | Null, _ -> -1
  | _, Null -> 1
  | Bool a, Bool b -> Bool.compare a b
  | Int a, Int b -> Int.compare a b
  | Float a, Float b -> Float.compare a b
  | Int a, Float b -> Float.compare (float_of_int a) b
  | Float a, Int b -> Float.compare a (float_of_int b)
  | Str a, Str b -> String.compare a b
  | Date a, Date b -> Int.compare (date_to_days a) (date_to_days b)
  | Bool _, _ -> -1
  | _, Bool _ -> 1
  | (Int _ | Float _), _ -> -1
  | _, (Int _ | Float _) -> 1
  | Str _, _ -> -1
  | _, Str _ -> 1

let as_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Date d -> Some (float_of_int (date_to_days d))
  | Bool b -> Some (if b then 1. else 0.)
  | Null | Str _ -> None

let to_float_exn v =
  match as_float v with
  | Some f -> f
  | None -> invalid_arg "Value.to_float_exn: non-numeric value"

let wide_int i = i > 1 lsl 53 || i < -(1 lsl 53)

let is_null = function Null -> true | Bool _ | Int _ | Float _ | Str _ | Date _ -> false

let to_string = function
  | Null -> "NULL"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f ->
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
    else Printf.sprintf "%g" f
  | Str s -> s
  | Date d -> Printf.sprintf "%04d-%02d-%02d" d.year d.month d.day

let pp ppf v = Fmt.string ppf (to_string v)

let pp_quoted ppf v =
  match v with Str s -> Fmt.pf ppf "'%s'" s | _ -> pp ppf v

let parse_date s =
  let fail () = None in
  match String.split_on_char '-' s with
  | [ y; m; d ] -> (
    match int_of_string_opt y, int_of_string_opt m, int_of_string_opt d with
    | Some year, Some month, Some day ->
      let dt = { year; month; day } in
      if valid_date dt then Some (Date dt) else fail ()
    | _ -> fail ())
  | _ -> (
    (* also accept the paper's '2001/11/23' form *)
    match String.split_on_char '/' s with
    | [ y; m; d ] -> (
      match int_of_string_opt y, int_of_string_opt m, int_of_string_opt d with
      | Some year, Some month, Some day ->
        let dt = { year; month; day } in
        if valid_date dt then Some (Date dt) else fail ()
      | _ -> fail ())
    | _ -> fail ())

let of_string_as ty s =
  let s' = String.trim s in
  match ty with
  | TBool -> (
    match String.lowercase_ascii s' with
    | "true" | "t" | "1" | "yes" -> Some (Bool true)
    | "false" | "f" | "0" | "no" -> Some (Bool false)
    | _ -> None)
  | TInt -> Option.map (fun i -> Int i) (int_of_string_opt s')
  | TFloat -> Option.map (fun f -> Float f) (float_of_string_opt s')
  | TStr -> Some (Str s)
  | TDate -> parse_date s'

let infer s =
  let s' = String.trim s in
  if s' = "" || String.uppercase_ascii s' = "NULL" then Null
  else
    match int_of_string_opt s' with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt s' with
      | Some f -> Float f
      | None -> (
        match parse_date s' with
        | Some d -> d
        | None -> (
          match String.lowercase_ascii s' with
          | "true" -> Bool true
          | "false" -> Bool false
          | _ -> Str s)))

(* Hash consistent with [equal]: ints and floats that compare equal (Int 3,
   Float 3.0) must hash equal, so both numeric cases hash their float image.
   A small per-constructor salt keeps e.g. Bool true away from Int 1. *)
let hash = function
  | Null -> 0x2545
  | Bool b -> 0x632be59b lxor Hashtbl.hash b
  | Int i -> 0x9e3779b9 lxor Hashtbl.hash (float_of_int i)
  | Float f -> 0x9e3779b9 lxor Hashtbl.hash f
  | Str s -> 0x85ebca6b lxor Hashtbl.hash s
  | Date d -> 0xc2b2ae35 lxor Hashtbl.hash (date_to_days d)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

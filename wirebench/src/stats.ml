(* Order statistics shared by the closed loop, the traced run and the
   steadiness report. *)

let sorted values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  a

(* ceil(p/100 * n), rounding away float noise such as 99.9 * 10000 / 100
   = 9990.000000000002 *)
let rank_of ~n p = int_of_float (Float.ceil ((p *. float_of_int n /. 100.) -. 1e-9))

(* Nearest-rank percentile of an ascending array: the smallest sample
   with at least [p]% of the samples at or below it. *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = rank_of ~n p in
    a.(max 0 (min (n - 1) (rank - 1)))

let percentile values p = percentile_sorted (sorted values) p

(* Samples strictly above the nearest-rank [p]th percentile. *)
let beyond ~n p = n - rank_of ~n p

let ladder = [ 50.; 90.; 99.; 99.9 ]

(* The highest percentile of [ladder] with at least ten samples beyond
   it: the tail a run of [n] samples supports. [None] below 20 samples. *)
let supported_percentile n =
  List.fold_left (fun acc p -> if beyond ~n p >= 10 then Some p else acc) None ladder

(* The middle value, or the mean of the two middle values. *)
let median values =
  let a = sorted values in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

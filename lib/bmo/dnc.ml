open Pref_relation

(* Maxima of a set of d-dimensional float vectors, every coordinate to be
   maximised: v dominates w iff v >= w pointwise and v <> w. *)

let dominates v w =
  let d = Array.length v in
  let rec ge i = i >= d || (v.(i) >= w.(i) && ge (i + 1)) in
  let rec gt i = i < d && (v.(i) > w.(i) || gt (i + 1)) in
  ge 0 && gt 0

let naive_maxima points =
  List.filter
    (fun (v, _) -> not (List.exists (fun (w, _) -> dominates w v) points))
    points

let threshold = 32

let rec maxima_points points =
  let n = List.length points in
  if n <= threshold then naive_maxima points
  else
    (* Split on the first coordinate at a value boundary near the median so
       the two halves are strictly separated: no low-half point can dominate
       a high-half point. *)
    let sorted =
      List.stable_sort (fun (v, _) (w, _) -> Float.compare w.(0) v.(0)) points
    in
    let arr = Array.of_list sorted in
    let mid = n / 2 in
    let pivot = (fst arr.(mid)).(0) in
    let high = ref [] and low = ref [] in
    Array.iter
      (fun ((v, _) as p) ->
        if v.(0) > pivot then high := p :: !high else low := p :: !low)
      arr;
    if !high = [] || !low = [] then
      (* All points share the first coordinate value near the median; a
         strict split is impossible, fall back to the quadratic base case. *)
      naive_maxima points
    else
      let mh = maxima_points !high in
      let ml = maxima_points !low in
      (* A point of the low half survives iff no maximal high point
         dominates it (high points cannot be dominated by low points). *)
      let ml' =
        List.filter
          (fun (v, _) -> not (List.exists (fun (w, _) -> dominates w v) mh))
          ml
      in
      mh @ ml'

let maxima ~dims rows =
  let points = List.map (fun t -> (dims t, t)) rows in
  let kept = maxima_points points in
  (* Restore input order for deterministic comparisons with other
     algorithms. *)
  let module H = Hashtbl in
  let tbl = H.create (List.length kept) in
  List.iter (fun (_, t) -> H.replace tbl (Tuple.hash t, t) ()) kept;
  List.filter (fun t -> H.mem tbl (Tuple.hash t, t)) rows

let dims_of schema attrs ~maximize =
  let idx = List.map (Schema.index_of_exn schema) attrs in
  let sign = if maximize then 1.0 else -1.0 in
  fun t ->
    Array.of_list
      (List.map
         (fun i ->
           match Value.as_float (Tuple.get t i) with
           | Some f -> sign *. f
           | None -> Float.neg_infinity)
         idx)

open Pref_relation

(* Presort by a topological key (dominating tuples sort first), then run a
   single window pass.  Because no later tuple can dominate an earlier one,
   window tuples are never evicted — each candidate is only checked against
   the current window.

   Like {!Bnl}, the sort and the window are array-based: [Array.stable_sort]
   of a permutation by keys computed once per point, then an append-only
   index window probed by a flat loop. *)

(* Keys are computed once per point, then a permutation is sorted. *)
let sorted ~key arr =
  let keys = Array.map key arr in
  let perm = Array.init (Array.length arr) Fun.id in
  Array.stable_sort (fun i j -> Float.compare keys.(j) keys.(i)) perm;
  Array.map (fun i -> arr.(i)) perm

let window ?(deadline = Engine.no_deadline) better points =
  let n = Array.length points in
  let polls = Engine.has_deadline deadline in
  let win = ref (Array.make (min n 64) 0) in
  let size = ref 0 and tests = ref 0 in
  let timed_out = ref false in
  let k = ref 0 in
  while !k < n do
    if
      polls
      && !k land (Bnl.deadline_stride - 1) = 0
      && Engine.expired deadline
    then begin
      timed_out := true;
      k := n
    end
    else begin
      let p = Array.unsafe_get points !k in
      let dominated = ref false in
      let i = ref 0 in
      let wa = !win in
      while (not !dominated) && !i < !size do
        incr tests;
        if better (Array.unsafe_get points (Array.unsafe_get wa !i)) p then
          dominated := true
        else incr i
      done;
      if not !dominated then begin
        if !size = Array.length wa then win := Bnl.grow wa n;
        Array.unsafe_set !win !size !k;
        incr size
      end;
      incr k
    end
  done;
  {
    Bnl.survivors = Array.sub !win 0 !size;
    tests = !tests;
    peak = !size;
    timed_out = !timed_out;
  }

let maxima ~key dom rows =
  let arr = sorted ~key (Array.of_list rows) in
  Bnl.select arr (window dom arr)

let sum_key schema attrs ~maximize =
  let idx = List.map (Schema.index_of_exn schema) attrs in
  let sign = if maximize then 1.0 else -1.0 in
  fun t ->
    List.fold_left
      (fun acc i ->
        match Value.as_float (Tuple.get t i) with
        | Some f -> acc +. (sign *. f)
        | None -> acc +. (sign *. Float.neg_infinity))
      0.0 idx

let progressive ~key dom rows =
  (* With a topological presort every window insertion is final, so maxima
     can be emitted as soon as they are found — the progressive behaviour
     of [TEO01]-style skyline computation.  The window is shared across
     pulls of the sequence. *)
  let sorted = Array.to_list (sorted ~key (Array.of_list rows)) in
  let window = ref [] in
  let rec emit pending () =
    match pending with
    | [] -> Seq.Nil
    | t :: rest ->
      if List.exists (fun w -> dom w t) !window then emit rest ()
      else begin
        window := t :: !window;
        Seq.Cons (t, emit rest)
      end
  in
  emit sorted

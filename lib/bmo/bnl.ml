(* Window of mutually undominated points seen so far.  A candidate dominated
   by a window point is discarded; window points dominated by the candidate
   are evicted.  With unbounded memory no temporary file is needed, so a
   single pass suffices (the in-memory special case of block-nested-loops
   from the skyline paper).

   The window is a flat array of indices into the point array: the scan is
   two flat loops (probe for a dominator, then compact out evicted points
   in place), so the pass allocates nothing per candidate, survives
   windows of any size, and hands back positions the caller maps to
   whatever it scanned (tuples, or projections paired with their tuples)
   without unpacking pairs in the hot loop. *)

type run = { survivors : int array; tests : int; peak : int; timed_out : bool }

(* The window at any candidate boundary is the exact BMO set of the scanned
   prefix, so stopping at a poll yields a sound, merely incomplete answer. *)
let deadline_stride = 128

let window ?(deadline = Engine.no_deadline) better points =
  let n = Array.length points in
  let polls = Engine.has_deadline deadline in
  let win = Array.make n 0 in
  let size = ref 0 and peak = ref 0 and tests = ref 0 in
  let timed_out = ref false in
  let k = ref 0 in
  while !k < n do
    if polls && !k land (deadline_stride - 1) = 0 && Engine.expired deadline
    then begin
      timed_out := true;
      k := n
    end
    else begin
      let p = Array.unsafe_get points !k in
      let dominated = ref false in
      let i = ref 0 in
      while (not !dominated) && !i < !size do
        incr tests;
        if better (Array.unsafe_get points (Array.unsafe_get win !i)) p then
          dominated := true
        else incr i
      done;
      if not !dominated then begin
        let j = ref 0 in
        for i = 0 to !size - 1 do
          let w = Array.unsafe_get win i in
          incr tests;
          if not (better p (Array.unsafe_get points w)) then begin
            Array.unsafe_set win !j w;
            incr j
          end
        done;
        Array.unsafe_set win !j !k;
        size := !j + 1;
        if !size > !peak then peak := !size
      end;
      incr k
    end
  done;
  {
    survivors = Array.sub win 0 !size;
    tests = !tests;
    peak = !peak;
    timed_out = !timed_out;
  }

let select arr r = Array.fold_right (fun i acc -> arr.(i) :: acc) r.survivors []

let maxima (dom : Dominance.t) rows =
  let arr = Array.of_list rows in
  select arr (window dom arr)

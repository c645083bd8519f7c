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

(* A full window array, doubled (at most to [n], the input size). *)
let grow wa n =
  let g = Array.make (min n (2 * Array.length wa)) 0 in
  Array.blit wa 0 g 0 (Array.length wa);
  g

let window ?(deadline = Engine.no_deadline) ?len better points =
  let n =
    match len with
    | None -> Array.length points
    | Some l ->
      if l < 0 || l > Array.length points then
        invalid_arg "Bnl.window: len out of range";
      l
  in
  let polls = Engine.has_deadline deadline in
  (* the window starts small and doubles: it rarely nears n, and a
     per-query array of n ints would be garbage the size of the input *)
  let win = ref (Array.make (min n 64) 0) in
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
      let wa = !win in
      while (not !dominated) && !i < !size do
        incr tests;
        if better (Array.unsafe_get points (Array.unsafe_get wa !i)) p then
          dominated := true
        else incr i
      done;
      if not !dominated then begin
        let j = ref 0 in
        for i = 0 to !size - 1 do
          let w = Array.unsafe_get wa i in
          incr tests;
          if not (better p (Array.unsafe_get points w)) then begin
            Array.unsafe_set wa !j w;
            incr j
          end
        done;
        if !j = Array.length wa then win := grow wa n;
        Array.unsafe_set !win !j !k;
        size := !j + 1;
        if !size > !peak then peak := !size
      end;
      incr k
    end
  done;
  {
    survivors = Array.sub !win 0 !size;
    tests = !tests;
    peak = !peak;
    timed_out = !timed_out;
  }

let select arr r = Array.fold_right (fun i acc -> arr.(i) :: acc) r.survivors []

let maxima dom rows =
  let arr = Array.of_list rows in
  select arr (window dom arr)

(* Parallel BMO evaluation over a reusable {!Pool} of domains.

   Divide-and-conquer skyline: split the input into P contiguous chunks,
   run the window loop ({!Bnl.window}) over the chunk's points in its own
   domain, then merge the chunk windows pairwise, filtering out
   cross-chunk dominated tuples.  Correct for every strict partial order:
   in a finite SPO every dominated tuple is dominated by some *maximal*
   tuple (domination chains are finite and transitivity closes them), so
   filtering chunk-local maxima against the other chunks' maxima is exact.

   Parallel SFS: one global presort by a topological key, then the
   append-only filter pass is split — each chunk filters locally, and in a
   second parallel phase chunk k drops its survivors dominated by a local
   survivor of any chunk before it (sound because SFS windows never evict:
   any cross-chunk dominator is, transitively, represented by a surviving
   one). *)

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)

let recommended_domains = max 1 (Domain.recommended_domain_count ())
let default_domains () = recommended_domains

(* One cached pool, rebuilt when the requested size changes. Spawning
   domains costs far more than a skyline chunk, so reuse matters. *)
let pool_cache : (int * Pool.t) option ref = ref None

(* Serialises lookup/create/shutdown of the cached pool: concurrent server
   domains asking for the same size share one pool; a size change swaps the
   pool atomically (callers that already hold the old pool finish their
   in-flight batch before [shutdown] joins it — queued batches drain
   first). *)
let pool_mutex = Mutex.create ()

let pool_for domains =
  Mutex.lock pool_mutex;
  let p =
    match !pool_cache with
    | Some (d, p) when d = domains -> p
    | prev ->
      (match prev with Some (_, p) -> Pool.shutdown p | None -> ());
      let p = Pool.create ~domains in
      pool_cache := Some (domains, p);
      p
  in
  Mutex.unlock pool_mutex;
  p

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

type chunk_stat = { c_rows : int; c_out : int; c_tests : int; c_domain : int }

type stats = {
  s_domains : int;
  s_chunks : chunk_stat array;
  s_local_ms : float;
  s_merge_ms : float;
  s_merge_tests : int;
}

let total_tests st =
  Array.fold_left (fun acc c -> acc + c.c_tests) st.s_merge_tests st.s_chunks

let stats_attrs st =
  [
    ("domains", string_of_int st.s_domains);
    ( "chunk_rows",
      String.concat ","
        (Array.to_list (Array.map (fun c -> string_of_int c.c_rows) st.s_chunks))
    );
    ( "chunk_out",
      String.concat ","
        (Array.to_list (Array.map (fun c -> string_of_int c.c_out) st.s_chunks))
    );
    ( "chunk_tests",
      String.concat ","
        (Array.to_list (Array.map (fun c -> string_of_int c.c_tests) st.s_chunks))
    );
    ("merge_tests", string_of_int st.s_merge_tests);
    ("local_ms", Printf.sprintf "%.3f" st.s_local_ms);
    ("merge_ms", Printf.sprintf "%.3f" st.s_merge_ms);
  ]

(* ------------------------------------------------------------------ *)
(* Merge                                                               *)

(* Keep the points of [xs] not dominated by any point of [against]. *)
let filter_against ~dominates ~tests xs against =
  let m = Array.length against in
  if m = 0 then xs
  else
    Array.to_list xs
    |> List.filter (fun px ->
           let dominated = ref false in
           let j = ref 0 in
           while (not !dominated) && !j < m do
             incr tests;
             if dominates (Array.unsafe_get against !j) px then
               dominated := true
             else incr j
           done;
           not !dominated)
    |> Array.of_list

(* Pairwise merge in chunk order. Filtering [part] against the already
   thinned [acc'] (rather than [acc]) is equivalent: an evicted [a] was
   dominated by some surviving point, which by transitivity also dominates
   whatever [a] dominated. *)
let merge_windows ~dominates ~tests parts =
  Array.fold_left
    (fun acc part ->
      if Array.length acc = 0 then part
      else begin
        let acc' = filter_against ~dominates ~tests acc part in
        let part' = filter_against ~dominates ~tests part acc' in
        Array.append acc' part'
      end)
    [||] parts

(* ------------------------------------------------------------------ *)
(* Parallel divide-and-conquer skyline                                 *)

let maxima_dnc ~domains dominates points =
  let domains = max 1 domains in
  let chunks = Pool.chunks ~domains (Array.length points) in
  let pool = pool_for domains in
  let k = Array.length chunks in
  let counts = Array.make k 0 in
  let doms = Array.make k 0 in
  let locals, local_ms =
    Pref_obs.Span.timed (fun () ->
        Pool.map pool
          (fun i ->
            let off, len = chunks.(i) in
            doms.(i) <- Pool.self ();
            Pref_obs.Span.with_span "bmo.par.chunk" (fun () ->
                let pts = Array.sub points off len in
                let r = Bnl.window dominates pts in
                counts.(i) <- r.Bnl.tests;
                let out = Array.map (fun j -> pts.(j)) r.Bnl.survivors in
                Pref_obs.Span.add_attrs
                  [
                    ("chunk", string_of_int i);
                    ("domain", string_of_int doms.(i));
                    ("rows", string_of_int len);
                    ("out", string_of_int (Array.length out));
                    ("tests", string_of_int counts.(i));
                  ];
                out))
          (Array.init k Fun.id))
  in
  let merge_tests = ref 0 in
  let merged, merge_ms =
    Pref_obs.Span.timed (fun () ->
        Pref_obs.Span.with_span "bmo.par.merge" (fun () ->
            let m = merge_windows ~dominates ~tests:merge_tests locals in
            Pref_obs.Span.add_attrs
              [
                ("out", string_of_int (Array.length m));
                ("tests", string_of_int !merge_tests);
              ];
            m))
  in
  let stats =
    {
      s_domains = Pool.size pool;
      s_chunks =
        Array.init k (fun i ->
            {
              c_rows = snd chunks.(i);
              c_out = Array.length locals.(i);
              c_tests = counts.(i);
              c_domain = doms.(i);
            });
      s_local_ms = local_ms;
      s_merge_ms = merge_ms;
      s_merge_tests = !merge_tests;
    }
  in
  (merged, stats)

(* ------------------------------------------------------------------ *)
(* Parallel sort-filter skyline                                        *)

let maxima_sfs ~domains ~key dominates points =
  let domains = max 1 domains in
  let sorted = Sfs.sorted ~key points in
  let chunks = Pool.chunks ~domains (Array.length sorted) in
  let pool = pool_for domains in
  let k = Array.length chunks in
  let counts = Array.make k 0 in
  let doms = Array.make k 0 in
  (* Phase 1: local append-only windows over contiguous sorted ranges. *)
  let locals, local_ms =
    Pref_obs.Span.timed (fun () ->
        Pool.map pool
          (fun i ->
            let off, len = chunks.(i) in
            doms.(i) <- Pool.self ();
            Pref_obs.Span.with_span "bmo.par.chunk" (fun () ->
                let pts = Array.sub sorted off len in
                let r = Sfs.window dominates pts in
                counts.(i) <- r.Bnl.tests;
                Array.map (fun j -> pts.(j)) r.Bnl.survivors))
          (Array.init k Fun.id))
  in
  (* Phase 2: drop chunk k's survivors dominated by a local survivor of
     any earlier chunk. Sound because phase-1 windows never evict: a
     cross-chunk dominator that was itself filtered out is dominated by a
     survivor, which dominates transitively. *)
  let merge_tests_per = Array.init k (fun _ -> ref 0) in
  let survivors, merge_ms =
    Pref_obs.Span.timed (fun () ->
        Pool.map pool
          (fun i ->
            if i = 0 then locals.(0)
            else begin
              let tests = merge_tests_per.(i) in
              Array.to_list locals.(i)
              |> List.filter (fun px ->
                     let dominated = ref false in
                     let j = ref 0 in
                     while (not !dominated) && !j < i do
                       let lj = locals.(!j) in
                       let m = Array.length lj in
                       let u = ref 0 in
                       while (not !dominated) && !u < m do
                         incr tests;
                         if dominates (Array.unsafe_get lj !u) px then
                           dominated := true
                         else incr u
                       done;
                       incr j
                     done;
                     not !dominated)
              |> Array.of_list
            end)
          (Array.init k Fun.id))
  in
  let merge_tests = Array.fold_left (fun a r -> a + !r) 0 merge_tests_per in
  let stats =
    {
      s_domains = Pool.size pool;
      s_chunks =
        Array.init k (fun i ->
            {
              c_rows = snd chunks.(i);
              c_out = Array.length survivors.(i);
              c_tests = counts.(i);
              c_domain = doms.(i);
            });
      s_local_ms = local_ms;
      s_merge_ms = merge_ms;
      s_merge_tests = merge_tests;
    }
  in
  (* Concatenation in chunk order = descending key order, the same output
     order as sequential SFS. *)
  (Array.concat (Array.to_list survivors), stats)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let observe stats =
  Pref_obs.Metrics.incr Obs.par_queries;
  Array.iter
    (fun c -> Pref_obs.Metrics.observe Obs.par_chunk_rows (float_of_int c.c_rows))
    stats.s_chunks;
  Pref_obs.Metrics.observe Obs.par_merge_ms stats.s_merge_ms

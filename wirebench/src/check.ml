(* Answer checking and accounting: every wire answer against the
   oracle, the subscription's snapshot and delta stream against the
   reference BMO sets, and the tally attempted = ok + failed. *)

open Pref_relation

type tally = {
  attempted : int;
  ok : int;
  errors : int;  (** ERR after retries, or a lost connection *)
  partial : int;
  short : int;
  wrong : int;  (** answers, or the subscription, differing from the oracle *)
  problems : string list;  (** the first few mismatches, for diagnosis *)
  lags_ms : float list;  (** DML write to matching DELTA decode *)
}

let failed t = t.errors + t.partial + t.short + t.wrong
let balanced t = t.attempted = t.ok + failed t

(* Apply DELTA frames to a snapshot, as a subscriber replica does. *)
let replay snapshot frames =
  List.fold_left
    (fun rows (_, (d : Pref_server.Client.delta)) ->
      if d.Pref_server.Client.d_resync then Relation.rows d.Pref_server.Client.d_added
      else
        Oracle.minus rows (Relation.rows d.Pref_server.Client.d_removed)
        @ Relation.rows d.Pref_server.Client.d_added)
    (Relation.rows snapshot) frames

let run oracle ~(records : Loop.record list) ~(acked : (int64 * Gen.op) list) ~subscription =
  let live = Oracle.versions (List.map snd acked) in
  let t0 = Unix.gettimeofday () in
  let n =
    Oracle.precompute oracle
      ((if subscription = None then [] else [ Gen.subscription ])
      @ List.filter_map (fun (r : Loop.record) -> r.Loop.stmt) records)
  in
  Printf.printf "  oracle: %d statements' reference cores in %.1f s\n%!" n (Unix.gettimeofday () -. t0);
  let problems = ref [] in
  let note p = if List.length !problems < 5 then problems := p :: !problems in
  let t =
    List.fold_left
      (fun t (r : Loop.record) ->
        match r.Loop.outcome with
        | Loop.Acked -> { t with ok = t.ok + 1 }
        | Loop.Answered fp ->
          let sql = Option.get r.Loop.stmt in
          let expect =
            Oracle.fingerprint (Oracle.answer oracle ~version:r.Loop.version ~live:live.(r.Loop.version) sql)
          in
          if expect = fp then { t with ok = t.ok + 1 }
          else begin
            note
              (Printf.sprintf "wrong answer (%d rows, want %d) at version %d: %s" fp.Oracle.rows
                 expect.Oracle.rows r.Loop.version sql);
            { t with wrong = t.wrong + 1 }
          end
        | Loop.Error_reply msg | Loop.Lost msg ->
          note msg;
          { t with errors = t.errors + 1 }
        | Loop.Partial -> { t with partial = t.partial + 1 }
        | Loop.Short -> { t with short = t.short + 1 })
      {
        attempted = List.length records;
        ok = 0;
        errors = 0;
        partial = 0;
        short = 0;
        wrong = 0;
        problems = [];
        lags_ms = [];
      }
      records
  in
  let t =
    match subscription with
    | None -> t
    | Some (snapshot, frames) ->
      (* the SUBSCRIBE itself is one more attempted operation *)
      let last = Array.length live - 1 in
      let reference k = Oracle.answer oracle ~version:k ~live:live.(k) Gen.subscription in
      (* write times of the DML whose reference delta is non-empty: the
         k-th of them must match the k-th DELTA frame *)
      let writes =
        List.filter_map
          (fun ((w, _), (added, removed)) ->
            if added <> [] || removed <> [] then Some w else None)
          (List.combine acked (Oracle.expected_deltas oracle live))
      in
      let schema = Relation.schema snapshot in
      let fp rows = Oracle.fingerprint_rows schema rows in
      let snapshot_ok = Oracle.fingerprint snapshot = Oracle.fingerprint (reference 0) in
      let count_ok = List.length frames = List.length writes in
      let final_ok = fp (replay snapshot frames) = Oracle.fingerprint (reference last) in
      let lags_ms =
        if count_ok then
          List.map2
            (fun w (at, _) -> Pref_obs.Clock.ms_of_ns (Int64.sub at w))
            writes frames
        else []
      in
      let ok = snapshot_ok && count_ok && final_ok in
      if not ok then
        note
          (Printf.sprintf
             "subscription mismatch: snapshot %b, %d frames for %d expected deltas, final replay %b"
             snapshot_ok (List.length frames) (List.length writes) final_ok);
      {
        t with
        attempted = t.attempted + 1;
        ok = (t.ok + if ok then 1 else 0);
        wrong = (t.wrong + if ok then 0 else 1);
        lags_ms;
      }
  in
  { t with problems = List.rev !problems }

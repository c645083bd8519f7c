(* The closed loop: each client connection sends its next request only
   after the previous reply is decoded, for a fixed wall-clock budget.
   Latency runs from request write to full response decode. *)

module Client = Pref_server.Client
module Protocol = Pref_server.Protocol

type kind = K_query | K_refine | K_dml

let kind_of = function
  | Gen.Query _ -> K_query
  | Gen.Refine _ -> K_refine
  | Gen.Insert _ | Gen.Delete _ -> K_dml

type outcome =
  | Answered of Oracle.fp  (** complete ROWS *)
  | Acked  (** DML acknowledgement *)
  | Error_reply of string  (** ERR, after retrying retriable ones *)
  | Partial  (** ROWS flagged partial *)
  | Short  (** router ROWS from fewer shards than registered *)
  | Lost of string  (** the connection failed; it is unusable afterwards *)

type record = {
  op : Gen.op;
  stmt : string option;  (** the statement whose answer the reply must be *)
  version : int;  (** table version the request saw *)
  t0 : int64;
  t1 : int64;
  outcome : outcome;
  retries : int;
}

let latency_ms r = Pref_obs.Clock.ms_of_ns (Int64.sub r.t1 r.t0)

let stmt_of = function
  | Gen.Query sql -> Some sql
  | Gen.Refine term -> Some (Gen.select_preferring term)
  | Gen.Insert _ | Gen.Delete _ -> None

let max_attempts = 50

(* One request, retrying retriable rejections (busy / draining) after a
   2 ms pause, as Client.query_retry does; returns the final response and
   the number of retries. *)
let request_retry c req =
  let rec go n =
    match Client.request c req with
    | Protocol.Err { retriable = true; _ } when n + 1 < max_attempts ->
      Thread.delay 0.002;
      go (n + 1)
    | resp -> (resp, n)
  in
  go 0

let outcome_of op resp =
  match (resp, op) with
  | Protocol.Rows { flags; _ }, _ when flags.Pref_bmo.Engine.partial -> Partial
  | Protocol.Rows { served = Some (k, n); _ }, _ when k < n -> Short
  | Protocol.Rows { relation; _ }, (Gen.Query _ | Gen.Refine _) ->
    Answered (Oracle.fingerprint relation)
  | Protocol.Done _, (Gen.Insert _ | Gen.Delete _) -> Acked
  | Protocol.Err { kind; message; _ }, _ -> Error_reply (kind ^ ": " ^ message)
  | _ -> Error_reply "unexpected response"

(* Send one operation; [version] is the table version it sees. *)
let issue c op ~version =
  let req = Gen.request op in
  let t0 = Pref_obs.Clock.now_ns () in
  let reply = match request_retry c req with r -> Ok r | exception e -> Error e in
  (* the latency ends at the decoded reply; checking it is not timed *)
  let t1 = Pref_obs.Clock.now_ns () in
  let outcome, retries =
    match reply with
    | Ok (resp, retries) -> (outcome_of op resp, retries)
    | Error e -> (Lost (Printexc.to_string e), 0)
  in
  { op; stmt = stmt_of op; version; t0; t1; outcome; retries }

(* Acknowledged DML in order: the write time and the operation. The
   workloads with DML have one DML-issuing client, so this order is the
   order the server applied them in. *)
type dml_log = { mutable acked : (int64 * Gen.op) list }

let acked_in_order log = List.rev log.acked

let run_client c (stream : Gen.stream) ~until ~log =
  let records = ref [] in
  let version = ref 0 in
  let lost = ref false in
  while (not !lost) && Int64.compare (Pref_obs.Clock.now_ns ()) until < 0 do
    let op = stream () in
    let r = issue c op ~version:!version in
    records := r :: !records;
    (match r.outcome with
    | Acked ->
      log.acked <- (r.t0, op) :: log.acked;
      incr version
    | Lost _ -> lost := true
    | Answered _ | Error_reply _ | Partial | Short -> ())
  done;
  List.rev !records

(* The subscriber's reader: every DELTA frame with its decode time. *)
type frames = { mutable got : (int64 * Client.delta) list; fm : Mutex.t }

let read_deltas c frames =
  let rec go () =
    match Client.next_delta c with
    | Some d ->
      let t = Pref_obs.Clock.now_ns () in
      Mutex.protect frames.fm (fun () -> frames.got <- (t, d) :: frames.got);
      go ()
    | None -> ()
    | exception _ -> ()
  in
  go ()

let frames_in_order f = Mutex.protect f.fm (fun () -> List.rev f.got)

(* Wait until [n] frames arrived, or [timeout_s] passed. *)
let await_frames f n ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  while
    Mutex.protect f.fm (fun () -> List.length f.got) < n && Unix.gettimeofday () < deadline
  do
    Thread.delay 0.01
  done

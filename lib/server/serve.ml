open Pref_relation
open Pref_sql

let listen ~host ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
     Unix.listen fd 64
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, p) -> (fd, p)
  | Unix.ADDR_UNIX _ -> (fd, port)

(* The receive timeout turns a blocking accept into a poll of [stop]. *)
let accept_loop fd ~stop serve =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.25;
  let rec loop () =
    if not (stop ()) then
      match Unix.accept fd with
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
        loop ()
      | exception Unix.Unix_error _ -> ()
      | conn, _ ->
        serve conn;
        loop ()
  in
  loop ()

let send fd resp = Protocol.write_frame fd (Protocol.encode_response resp)

let err ?trace ?(retriable = false) kind message =
  Protocol.Err { kind; retriable; message; trace }

let error_response ?trace e =
  let err = err ?trace ~retriable:false in
  match e with
  | Parser.Error (msg, pos) ->
    err "parse" (Printf.sprintf "syntax error at offset %d: %s" pos msg)
  | Translate.Error msg -> err "translate" msg
  | Exec.Unknown_table { name; hint } ->
    err "exec" (Exec.unknown_table_message ~name ~hint)
  | Exec.Error msg -> err "exec" msg
  | Exec.Rejected findings ->
    err "check"
      (String.concat "\n"
         ("rejected by static analysis:"
         :: List.map
              (fun f ->
                Printf.sprintf "  %s[%s] %s: %s" f.Exec.check_severity
                  f.Exec.check_code f.Exec.check_path f.Exec.check_message)
              findings))
  | Preferences.Pref.Ill_formed { code; message; _ } ->
    err "pref" (Printf.sprintf "[%s] %s" code message)
  | Pref_bmo.Pool.Job_error { exn; _ } -> err "exec" (Printexc.to_string exn)
  | e -> err "internal" (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Counters and subscriptions                                          *)

type counter = {
  key : string;
  value : int Atomic.t;
  mirror : Pref_obs.Metrics.counter;
}

let make_counter key =
  { key; value = Atomic.make 0; mirror = Pref_obs.Metrics.counter key }

let bump c =
  Atomic.incr c.value;
  Pref_obs.Metrics.incr c.mirror

let max_queue = 64

type 'a sub = {
  payload : 'a;
  schema : Schema.t;
  trace : Protocol.trace option;
  snapshot : unit -> Tuple.t list;
  sub_m : Mutex.t;
  sub_c : Condition.t;
  queue : Protocol.response Queue.t;
  mutable overflow : bool;
  mutable closed : bool;
}

type 'a t = {
  name : string;
  listen_fd : Unix.file_descr;
  bound_port : int;
  max_connections : int;
  m : Mutex.t;
  stopped_c : Condition.t;
  mutable draining : bool;
  mutable stopped : bool;
  stop_requested : bool Atomic.t;
  mutable accept_thread : Thread.t option;
  mutable quiesce : unit -> unit;
  mutable release : unit -> unit;
  conns_m : Mutex.t;
  mutable conns : (int * Unix.file_descr) list;
  mutable conn_threads : Thread.t list;
  next_id : int Atomic.t;
  subs_m : Mutex.t;
  mutable subs : 'a sub list;
  mutable registered : counter list;  (* newest first *)
  accepted : counter;
  rejected : counter;
  deltas : counter;
  resyncs : counter;
  g_conns : Pref_obs.Metrics.gauge;
  g_subs : Pref_obs.Metrics.gauge;
}

let create ~name ~host ~port ~max_connections =
  (* a peer vanishing mid-response must surface as EPIPE, not kill the
     process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let listen_fd, bound_port = listen ~host ~port in
  let key k = name ^ "." ^ k in
  {
    name;
    listen_fd;
    bound_port;
    max_connections;
    m = Mutex.create ();
    stopped_c = Condition.create ();
    draining = false;
    stopped = false;
    stop_requested = Atomic.make false;
    accept_thread = None;
    quiesce = ignore;
    release = ignore;
    conns_m = Mutex.create ();
    conns = [];
    conn_threads = [];
    next_id = Atomic.make 0;
    subs_m = Mutex.create ();
    subs = [];
    registered = [];
    accepted = make_counter (key "accepted");
    rejected = make_counter (key "connections_rejected");
    deltas = make_counter (key "deltas");
    resyncs = make_counter (key "subscription_resyncs");
    g_conns = Pref_obs.Metrics.gauge (key "connections");
    g_subs = Pref_obs.Metrics.gauge (key "subscriptions");
  }

let port t = t.bound_port
let draining t = Mutex.protect t.m (fun () -> t.draining)

let counter t k =
  let c = make_counter (t.name ^ "." ^ k) in
  t.registered <- c :: t.registered;
  c

let counters t =
  let line c = (c.key, Atomic.get c.value) in
  let key k = t.name ^ "." ^ k in
  let n_conns = Mutex.protect t.conns_m (fun () -> List.length t.conns) in
  let n_subs = Mutex.protect t.subs_m (fun () -> List.length t.subs) in
  [ line t.accepted; (key "active_connections", n_conns); line t.rejected ]
  @ List.rev_map line t.registered
  @ [
      (key "subscriptions", n_subs);
      line t.deltas;
      line t.resyncs;
      (key "draining", if draining t then 1 else 0);
    ]

let set_gauge g n = Pref_obs.Metrics.set g (float_of_int n)

let subscribe t ?trace schema ~snapshot payload =
  (* [draining] is read under [subs_m], which the drain's close pass also
     holds: a stream cannot register after that pass and stay open *)
  Mutex.protect t.subs_m (fun () ->
      let sub =
        {
          payload;
          schema;
          trace;
          snapshot;
          sub_m = Mutex.create ();
          sub_c = Condition.create ();
          queue = Queue.create ();
          overflow = false;
          closed = draining t;
        }
      in
      t.subs <- sub :: t.subs;
      set_gauge t.g_subs (List.length t.subs);
      sub)

let subscriptions t = Mutex.protect t.subs_m (fun () -> t.subs)

let close_sub sub =
  Mutex.protect sub.sub_m (fun () ->
      sub.closed <- true;
      Condition.broadcast sub.sub_c)

let publish t sub patch =
  Mutex.protect sub.sub_m (fun () ->
      if not sub.closed then
        match patch sub.payload with
        | [], [] -> ()
        | added, removed ->
          if Queue.length sub.queue >= max_queue then begin
            Queue.clear sub.queue;
            sub.overflow <- true;
            bump t.resyncs
          end
          else
            Queue.push
              (Protocol.Delta
                 {
                   added = Relation.make sub.schema added;
                   removed = Relation.make sub.schema removed;
                   resync = false;
                   trace = sub.trace;
                 })
              sub.queue;
          Condition.signal sub.sub_c)

(* The next frame to write, blocking until there is one; [None] once
   closed. An overflow turns into one full-snapshot frame — the client
   discards its replica and starts over from it. *)
let next_frame sub =
  Mutex.protect sub.sub_m (fun () ->
      let rec take () =
        if sub.closed then None
        else if sub.overflow then begin
          sub.overflow <- false;
          Queue.clear sub.queue;
          Some
            (Protocol.Delta
               {
                 added = Relation.make sub.schema (sub.snapshot ());
                 removed = Relation.empty sub.schema;
                 resync = true;
                 trace = sub.trace;
               })
        end
        else
          match Queue.take_opt sub.queue with
          | Some frame -> Some frame
          | None ->
            Condition.wait sub.sub_c sub.sub_m;
            take ()
      in
      take ())

let stream t fd sub first =
  let rec loop () =
    match next_frame sub with
    | None -> ()
    | Some frame ->
      bump t.deltas;
      send fd frame;
      loop ()
  in
  (try
     send fd first;
     loop ()
   with _ -> ());
  Mutex.protect t.subs_m (fun () ->
      t.subs <- List.filter (fun s -> s != sub) t.subs;
      set_gauge t.g_subs (List.length t.subs));
  close_sub sub

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)

type handler = { handle : Protocol.request -> bool; close : unit -> unit }

exception Drain

let frame_loop t fd h =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.25;
  let on_wait () = if draining t then raise Drain in
  let rec loop () =
    match Protocol.read_frame ~on_wait fd with
    | None -> ()
    | Some payload ->
      let continue =
        match Protocol.parse_request payload with
        | Error message ->
          send fd (err "proto" message);
          true
        | Ok Protocol.Ping ->
          send fd Protocol.Pong;
          true
        | Ok (Protocol.Metrics { json }) ->
          (* rendering the registry is cheap: answer on the connection
             thread rather than queueing behind queries *)
          send fd
            (Protocol.Metrics_resp
               (if json then Pref_obs.Json.to_string (Pref_obs.Export.to_json ())
                else Pref_obs.Export.prometheus ()));
          true
        | Ok req -> h.handle req
      in
      if continue then loop ()
  in
  Fun.protect ~finally:h.close (fun () ->
      try loop ()
      with Drain | Protocol.Framing_error _ | Unix.Unix_error _ | Sys_error _ ->
        ())

let spawn t connect fd =
  (* register the connection before spawning, so the thread's cleanup can
     never race its own registration *)
  let id = Atomic.fetch_and_add t.next_id 1 in
  Mutex.protect t.conns_m (fun () ->
      t.conns <- (id, fd) :: t.conns;
      set_gauge t.g_conns (List.length t.conns));
  let run () =
    Fun.protect
      ~finally:(fun () ->
        Mutex.protect t.conns_m (fun () ->
            t.conns <- List.remove_assoc id t.conns;
            set_gauge t.g_conns (List.length t.conns));
        (try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ());
        try Unix.close fd with _ -> ())
      (fun () -> frame_loop t fd (connect fd))
  in
  let thread = Thread.create run () in
  Mutex.protect t.conns_m (fun () -> t.conn_threads <- thread :: t.conn_threads)

let admit t connect fd =
  bump t.accepted;
  if Mutex.protect t.conns_m (fun () -> List.length t.conns) >= t.max_connections
  then begin
    bump t.rejected;
    (try send fd (err ~retriable:true "busy" (t.name ^ " at max connections; retry"))
     with _ -> ());
    try Unix.close fd with _ -> ()
  end
  else spawn t connect fd

let serve t ?(quiesce = ignore) ?(release = ignore) connect =
  t.quiesce <- quiesce;
  t.release <- release;
  let stop () = draining t || Atomic.get t.stop_requested in
  t.accept_thread <-
    Some (Thread.create (fun () -> accept_loop t.listen_fd ~stop (admit t connect)) ())

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let request_stop t = Atomic.set t.stop_requested true

let stop t =
  let first =
    Mutex.protect t.m (fun () ->
        let first = not t.draining in
        t.draining <- true;
        first)
  in
  if not first then
    (* someone else is (or finished) draining: wait it out *)
    Mutex.protect t.m (fun () ->
        while not t.stopped do
          Condition.wait t.stopped_c t.m
        done)
  else begin
    (* 1. stop accepting; the accept loop polls [draining] on its timeout *)
    Option.iter Thread.join t.accept_thread;
    t.accept_thread <- None;
    (try Unix.close t.listen_fd with _ -> ());
    (* 2. the backend finishes the work it admitted; requests arriving
       meanwhile get retriable draining errors *)
    t.quiesce ();
    (* 3. connection threads notice [draining] on their read timeout and
       exit; nudge blocked reads via shutdown, and close the streams,
       whose threads block on their queue rather than the socket *)
    List.iter
      (fun (_, fd) -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ())
      (Mutex.protect t.conns_m (fun () -> t.conns));
    Mutex.protect t.subs_m (fun () -> List.iter close_sub t.subs);
    List.iter Thread.join (Mutex.protect t.conns_m (fun () -> t.conn_threads));
    Mutex.protect t.conns_m (fun () -> t.conn_threads <- []);
    (* 4. the backend releases what it owns *)
    t.release ();
    Mutex.protect t.m (fun () ->
        t.stopped <- true;
        Condition.broadcast t.stopped_c)
  end

let wait t =
  let rec poll () =
    if not (Mutex.protect t.m (fun () -> t.stopped)) then
      if Atomic.get t.stop_requested then stop t
      else begin
        Thread.delay 0.1;
        poll ()
      end
  in
  poll ()

(** The concurrent Preference SQL query server: the local backend of the
    serving spine ({!Serve}).

    The spine owns the listener, one thread per connection, the frame
    loop, the graceful drain and the bounded SUBSCRIBE queues. This
    backend gives each connection a {!Pref_engine.Session.t} over the
    shared table environment and the process-wide result cache (a
    session opts out with [SET cache off]), and evaluates and encodes
    every query on a fixed pool of executor {e domains}, so concurrent
    clients scale across cores while connection threads only block on
    I/O. DML from any connection is published to every subscription on
    its table, in one order.

    {2 Admission control}

    At most [max_inflight] queries are admitted (queued or running) at
    any time; a QUERY over that bound is rejected immediately with a
    retriable [ERR busy] frame instead of queueing unboundedly. At most
    [max_connections] connections are served; excess accepts get an
    [ERR busy] and a close.

    {2 Deadlines}

    A session's [deadline] knob starts counting at admission, so queue
    wait draws down the same budget as evaluation. On expiry the engine
    degrades — the response is a well-formed [ROWS ... partial] frame
    with the BMO set of the scanned prefix — and never hangs; the
    [server.deadline_exceeded] counter records each degradation.

    {2 Graceful drain}

    {!stop} is {!Serve.stop}: new queries get a retriable
    [ERR draining] while every admitted query completes and flushes its
    response; then the connections and streams close, and the threads
    and executor domains are joined. *)

type config = {
  host : string;  (** bind address, default 127.0.0.1 *)
  port : int;  (** 0 picks an ephemeral port (see {!port}) *)
  max_connections : int;
  max_inflight : int;  (** admission bound: queued + running queries *)
  executors : int;  (** executor domains evaluating queries *)
  session_config : Pref_bmo.Engine.config;
      (** initial per-session engine config *)
}

val default_config : config
(** 127.0.0.1:5877, 64 connections, [2 * executors] in-flight queries,
    one executor per recommended domain (capped at 16). *)

type t

val start :
  ?config:config ->
  ?registry:Pref_sql.Translate.registry ->
  env:Pref_sql.Exec.env ->
  unit ->
  t
(** Bind, listen, and spawn the accept thread and executor domains.
    Raises [Unix.Unix_error] when the address cannot be bound. *)

val port : t -> int
(** The bound port — the actual one when [config.port] was 0. *)

val stop : t -> unit
(** Graceful drain (see above); returns once everything is joined. *)

val request_stop : t -> unit
(** Async-signal-safe stop request: flags the server to drain and
    returns immediately. {!wait} then performs and completes the drain. *)

val wait : t -> unit
(** Block until the server has fully stopped (via {!stop} or
    {!request_stop}). *)

val counters : t -> (string * int) list
(** Server-level counters, as [server.*] key/value pairs: the spine's
    ({!Serve.counters}: connections, subscriptions, deltas, resyncs,
    draining), then totals for completed queries, busy/draining
    rejections, degradations ([server.deadline_exceeded]), truncations
    and errors, and queued and in-flight queries. Always live,
    independent of {!Pref_obs.Control} (the same values also feed
    [server.*] metrics when telemetry is on). *)

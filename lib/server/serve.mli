(** The serving spine of [prefserve] ({!Server}) and [prefroute]
    ([Pref_router.Router]): the listener and accept loop, the connection
    registry and its [max_connections] rejection, a thread per
    connection running the frame loop (which answers unparsable frames,
    PING and METRICS itself), the error mapping, the graceful drain, the
    always-on counters behind STATS, and the bounded subscriber queues.

    A backend supplies one {!handler} per connection — {!Server} a local
    session evaluating on executor domains, the router a scatter over
    shard channels — and optional drain hooks. *)

open Pref_relation

val listen : host:string -> port:int -> Unix.file_descr * int
(** Bind and listen; returns the socket and the bound port (the actual
    one when [port] is 0). Raises [Unix.Unix_error]. *)

val accept_loop :
  Unix.file_descr -> stop:(unit -> bool) -> (Unix.file_descr -> unit) -> unit
(** Hand each accepted socket to the callback until [stop ()] holds
    (polled every 0.25 s) or the listener fails. *)

val send : Unix.file_descr -> Protocol.response -> unit

val err :
  ?trace:Protocol.trace -> ?retriable:bool -> string -> string -> Protocol.response
(** [err kind message]: an [ERR] frame, fatal unless [retriable]. *)

val error_response : ?trace:Protocol.trace -> exn -> Protocol.response
(** The fatal [ERR] frame for an exception raised by a request: [parse],
    [translate], [exec], [check], [pref], or [internal]. *)

(** {1 Endpoints} *)

type 'a t
(** An endpoint whose subscriptions carry a backend payload ['a]. *)

val create :
  name:string -> host:string -> port:int -> max_connections:int -> 'a t
(** Bind (see {!listen}) without accepting yet. [name] (["server"],
    ["router"]) prefixes every counter and metric. *)

type handler = {
  handle : Protocol.request -> bool;
      (** Answer one request (never PING, METRICS or an unparsable
          frame); [false] ends the connection, after a SUBSCRIBE stream. *)
  close : unit -> unit;  (** The connection ended. *)
}

val serve :
  'a t ->
  ?quiesce:(unit -> unit) ->
  ?release:(unit -> unit) ->
  (Unix.file_descr -> handler) ->
  unit
(** Start accepting; each connection thread builds its handler from its
    socket. Past [max_connections] a connection gets a retriable
    [ERR busy] and is closed. *)

val port : 'a t -> int
val draining : 'a t -> bool

val stop : 'a t -> unit
(** Graceful drain, idempotent and thread-safe: stop accepting, run
    [quiesce] (the backend finishes admitted work), shut every
    connection's reads and close every stream, join the connection
    threads, run [release]. *)

val request_stop : 'a t -> unit
(** Async-signal-safe: flag a drain for {!wait} to perform. *)

val wait : 'a t -> unit
(** Block until stopped, draining after {!request_stop}. *)

(** {1 Counters}

    Always live; each bump also feeds the [<name>.<key>] metric while
    telemetry is on. *)

type counter

val counter : 'a t -> string -> counter
(** Register [<name>.<key>]; call before {!serve}. *)

val bump : counter -> unit

val counters : 'a t -> (string * int) list
(** [accepted], [active_connections], [connections_rejected], the
    registered counters, [subscriptions], [deltas],
    [subscription_resyncs] and [draining], prefixed with [<name>.]. *)

(** {1 Subscriptions}

    A SUBSCRIBE stream queues at most 64 DELTA frames. A consumer that
    falls further behind loses the backlog: [subscription_resyncs]
    moves, and its next frame is a [resync] snapshot of the answer. *)

type 'a sub

val subscribe :
  'a t ->
  ?trace:Protocol.trace ->
  Schema.t ->
  snapshot:(unit -> Tuple.t list) ->
  'a ->
  'a sub
(** Register a stream; [snapshot] is the current answer, read under the
    stream's lock. Starts closed while draining. *)

val subscriptions : 'a t -> 'a sub list

val publish : 'a t -> 'a sub -> ('a -> Tuple.t list * Tuple.t list) -> unit
(** Run the patch under the stream's lock and queue the rows that
    entered and left the answer as one DELTA frame (none when both are
    empty, or once the stream is closed). *)

val close_sub : 'a sub -> unit

val stream : 'a t -> Unix.file_descr -> 'a sub -> Protocol.response -> unit
(** On the subscriber's connection thread: write the snapshot response,
    then queued frames until the stream closes or the peer goes away;
    then unregister. *)

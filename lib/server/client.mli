(** Blocking client for the Preference SQL wire protocol — used by the
    shell's [\connect], the soak driver, and the tests.

    One request is in flight at a time; every call blocks until the
    response frame arrives. Not thread-safe: give each thread its own
    client. *)

open Pref_relation

type t

exception Closed
(** The server closed the connection (EOF where a response was due). *)

exception Timeout
(** No response within the client's [timeout_s] (see {!connect}). *)

exception Response_lost of exn
(** A failure {e after} the request frame was fully written — {!Closed},
    {!Timeout}, {!Protocol.Framing_error}, [Failure] on an unparsable
    payload, or a socket error mid-read. The server may already have
    executed the request, so the caller must not silently resend it;
    failures before the frame is on the wire raise unwrapped and are
    safe to retry. *)

val connect : ?timeout_s:float -> host:string -> port:int -> unit -> t
(** Raises [Unix.Unix_error] when the connection is refused. With
    [timeout_s], each request raises {!Response_lost} {!Timeout} when no
    response arrives within that many seconds (checked every 250 ms). *)

val close : t -> unit
(** Idempotent. *)

val request : t -> Protocol.request -> Protocol.response
(** Send one request and read its response. Failures after the frame is
    written arrive wrapped in {!Response_lost} (carrying {!Closed} on
    EOF, {!Protocol.Framing_error} on a corrupt stream, or [Failure]
    when the response payload does not parse); after any of these the
    connection is unusable and should be closed. *)

(** {1 Convenience wrappers} *)

val ping : t -> bool
(** [true] iff the server answers PONG. *)

val fresh_trace : unit -> Protocol.trace
(** A new client-side trace context: process-unique ids built from a
    pid/time hash and a sequence number. *)

val query :
  ?trace:Protocol.trace ->
  t ->
  string ->
  (Relation.t * Pref_bmo.Engine.flags, string) result
(** [Error] carries the server's rendered error message (including its
    kind). Retriable rejections are surfaced as errors too — see
    {!query_retry}. [trace] rides the request's verb line and is stamped
    onto the server-side span tree. *)

val query_traced :
  t ->
  string ->
  (Relation.t * Pref_bmo.Engine.flags * Protocol.trace option, string) result
(** {!query} with a {!fresh_trace} attached; the third component is the
    trace the server echoed on the ROWS frame ([None] against a
    pre-trace server — old peers ignore the trace words). *)

val query_retry :
  ?attempts:int -> ?backoff_s:float -> ?trace:Protocol.trace -> t -> string ->
  (Relation.t * Pref_bmo.Engine.flags, string) result
(** Like {!query}, but a retriable [ERR] (admission-control [busy] /
    [draining]) is retried up to [attempts] times (default 50) with a
    fixed [backoff_s] sleep (default 2 ms) between tries. Only explicit
    retriable rejections are retried — the server answered without
    executing, so a resend cannot double-execute; connection failures
    propagate as exceptions. *)

type reply = {
  rel : Relation.t;
  flags : Pref_bmo.Engine.flags;
  served : (int * int) option;  (** router responses: shards answered / total *)
  echoed : Protocol.trace option;  (** request trace, echoed by the server *)
}
(** Everything a ROWS frame carries, for callers (the soak driver, the
    router tests) that need more than the relation + flags pair. *)

val query_reply :
  ?trace:Protocol.trace -> t -> string -> (reply, string) result

val query_reply_retry :
  ?attempts:int -> ?backoff_s:float -> ?trace:Protocol.trace -> t -> string ->
  (reply, string) result
(** {!query_reply} with {!query_retry}'s retriable-rejection loop. *)

val explain :
  ?analyze:bool ->
  ?json:bool ->
  ?trace:Protocol.trace ->
  t ->
  string ->
  (string, string) result
(** The server-side plan report for [sql] — text lines joined with
    newlines, or one JSON document with [~json:true]. [~analyze:true]
    executes the statement to fill in actual row counts and timings. *)

val metrics : ?json:bool -> t -> (string, string) result
(** The server's metrics registry: Prometheus text exposition format, or
    a JSON snapshot with [~json:true]. *)

val set : t -> key:string -> value:string -> (string, string) result
val prepare : t -> name:string -> string -> (string, string) result
val stats : t -> ((string * string) list, string) result

(** {1 Changing preferences} *)

val refine :
  ?trace:Protocol.trace ->
  t ->
  string ->
  (Relation.t * Pref_bmo.Engine.flags, string) result
(** REFINE: revise the connection's last preference statement to the
    given bare preference term and return the revised BMO set (served by
    the server's result cache when one of its tiers applies). *)

val insert :
  ?trace:Protocol.trace -> t -> table:string -> string -> (string, string) result

val delete :
  ?trace:Protocol.trace -> t -> table:string -> string -> (string, string) result
(** Single-row DML; the row is one RFC-4180 CSV record in the table's
    column order, values rendered as by {!Protocol.value_wire}. [Ok]
    carries the server's acknowledgement line; deleting an absent row is
    an [Error]. *)

(** {1 Subscriptions} *)

type delta = {
  d_added : Relation.t;  (** rows that entered the BMO set *)
  d_removed : Relation.t;  (** rows that left it *)
  d_resync : bool;
      (** [true]: the subscriber fell behind and [d_added] is a full
          snapshot — discard all previously applied state first *)
}

val subscribe :
  ?trace:Protocol.trace ->
  t ->
  string ->
  (Relation.t * Pref_bmo.Engine.flags, string) result
(** Register a continuous query ([SELECT * FROM <table> PREFERRING ...])
    and return its current BMO set. On [Ok] the connection becomes a
    one-way delta stream: only {!next_delta} (and {!close}) may be used
    afterwards. On [Error] the connection is still usable. *)

val next_delta : ?timeout_s:float -> t -> delta option
(** Block for the next DELTA frame; [None] when the server closed the
    stream. Raises {!Timeout} after [timeout_s] seconds without a frame,
    and [Failure] on a non-delta or unparsable frame. *)

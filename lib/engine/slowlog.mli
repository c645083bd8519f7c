(** The slow-query log.

    Sessions whose [slowlog] knob is set record every query at or above
    the threshold here: one JSON object carrying the wall time, the
    query text, the session id, the σ serve that answered as its plan
    ([null] without a PREFERRING/CASCADE clause), and — for a configurable
    1-in-n sample — the full {!Pref_obs.Span} tree of the execution
    (spans exist only while telemetry is enabled; unsampled or untraced
    entries simply omit the tree).

    Process-global and mutex-guarded, like the metrics registry: a
    bounded in-memory ring (64 entries, newest first) plus an optional
    append-only file sink writing one JSON line per entry ([prefserve
    --slowlog-file]). *)

val record :
  ms:float ->
  threshold_ms:float ->
  query:string ->
  session:int ->
  plan:string option ->
  ?span:Pref_obs.Span.node ->
  unit ->
  unit

val recent : unit -> Pref_obs.Json.t list
(** Ring contents, newest first. *)

val count : unit -> int
(** Slow queries recorded since start (or {!clear}), including entries
    the ring has since dropped. *)

val clear : unit -> unit

val set_sample : int -> unit
(** Keep the span tree on every nth entry only (default 1 = all);
    clamped to >= 1. *)

val set_file : string option -> unit
(** Open (append/create) a file sink, replacing any previous one;
    [None] closes it. *)

val file : unit -> string option
(** Path of the active sink, if any. *)

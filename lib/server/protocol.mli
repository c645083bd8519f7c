(** The Preference SQL wire protocol: length-prefixed frames carrying a
    line-oriented payload.

    A frame is the payload's byte length in ASCII decimal, a newline,
    then exactly that many payload bytes:

    {v 23\nQUERY\nSELECT * FROM car v}

    The payload's first line is the verb. Requests:

    - [QUERY [trace=<id> span=<id>]\n<sql>] — execute Preference SQL (or
      [@name] for a prepared statement)
    - [PREPARE <name> [trace words]\n<sql>] — parse and store a statement
    - [EXPLAIN [ANALYZE] [JSON] [trace words]\n<sql>] — explain the
      statement's plan instead of answering it
    - [SET <key> <value>] — update one engine knob ({!Pref_bmo.Engine.set})
    - [STATS] — server, session and engine counters, with histogram
      summaries as [hist.<name>.<count|sum|p50|p90|p99>] keys
    - [METRICS [JSON]] — the whole metrics registry in Prometheus text
      exposition format (or as a JSON snapshot)
    - [PING] — liveness probe
    - [REFINE [trace words]\n<term>] — revise the session's last
      preference statement to the bare preference [term]
      ({!Pref_engine.Session.refine})
    - [SUBSCRIBE [trace words]\n<sql>] — answer the statement once
      (a ROWS snapshot), then keep the connection open streaming DELTA
      frames as DML changes the result
    - [DML INSERT|DELETE <table> [trace words]\n<csv row>] — single-row
      table mutation; the row is RFC-4180 CSV in the table's column order

    A verb unknown to the receiver yields an [ERR proto] whose message
    lists the known verbs ({!verbs}). The server and the router answer
    the same ten.

    Responses:

    - [ROWS <n> [partial] [truncated] [served=k/n] [trace words]\n<schema>\n<csv rows>]
      — a result relation; the schema line is comma-separated [name:type]
      fields and rows are RFC-4180 CSV in schema column order. [partial]
      marks a deadline-degraded (sound but incomplete) BMO set,
      [truncated] a row-capped one, and [served=k/n] (router responses
      only) says [k] of [n] shards contributed.
    - [DELTA <n_added> <n_removed> [resync] [trace words]\n<schema>\n<csv rows>]
      — a subscription update: the first [n_added] rows entered the BMO
      set, the next [n_removed] left it. [resync] marks a full snapshot
      replacing all previously streamed state (sent after subscriber
      backpressure overflow — discard your view and start from this
      frame's added rows).
    - [OK <text>] — acknowledgement
    - [PONG]
    - [STATS\n<key>=<value> lines]
    - [EXPLAIN\n<plan text or JSON>]
    - [METRICS\n<exposition text or JSON>]
    - [ERR <kind> <retriable|fatal> [trace words]\n<message>] — [retriable]
      means the same request may succeed later (admission-control
      rejections: [busy], [draining]); [fatal] errors will fail again
      unchanged.

    Trace context ({!trace}) rides as [trace=<id> span=<id>] words on the
    verb line of QUERY / PREPARE / EXPLAIN requests, and is echoed the
    same way on the matching ROWS / ERR response. Verb lines are parsed
    word-wise on both sides with unknown words ignored, so traced frames
    interoperate with pre-trace peers in either direction.

    Framing errors (no length line, a non-numeric or oversized length)
    raise {!Framing_error}: the stream cannot be resynchronised, so the
    peer must close the connection. A syntactically valid frame with an
    unparsable payload is recoverable — it yields [Error] from the parse
    functions and an [ERR proto] response, and the connection lives on. *)

open Pref_relation

exception Framing_error of string

val max_frame : int
(** Upper bound on a frame's payload size (16 MiB); bigger lengths raise
    {!Framing_error} on read and [Invalid_argument] on write. *)

(** {1 Frames} *)

val read_frame : ?on_wait:(unit -> unit) -> Unix.file_descr -> string option
(** Read one frame; [None] on a clean EOF at a frame boundary. EOF
    mid-frame, a malformed header, or an oversized length raise
    {!Framing_error}. When the descriptor has a receive timeout,
    [on_wait] runs on every timeout tick (raise from it to abort — the
    server's drain check); by default timeouts just retry. *)

val write_frame : Unix.file_descr -> string -> unit
(** Write one frame, handling short writes. *)

(** {1 Trace context} *)

type trace = { trace_id : string; span_id : string }
(** Client-generated end-to-end trace context. Ids are non-empty
    [A-Za-z0-9._-] strings (they travel as verb-line words, so no
    whitespace); encoding a trace with other characters raises
    [Invalid_argument], and malformed incoming trace words parse as no
    trace rather than an error. *)

val trace_of_words : string list -> trace option
(** Extract [trace=]/[span=] words (exposed for tests). *)

(** {1 Requests} *)

type dml_op = Dml_insert | Dml_delete

type request =
  | Query of { sql : string; trace : trace option }
  | Prepare of { name : string; sql : string; trace : trace option }
  | Explain of {
      sql : string;
      analyze : bool;
      json : bool;
      trace : trace option;
    }
  | Set of string * string
  | Stats
  | Metrics of { json : bool }
  | Ping
  | Refine of { term : string; trace : trace option }
  | Subscribe of { sql : string; trace : trace option }
  | Dml of { op : dml_op; table : string; row : string; trace : trace option }
      (** [row] is one RFC-4180 CSV record in the table's column order;
          the server decodes it against the table's schema. *)

val encode_request : request -> string

val parse_request : string -> (request, string) result
(** Dispatches on the verb (matched case-sensitively); an unknown verb's
    error message lists {!verbs}. *)

val verbs : unit -> string list
(** The verb names, sorted. *)

(** {1 Responses} *)

type response =
  | Rows of {
      relation : Relation.t;
      flags : Pref_bmo.Engine.flags;
      served : (int * int) option;
          (** [(k, n)] when a router answered from [k] of [n] shards; rides
              as a [served=k/n] verb-line word. [None] from a single node. *)
      trace : trace option;  (** request trace, echoed *)
    }
  | Delta of {
      added : Relation.t;
      removed : Relation.t;
      resync : bool;
          (** full snapshot after backpressure overflow: [added] is the
              whole current BMO set; discard previously streamed state *)
      trace : trace option;  (** subscription trace, echoed on every frame *)
    }
  | Done of string
  | Pong
  | Stats_resp of (string * string) list
  | Explain_resp of string  (** plan rendering: text lines, or JSON *)
  | Metrics_resp of string  (** Prometheus exposition text, or JSON *)
  | Err of {
      kind : string;
      retriable : bool;
      message : string;
      trace : trace option;  (** request trace, echoed *)
    }

val encode_response : response -> string
val parse_response : string -> (response, string) result
(** Round-trip inverse of {!encode_response} up to value rendering:
    floats travel as shortest-exact decimals, so relations survive the
    wire unchanged. *)

(** {1 Value rendering}

    Exposed for the shell's remote-result display and the protocol
    tests. *)

val float_wire : float -> string
(** Shortest decimal rendering that parses back to exactly the same
    float ([Value.to_string] is lossy past 6 significant digits). *)

val value_wire : Pref_relation.Value.t -> string
(** [Null] renders as [NULL]; empty strings are indistinguishable from
    [Null] on the wire. *)

val value_of_wire :
  Pref_relation.Value.ty -> string -> Pref_relation.Value.t option

val decode_rows : Schema.t -> string list -> (Tuple.t list, string) result
(** Decode CSV records against a schema — the row codec shared by ROWS /
    DELTA parsing and the server's DML handler. *)

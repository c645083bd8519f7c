(** The scatter-gather router: one wire-protocol endpoint in front of N
    [prefserve] backends — the scatter backend of the serving spine
    ({!Pref_server.Serve}), which owns the listener, the connection
    threads, the frame loop, the drain and the subscriber queues.

    Speaks exactly the {!Pref_server.Protocol} a single server speaks —
    clients (shell, soak driver, benches) cannot tell the difference
    except for the extra [served=k/n] word on ROWS responses. Requests
    are answered on the connection thread, over that connection's
    lazily dialed backend channels. Per request:

    - QUERY over a sharded table: fan the {!Merge}-planned shard
      statement out to every backend in parallel, gather the per-shard
      BMO sets, run the final pass locally, answer one relation.
      Backends that are down, draining, saturated past the retry budget
      or silent past the shard timeout are skipped: the response carries
      [partial] and [served=k/n] instead of failing, as long as at least
      one shard answered. A backend erroring deterministically (parse,
      exec) fails the query — every shard would say the same.
    - QUERY over replicated/unregistered tables: proxied to one healthy
      backend, round-robin.
    - PREPARE is handled entirely at the router (parsed and stored per
      connection; [@name] re-plans the stored statement), so shard
      restarts cannot lose prepared state.
    - SET updates the router-side final-pass config and is forwarded to
      every backend connection, replayed on reconnect; [maxrows] is
      {e not} forwarded — shard-side caps would silently starve the
      final winnow, so the cap applies once, at the final pass.
    - EXPLAIN over a sharded table fans out to the shards, prices the
      scatter-gather plan with {!Pref_bmo.Cost.scatter_gather_ms}
      (slowest shard + per-shard dispatch + final merge) and renders the
      per-shard plans indented underneath.
    - STATS sums the backends' integer counters under a [shards.]
      prefix, adds per-shard [shard.<i>.up] health, and the router's own
      counters. METRICS answers the router process's registry.
    - SUBSCRIBE opens one stream per shard and re-winnows the union of
      the shard BMO sets after every shard delta, publishing the diff to
      the spine's bounded queue: a subscriber that falls 64 frames
      behind gets one [resync] snapshot instead
      ([router.subscription_resyncs]).

    Backend health: a failed connect or lost response marks the shard
    down with exponential backoff (doubling from
    [config.down_backoff_s], capped at 5 s); the next query after the
    backoff re-probes it. *)

type backend = { bhost : string; bport : int }

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port; see {!port} *)
  backends : backend list;  (** shard [i] of [n] is the [i]-th entry *)
  shard_map : Shard_map.t;
  max_connections : int;
  shard_timeout_s : float;
      (** per-shard response budget per request; also bounds the
          busy-retry loop *)
  down_backoff_s : float;  (** initial health backoff after a failure *)
  session_config : Pref_bmo.Engine.config;
      (** final-pass engine config (per connection, mutable via SET) *)
}

val default_config : config
(** No backends — {!start} requires at least one. *)

type t

val start : ?config:config -> ?registry:Pref_sql.Translate.registry -> unit -> t
(** Bind and serve. Raises [Invalid_argument] without backends and
    [Unix.Unix_error] when the bind fails. Backends are dialed lazily,
    per connection, on first use — a backend may come up after the
    router. *)

val port : t -> int
val draining : t -> bool

val counters : t -> (string * int) list
(** The router-local counters (no backend round trips): the spine's
    ([router.active_connections], [router.subscriptions],
    [router.deltas], [router.subscription_resyncs], ...),
    [router.queries], [router.scatter], [router.proxied],
    [router.merged], [router.merge_skipped], [router.partial],
    [router.shard_down], [router.errors] (ERR answers to counted
    requests), [router.backends], plus [shard.<i>.up] /
    [shard.<i>.failures] per backend. *)

val stop : t -> unit
(** Graceful drain, idempotent ({!Pref_server.Serve.stop}): stop
    accepting, let in-flight requests flush, close the subscription
    streams and backend connections. *)

val request_stop : t -> unit
(** Signal-handler-safe: ask {!wait} to run {!stop}. *)

val wait : t -> unit

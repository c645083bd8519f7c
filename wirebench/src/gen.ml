(* Seeded workload generation. Everything the servers receive — the
   tables, the statements, the DML rows — is a pure function of the
   workload seed, so two runs with one seed send byte-identical request
   streams and differ only in timing. *)

open Pref_relation
module Rng = Pref_workload.Rng
module Dist = Pref_workload.Dist
module Cars = Pref_workload.Cars

type workload = Serve_cold | Session_mix | Routed_rw

let workloads = [ Serve_cold; Session_mix; Routed_rw ]

let name = function
  | Serve_cold -> "serve_cold"
  | Session_mix -> "session_mix"
  | Routed_rw -> "routed_rw"

let of_name s = List.find_opt (fun w -> String.equal (name w) s) workloads

let why = function
  | Serve_cold ->
    "every request runs the planner and kernel and encodes its full answer; \
     cache, Revise and Router are bypassed"
  | Session_mix ->
    "cache tiers, Revise, session DML with cache and seed patching, and \
     Incremental deltas do most of the work; the kernel runs only on misses"
  | Routed_rw ->
    "serve_cold's statements through prefroute over 2 shards, so dispatch, \
     shard round trips, gather, final winnow and routed deltas show up"

let table = "cars"

(* The continuous query held by the subscriber connection. *)
let subscription = "SELECT * FROM cars PREFERRING LOWEST(price) AND LOWEST(mileage)"

(* The result cache's default entry cap (Pref_bmo.Cache.create). *)
let cache_entry_cap = 128

type spec = {
  workload : workload;
  seed : int;
  n : int;  (** base table rows *)
  query_clients : int;  (** closed-loop connections issuing requests *)
  subscribe : bool;  (** one more connection holds [subscription] *)
  dml_every : int;
      (** one DML after every [dml_every] sessions (session_mix) or
          operations (routed_rw); 0 for none. A fixed cadence, so every
          run of a given length carries the same share of writes. *)
}

let spec workload seed =
  match workload with
  | Serve_cold ->
    { workload; seed; n = 50_000; query_clients = 2; subscribe = false; dml_every = 0 }
  | Session_mix ->
    (* sessions average 3 operations, so this is about 3% of all
       operations: with the cache full every DML patches each of its
       entries, about a second per write on this table, and a larger
       share would leave too few reads in a run to measure them *)
    { workload; seed; n = 20_000; query_clients = 1; subscribe = true; dml_every = 12 }
  | Routed_rw ->
    { workload; seed; n = 50_000; query_clients = 1; subscribe = true; dml_every = 20 }

(* Independent generator per purpose, so adding draws to one stream never
   shifts another. *)
let rng_for seed purpose = Rng.create ((seed * 1_000_003) + (purpose * 7_919) + 17)

let base_table sp = Cars.relation ~seed:(((sp.seed * 31) + 7) land 0x3fffffff) ~n:sp.n ()

(* ------------------------------------------------------------------ *)
(* serve_cold / routed_rw statements                                   *)

(* Seven templates, so the median and the 90th percentile of a uniform
   draw fall inside one template's latencies rather than on the edge
   between two; the median one is the 3-d Pareto, whose cost varies
   least with the table. The constants are fixed: every workload seed
   sees the same statements, and seeds differ in the table and in the
   draws. *)
let templates =
  [
    (* 2-d and 3-d numeric Pareto: small answers *)
    "SELECT * FROM cars PREFERRING LOWEST(price) AND LOWEST(mileage)";
    "SELECT * FROM cars PREFERRING LOWEST(price) AND HIGHEST(horsepower) AND LOWEST(commission)";
    (* PRIOR TO with ties: answers of hundreds of rows *)
    "SELECT * FROM cars PREFERRING make = 'BMW' PRIOR TO HIGHEST(year) PRIOR TO \
     transmission = 'manual'";
    "SELECT * FROM cars WHERE year >= 1996 PREFERRING LOWEST(price) AND HIGHEST(horsepower)";
    "SELECT * FROM cars PREFERRING LOWEST(price) AND LOWEST(mileage) GROUPING make";
    "SELECT * FROM cars PREFERRING price AROUND 25000 AND HIGHEST(horsepower) BUT ONLY \
     DISTANCE(price) <= 2000";
    (* categorical POS / EXPLICIT; ORDER BY a key makes TOP deterministic
       on every evaluation path *)
    "SELECT * FROM cars PREFERRING color IN ('red', 'black') AND EXPLICIT(category, \
     ('roadster', 'cabriolet')) PRIOR TO LOWEST(price) ORDER BY oid TOP 10";
  ]

type op =
  | Query of string  (** a Preference SQL statement *)
  | Refine of string  (** a bare preference term revising the last statement *)
  | Insert of Tuple.t
  | Delete of Tuple.t

let select_preferring term = "SELECT * FROM cars PREFERRING " ^ term

(* ------------------------------------------------------------------ *)
(* session_mix: a Zipf-drawn pool of base queries, each with a fixed
   chain of revisions                                                  *)

type session = {
  base : string;  (** bare preference term of the base query *)
  refines : string list;  (** the revision chain, 3 terms *)
}

(* Atoms are chosen to keep answers small, since every cached answer is
   patched row by row on DML: mileage is clamped at 0, so LOWEST(mileage)
   ties every unused car of a model year, and commission, a fixed share
   of price, is left out. Year has only its two extremes. *)
let around_grid = function
  | "price" -> List.init 12 (fun i -> 8_000 + (3_000 * i))
  | "mileage" -> List.init 12 (fun i -> 10_000 + (10_000 * i))
  | _ -> List.init 12 (fun i -> 70 + (15 * i))

let atom rng attr =
  match (Rng.int rng 3, attr) with
  | 0, ("price" | "horsepower" | "year") -> Printf.sprintf "LOWEST(%s)" attr
  | (0 | 1), _ | _, "year" -> Printf.sprintf "HIGHEST(%s)" attr
  | _ ->
    Printf.sprintf "%s AROUND %d" attr
      (Rng.choice rng (Array.of_list (around_grid attr)))

let numeric = [| "price"; "mileage"; "horsepower"; "year" |]

let suffix rng =
  match Rng.int rng 3 with
  | 0 -> Printf.sprintf "color = '%s'" (Rng.choice rng Cars.colors)
  | 1 ->
    Printf.sprintf "make IN ('%s', '%s')" (Rng.choice rng Cars.makes)
      (Rng.choice rng Cars.makes)
  | _ -> "HIGHEST(year)"

(* Two chains that between them revise by prior-suffix, Pareto
   extension and contraction. Every contraction returns to the base
   term, which the session's own base query cached; the other two kinds
   run from the revision seed. So the cache holds base queries only, and
   the pool's popularity alone decides the hit rate. *)
let chain rng a b c s =
  let ab = a ^ " AND " ^ b in
  let abc = ab ^ " AND " ^ c and ab_s = Printf.sprintf "(%s) PRIOR TO %s" ab s in
  if Rng.bool rng then [ ab_s; ab; abc ] else [ abc; ab; ab_s ]

let pool_size = 3 * cache_entry_cap

(* The pool comes from a fixed seed: which base queries are popular, and
   so what most sessions cost, is the same for every workload seed. *)
let session_pool =
  let rng = rng_for 2002 2 in
  let seen = Hashtbl.create pool_size in
  let rec fill acc k =
    if k = pool_size then Array.of_list (List.rev acc)
    else begin
      let a_attr = Rng.choice rng (Array.sub numeric 0 3) in
      let others l = Array.of_list (List.filter (fun x -> not (List.mem x l)) (Array.to_list numeric)) in
      let b_attr = Rng.choice rng (others [ a_attr ]) in
      let c_attr = Rng.choice rng (others [ a_attr; b_attr ]) in
      let a = atom rng a_attr and b = atom rng b_attr and c = atom rng c_attr in
      let key = if compare a b < 0 then a ^ "|" ^ b else b ^ "|" ^ a in
      let s = suffix rng in
      let refines = chain rng a b c s in
      if Hashtbl.mem seen key then fill acc k
      else begin
        Hashtbl.add seen key ();
        fill ({ base = a ^ " AND " ^ b; refines } :: acc) (k + 1)
      end
    end
  in
  fill [] 0

(* Before timing, the base queries of the [cache_entry_cap] most popular
   pool entries, least popular first: the cache starts the measured run
   full, its most popular entries most recently used. *)
let warmup sp =
  match sp.workload with
  | Session_mix ->
    List.init cache_entry_cap (fun i ->
        Query (select_preferring session_pool.(cache_entry_cap - 1 - i).base))
  | Serve_cold | Routed_rw -> []

(* ------------------------------------------------------------------ *)
(* Operations and request streams                                      *)

let row_csv row =
  String.concat "," (List.map Pref_server.Protocol.value_wire (Tuple.to_list row))

let request = function
  | Query sql -> Pref_server.Protocol.Query { sql; trace = None }
  | Refine term -> Pref_server.Protocol.Refine { term; trace = None }
  | Insert row ->
    Pref_server.Protocol.Dml
      { op = Pref_server.Protocol.Dml_insert; table; row = row_csv row; trace = None }
  | Delete row ->
    Pref_server.Protocol.Dml
      { op = Pref_server.Protocol.Dml_delete; table; row = row_csv row; trace = None }

let is_dml = function Insert _ | Delete _ -> true | Query _ | Refine _ -> false

(* DML touches only rows the generator itself inserted, so every table
   version is the base table plus a small set of live generated rows —
   the shape the oracle exploits. Half the inserted rows undercut every
   base price, so they enter the subscription's BMO set (and most
   LOWEST(price) answers) and their insert and delete both produce a
   delta; the other half are plain copies under a new oid. *)
type dml_state = {
  base_rows : Tuple.t array;
  min_price : int;
  mutable live : Tuple.t list;
  mutable next_oid : int;
}

let max_live = 16
let price_col = 6

let int_at r i = match r.(i) with Value.Int v -> v | _ -> invalid_arg "Gen: not an int column"

let dml_state base ~first_oid =
  let base_rows = Array.of_list (Relation.rows base) in
  {
    base_rows;
    min_price = Array.fold_left (fun m r -> min m (int_at r price_col)) max_int base_rows;
    live = [];
    next_oid = first_oid;
  }

let new_row st rng =
  let r = Array.copy (Rng.choice rng st.base_rows) in
  r.(0) <- Value.Int st.next_oid;
  st.next_oid <- st.next_oid + 1;
  if Rng.bool rng then
    r.(price_col) <-
      Value.Int (int_of_float (float_of_int st.min_price *. Dist.uniform rng ~lo:0.5 ~hi:0.95));
  r

let dml_op st rng =
  let n_live = List.length st.live in
  if n_live = 0 || (n_live < max_live && Rng.bool rng) then begin
    let r = new_row st rng in
    st.live <- st.live @ [ r ];
    Insert r
  end
  else begin
    let victim = List.nth st.live (Rng.int rng n_live) in
    st.live <- List.filter (fun r -> r != victim) st.live;
    Delete victim
  end

type stream = unit -> op

(* The request stream of closed-loop client [client]. *)
let stream sp ~base ~client : stream =
  let rng = rng_for sp.seed (100 + client) in
  let dml = dml_state base ~first_oid:((10 * sp.n) + (client * sp.n) + 1) in
  let count = ref 0 in
  let dml_due () =
    incr count;
    sp.dml_every > 0 && !count mod sp.dml_every = 0
  in
  match sp.workload with
  | Serve_cold | Routed_rw ->
    (* uniform draws in shuffled rounds: every template equally often, so
       a run's quantiles do not move with the sampled mix *)
    let round = Queue.create () in
    let next_template () =
      if Queue.is_empty round then begin
        let a = Array.of_list templates in
        for i = Array.length a - 1 downto 1 do
          let j = Rng.int rng (i + 1) in
          let x = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- x
        done;
        Array.iter (fun t -> Queue.add t round) a
      end;
      Queue.pop round
    in
    fun () -> if dml_due () then dml_op dml rng else Query (next_template ())
  | Session_mix ->
    let zipf = Dist.zipf rng ~n:pool_size ~s:1.0 in
    let pending = Queue.create () in
    (* a session is a base query and 1..3 refines; DML falls between
       sessions: deleting a best match drops the revision seed, and a
       REFINE without one is an error *)
    let refill () =
      let s = session_pool.(zipf ()) in
      Queue.add (Query (select_preferring s.base)) pending;
      let k = Rng.range rng ~lo:1 ~hi:3 in
      List.iteri (fun i t -> if i < k then Queue.add (Refine t) pending) s.refines;
      if dml_due () then Queue.add (dml_op dml rng) pending
    in
    fun () ->
      if Queue.is_empty pending then refill ();
      Queue.pop pending

(* Client streams interleaved round-robin: the single-threaded order the
   traced run replays. *)
let merged_stream sp ~base : stream =
  let streams = Array.init sp.query_clients (fun client -> stream sp ~base ~client) in
  let turn = ref 0 in
  fun () ->
    let s = streams.(!turn mod Array.length streams) in
    incr turn;
    s ()

(* The first [k] requests of a stream as wire bytes. *)
let stream_bytes (s : stream) k =
  let b = Buffer.create 4096 in
  for _ = 1 to k do
    Buffer.add_string b (Pref_server.Protocol.encode_request (request (s ())));
    Buffer.add_char b '\n'
  done;
  Buffer.contents b

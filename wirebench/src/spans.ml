(* In-memory spans recorded around the calls into each layer's public
   functions, and the self-time arithmetic over them.

   A span that is [on_path] lies on the blocking path of the request as
   the server executes it; spans that re-measure part of an on-path span
   (a sub-step timed separately, a shard's kernel inside a shard round
   trip) are kept for their own metric but left out of the attribution
   sum, so no time is counted twice. *)

type span = {
  id : int;
  name : string;
  req : int;  (** request id; spans of one request share it *)
  parent : int option;
  start_ns : int64;
  end_ns : int64;
  on_path : bool;
  attrs : (string * string) list;
}

type t = { mutable spans : span list; mutable next_id : int }

let create () = { spans = []; next_id = 1 }

let now = Pref_obs.Clock.now_ns

let add t ~req ?parent ?(on_path = true) ?(attrs = []) name ~start_ns ~end_ns =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.spans <- { id; name; req; parent; start_ns; end_ns; on_path; attrs } :: t.spans;
  id

(* Time [f] as one span; returns its result and the span id. *)
let record t ~req ?on_path name f =
  let start_ns = now () in
  let r = f () in
  let end_ns = now () in
  (r, add t ~req ?on_path name ~start_ns ~end_ns)

let time t ~req ?on_path name f = fst (record t ~req ?on_path name f)

let spans t = List.rev t.spans
let ms_of ns = Int64.to_float ns /. 1e6

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if Int64.compare a b < 0 then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if Int64.compare a cb <= 0 then (total, Some (ca, max cb b))
          else (Int64.add total (Int64.sub cb ca), Some (a, b)))
      (0L, None) clipped
  in
  match last with None -> total | Some (a, b) -> Int64.add total (Int64.sub b a)

(* Every span with its self time: its duration minus the part of its
   interval its children cover. *)
let self_times all =
  let by_parent = Hashtbl.create 256 in
  List.iter
    (fun c -> Option.iter (fun p -> Hashtbl.add by_parent p (c.start_ns, c.end_ns)) c.parent)
    all;
  List.map
    (fun s ->
      let children = Hashtbl.find_all by_parent s.id in
      ( s,
        ms_of
          (Int64.sub (Int64.sub s.end_ns s.start_ns)
             (covered ~lo:s.start_ns ~hi:s.end_ns children)) ))
    all

(* Summed self time of the on-path spans of each request. *)
let attributed_ms selfs =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun (s, ms) ->
      if s.on_path then
        Hashtbl.replace tbl s.req (ms +. Option.value ~default:0. (Hashtbl.find_opt tbl s.req)))
    selfs;
  tbl

let to_json s self =
  Pref_obs.Json.Obj
    ([
       ("id", Pref_obs.Json.Int s.id);
       ("name", Pref_obs.Json.Str s.name);
       ("req", Pref_obs.Json.Int s.req);
       ("parent", match s.parent with Some p -> Pref_obs.Json.Int p | None -> Pref_obs.Json.Null);
       ("start_ns", Pref_obs.Json.Str (Int64.to_string s.start_ns));
       ("end_ns", Pref_obs.Json.Str (Int64.to_string s.end_ns));
       ("self_ms", Pref_obs.Json.Float self);
       ("on_path", Pref_obs.Json.Bool s.on_path);
     ]
    @ List.map (fun (k, v) -> (k, Pref_obs.Json.Str v)) s.attrs)

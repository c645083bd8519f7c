(* A deliberately tiny HTTP/1.0 GET responder for metrics scrapes. One
   accept thread, one request per connection, response then close — a
   Prometheus scraper needs nothing more, and anything more (keep-alive,
   chunking, a real parser) would be dead weight next to the wire
   protocol the actual clients use. *)

type t = {
  fd : Unix.file_descr;
  bound_port : int;
  stop : bool Atomic.t;
  mutable thread : Thread.t option;
}

let http_response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
     close\r\n\r\n%s"
    status content_type (String.length body) body

let request_path line =
  (* "GET /metrics HTTP/1.1" — anything else is a 400 *)
  match String.split_on_char ' ' (String.trim line) with
  | [ "GET"; path; _version ] -> Some path
  | _ -> None

(* Read up to the end of the request line; the rest of the request
   (headers) is irrelevant and may be cut off mid-flight. *)
let read_request_line fd =
  let buf = Buffer.create 64 in
  let chunk = Bytes.create 256 in
  let rec go () =
    if Buffer.length buf > 4096 then None
    else
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> None
      | n -> (
        Buffer.add_subbytes buf chunk 0 n;
        match String.index_opt (Buffer.contents buf) '\n' with
        | Some i -> Some (String.sub (Buffer.contents buf) 0 i)
        | None -> go ())
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        None
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let answer fd =
  let body =
    match read_request_line fd with
    | None -> http_response ~status:"400 Bad Request" ~content_type:"text/plain" "bad request\n"
    | Some line -> (
      match request_path line with
      | None ->
        http_response ~status:"405 Method Not Allowed" ~content_type:"text/plain"
          "only GET is supported\n"
      | Some path -> (
        match Pref_obs.Export.content path with
        | Some (content_type, payload) ->
          http_response ~status:"200 OK" ~content_type payload
        | None ->
          http_response ~status:"404 Not Found" ~content_type:"text/plain"
            "not found; try /metrics or /metrics.json\n"))
  in
  let n = String.length body in
  let rec write off =
    if off < n then
      match Unix.write_substring fd body off (n - off) with
      | written -> write (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> write off
  in
  write 0

let start ?(host = "127.0.0.1") ~port () =
  let fd, bound_port = Serve.listen ~host ~port in
  let t = { fd; bound_port; stop = Atomic.make false; thread = None } in
  let answer_inline conn =
    (* scrapes are rare (seconds apart) and the render is cheap: serve
       inline on the accept thread *)
    Unix.setsockopt_float conn Unix.SO_RCVTIMEO 1.0;
    (try answer conn with _ -> ());
    try Unix.close conn with _ -> ()
  in
  let stop () = Atomic.get t.stop in
  t.thread <- Some (Thread.create (fun () -> Serve.accept_loop fd ~stop answer_inline) ());
  t

let port t = t.bound_port

let stop t =
  if not (Atomic.get t.stop) then begin
    Atomic.set t.stop true;
    Option.iter Thread.join t.thread;
    t.thread <- None;
    try Unix.close t.fd with _ -> ()
  end

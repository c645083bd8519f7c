open Pref_relation

exception Framing_error of string

let () =
  Printexc.register_printer (function
    | Framing_error msg -> Some ("Pref_server.Protocol.Framing_error: " ^ msg)
    | _ -> None)

let max_frame = 16 * 1024 * 1024

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)

let is_wait_error = function
  | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR -> true
  | _ -> false

let rec read_retry on_wait fd buf off len =
  match Unix.read fd buf off len with
  | n -> n
  | exception Unix.Unix_error (e, _, _) when is_wait_error e ->
    on_wait ();
    read_retry on_wait fd buf off len

(* The length header is tiny, so byte-at-a-time reads cost nothing
   compared to the payload transfer. *)
let read_header on_wait fd =
  let buf = Bytes.create 1 in
  let rec go acc n =
    if n > 10 then raise (Framing_error "length header too long")
    else
      match read_retry on_wait fd buf 0 1 with
      | 0 ->
        if acc = [] then None
        else raise (Framing_error "eof inside length header")
      | _ ->
        let c = Bytes.get buf 0 in
        if c = '\n' then
          if acc = [] then raise (Framing_error "empty length header")
          else Some (String.init n (fun i -> List.nth (List.rev acc) i))
        else if c >= '0' && c <= '9' then go (c :: acc) (n + 1)
        else raise (Framing_error "non-digit in length header")
  in
  go [] 0

let read_exact on_wait fd len =
  let buf = Bytes.create len in
  let rec go off =
    if off < len then
      match read_retry on_wait fd buf off (len - off) with
      | 0 -> raise (Framing_error "eof inside frame payload")
      | n -> go (off + n)
  in
  go 0;
  Bytes.unsafe_to_string buf

let read_frame ?(on_wait = fun () -> ()) fd =
  match read_header on_wait fd with
  | None -> None
  | Some header -> (
    match int_of_string_opt header with
    | Some len when len >= 0 && len <= max_frame ->
      Some (read_exact on_wait fd len)
    | Some _ ->
      raise (Framing_error (Printf.sprintf "frame length %s too large" header))
    | None -> raise (Framing_error "unreadable frame length"))

let write_frame fd payload =
  let n = String.length payload in
  if n > max_frame then invalid_arg "Protocol.write_frame: payload too large";
  let msg = Bytes.of_string (Printf.sprintf "%d\n%s" n payload) in
  let total = Bytes.length msg in
  let rec go off =
    if off < total then go (off + Unix.write fd msg off (total - off))
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Payload helpers                                                     *)

let split_verb payload =
  match String.index_opt payload '\n' with
  | Some i ->
    ( String.sub payload 0 i,
      String.sub payload (i + 1) (String.length payload - i - 1) )
  | None -> (payload, "")

let words s =
  String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

(* RFC-4180 quoting, matching the CSV loader's [split_line]. *)
let quote_field s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

(* Split a CSV body into records on newlines that sit outside quotes, so
   quoted fields may carry embedded newlines across the wire. *)
let split_records body =
  let n = String.length body in
  let records = ref [] in
  let start = ref 0 in
  let in_quotes = ref false in
  for i = 0 to n - 1 do
    match body.[i] with
    | '"' -> in_quotes := not !in_quotes
    | '\n' when not !in_quotes ->
      records := String.sub body !start (i - !start) :: !records;
      start := i + 1
    | _ -> ()
  done;
  if !start < n then records := String.sub body !start (n - !start) :: !records;
  List.rev !records

let ty_of_string = function
  | "bool" -> Some Value.TBool
  | "int" -> Some Value.TInt
  | "float" -> Some Value.TFloat
  | "string" -> Some Value.TStr
  | "date" -> Some Value.TDate
  | _ -> None

(* Floats travel as the shortest decimal that parses back exactly; the
   engine's display rendering ([Value.to_string]) is lossy past 6
   significant digits. *)
let float_wire f =
  let s = Printf.sprintf "%.15g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

let value_wire = function
  | Value.Null -> "NULL"
  | Value.Float f when not (Float.is_integer f) -> float_wire f
  | v -> Value.to_string v

let value_of_wire ty s =
  if s = "" || s = "NULL" then Some Value.Null else Value.of_string_as ty s

let schema_wire schema =
  String.concat ","
    (List.map
       (fun (name, ty) -> quote_field (name ^ ":" ^ Value.ty_to_string ty))
       schema)

let schema_of_wire line =
  if line = "" then Ok []
  else
    let fields = Csv.split_line line in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | f :: rest -> (
        match String.rindex_opt f ':' with
        | None -> Error (Printf.sprintf "schema field %S has no type" f)
        | Some i -> (
          let name = String.sub f 0 i in
          let ty = String.sub f (i + 1) (String.length f - i - 1) in
          match ty_of_string ty with
          | Some ty -> go ((name, ty) :: acc) rest
          | None -> Error (Printf.sprintf "unknown column type %S" ty)))
    in
    go [] fields

(* ------------------------------------------------------------------ *)
(* Trace context                                                       *)

(* Trace context travels as [trace=<id> span=<id>] words on the verb
   line — both sides parse verb lines word-wise and ignore words they do
   not know, so traced frames remain readable by pre-trace peers. *)
type trace = { trace_id : string; span_id : string }

let valid_trace_id s =
  s <> ""
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> true
         | _ -> false)
       s

let trace_words = function
  | None -> ""
  | Some { trace_id; span_id } ->
    if not (valid_trace_id trace_id && valid_trace_id span_id) then
      invalid_arg "Protocol: trace ids must be non-empty [A-Za-z0-9._-]"
    else Printf.sprintf " trace=%s span=%s" trace_id span_id

let word_value key w =
  let prefix = key ^ "=" in
  let pl = String.length prefix in
  if String.length w > pl && String.sub w 0 pl = prefix then
    Some (String.sub w pl (String.length w - pl))
  else None

let trace_of_words ws =
  match
    ( List.find_map (word_value "trace") ws,
      List.find_map (word_value "span") ws )
  with
  | Some trace_id, Some span_id when valid_trace_id trace_id && valid_trace_id span_id
    ->
    Some { trace_id; span_id }
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)

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

let encode_request = function
  | Query { sql; trace } -> Printf.sprintf "QUERY%s\n%s" (trace_words trace) sql
  | Prepare { name; sql; trace } ->
    Printf.sprintf "PREPARE %s%s\n%s" name (trace_words trace) sql
  | Explain { sql; analyze; json; trace } ->
    Printf.sprintf "EXPLAIN%s%s%s\n%s"
      (if analyze then " ANALYZE" else "")
      (if json then " JSON" else "")
      (trace_words trace) sql
  | Set (key, value) -> Printf.sprintf "SET %s %s" key value
  | Stats -> "STATS"
  | Metrics { json } -> if json then "METRICS JSON" else "METRICS"
  | Ping -> "PING"
  | Refine { term; trace } ->
    Printf.sprintf "REFINE%s\n%s" (trace_words trace) term
  | Subscribe { sql; trace } ->
    Printf.sprintf "SUBSCRIBE%s\n%s" (trace_words trace) sql
  | Dml { op; table; row; trace } ->
    Printf.sprintf "DML %s %s%s\n%s"
      (match op with Dml_insert -> "INSERT" | Dml_delete -> "DELETE")
      table (trace_words trace) row

(* Table-driven request parsing: each verb maps to a parser taking the
   remaining verb-line words and the body; the unknown-verb error
   enumerates the table. *)

let need_body verb rest k =
  if String.trim rest = "" then
    Error (Printf.sprintf "%s needs a statement" verb)
  else k rest

let request_parsers : (string * (string list -> string -> (request, string) result)) list =
  [
    ( "QUERY",
      fun opts rest ->
        need_body "QUERY" rest (fun sql ->
            Ok (Query { sql; trace = trace_of_words opts })) );
    ( "PREPARE",
      fun opts rest ->
        match opts with
        | name :: opts ->
          need_body "PREPARE" rest (fun sql ->
              Ok (Prepare { name; sql; trace = trace_of_words opts }))
        | [] -> Error "PREPARE needs a statement name" );
    ( "EXPLAIN",
      fun opts rest ->
        need_body "EXPLAIN" rest (fun sql ->
            Ok
              (Explain
                 {
                   sql;
                   analyze = List.mem "ANALYZE" opts;
                   json = List.mem "JSON" opts;
                   trace = trace_of_words opts;
                 })) );
    ( "SET",
      fun opts _rest ->
        match opts with
        | key :: (_ :: _ as value) -> Ok (Set (key, String.concat " " value))
        | _ -> Error "SET needs a key and a value" );
    ("STATS", fun _ _ -> Ok Stats);
    ("METRICS", fun opts _ -> Ok (Metrics { json = List.mem "JSON" opts }));
    ("PING", fun _ _ -> Ok Ping);
    ( "REFINE",
      fun opts rest ->
        need_body "REFINE" rest (fun term ->
            Ok (Refine { term; trace = trace_of_words opts })) );
    ( "SUBSCRIBE",
      fun opts rest ->
        need_body "SUBSCRIBE" rest (fun sql ->
            Ok (Subscribe { sql; trace = trace_of_words opts })) );
    ( "DML",
      fun opts rest ->
        match opts with
        | op_word :: table :: opts -> (
          let op =
            match String.uppercase_ascii op_word with
            | "INSERT" -> Some Dml_insert
            | "DELETE" -> Some Dml_delete
            | _ -> None
          in
          match op with
          | None ->
            Error
              (Printf.sprintf "DML operation must be INSERT or DELETE, got %S"
                 op_word)
          | Some op ->
            need_body "DML" rest (fun row ->
                Ok (Dml { op; table; row; trace = trace_of_words opts })))
        | _ -> Error "DML needs an operation and a table" );
  ]

let verbs () = List.sort compare (List.map fst request_parsers)

let parse_request payload =
  let verb_line, rest = split_verb payload in
  match words verb_line with
  | verb :: opts -> (
    match List.assoc_opt verb request_parsers with
    | Some parser -> parser opts rest
    | None ->
      Error
        (Printf.sprintf "unknown verb %S (expected one of: %s)" verb
           (String.concat ", " (verbs ()))))
  | [] -> Error "empty request"

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)

type response =
  | Rows of {
      relation : Relation.t;
      flags : Pref_bmo.Engine.flags;
      served : (int * int) option;
      trace : trace option;
    }
  | Delta of {
      added : Relation.t;
      removed : Relation.t;  (** same schema as [added] *)
      resync : bool;
      trace : trace option;
    }
  | Done of string
  | Pong
  | Stats_resp of (string * string) list
  | Explain_resp of string
  | Metrics_resp of string
  | Err of {
      kind : string;
      retriable : bool;
      message : string;
      trace : trace option;
    }

let served_word = function
  | None -> ""
  | Some (k, n) -> Printf.sprintf " served=%d/%d" k n

let served_of_words ws =
  match List.find_map (word_value "served") ws with
  | None -> None
  | Some s -> (
    match String.split_on_char '/' s with
    | [ k; n ] -> (
      match (int_of_string_opt k, int_of_string_opt n) with
      | Some k, Some n when k >= 0 && n > 0 && k <= n -> Some (k, n)
      | _ -> None)
    | _ -> None)

let add_csv_rows buf rows =
  List.iter
    (fun row ->
      Buffer.add_char buf '\n';
      Buffer.add_string buf
        (String.concat ","
           (List.map (fun v -> quote_field (value_wire v)) (Tuple.to_list row))))
    rows

let encode_response = function
  | Rows { relation; flags; served; trace } ->
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      (Printf.sprintf "ROWS %d%s%s%s%s\n"
         (Relation.cardinality relation)
         (if flags.Pref_bmo.Engine.partial then " partial" else "")
         (if flags.Pref_bmo.Engine.truncated then " truncated" else "")
         (served_word served) (trace_words trace));
    Buffer.add_string buf (schema_wire (Relation.schema relation));
    add_csv_rows buf (Relation.rows relation);
    Buffer.contents buf
  | Delta { added; removed; resync; trace } ->
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      (Printf.sprintf "DELTA %d %d%s%s\n"
         (Relation.cardinality added)
         (Relation.cardinality removed)
         (if resync then " resync" else "")
         (trace_words trace));
    Buffer.add_string buf (schema_wire (Relation.schema added));
    add_csv_rows buf (Relation.rows added);
    add_csv_rows buf (Relation.rows removed);
    Buffer.contents buf
  | Done "" -> "OK"
  | Done text -> "OK " ^ text
  | Pong -> "PONG"
  | Stats_resp kvs ->
    String.concat "\n"
      ("STATS" :: List.map (fun (k, v) -> k ^ "=" ^ v) kvs)
  | Explain_resp body -> "EXPLAIN\n" ^ body
  | Metrics_resp body -> "METRICS\n" ^ body
  | Err { kind; retriable; message; trace } ->
    Printf.sprintf "ERR %s %s%s\n%s" kind
      (if retriable then "retriable" else "fatal")
      (trace_words trace) message

let decode_rows schema records =
  let rec rows acc = function
    | [] -> Ok (List.rev acc)
    | record :: rest -> (
      let fields = Csv.split_line record in
      if List.length fields <> List.length schema then
        Error (Printf.sprintf "row %S does not match the schema" record)
      else
        match
          List.fold_right2
            (fun (_, ty) field acc ->
              match acc, value_of_wire ty field with
              | Some vs, Some v -> Some (v :: vs)
              | _ -> None)
            schema fields (Some [])
        with
        | Some vs -> rows (Tuple.make vs :: acc) rest
        | None ->
          Error
            (Printf.sprintf "row %S does not decode as %s" record
               (schema_wire schema)))
  in
  rows [] records

let parse_rows verb_words body =
  match verb_words with
  | count :: flag_words -> (
    match int_of_string_opt count with
    | None -> Error (Printf.sprintf "unreadable row count %S" count)
    | Some count -> (
      let flags =
        {
          Pref_bmo.Engine.partial = List.mem "partial" flag_words;
          truncated = List.mem "truncated" flag_words;
        }
      in
      let trace = trace_of_words flag_words in
      let served = served_of_words flag_words in
      match split_records body with
      | [] -> Error "ROWS response without a schema line"
      | schema_line :: records -> (
        match schema_of_wire schema_line with
        | Error _ as e -> e
        | Ok schema ->
          if List.length records <> count then
            Error
              (Printf.sprintf "expected %d row(s), got %d" count
                 (List.length records))
          else (
            match decode_rows schema records with
            | Ok tuples ->
              Ok
                (Rows
                   {
                     relation = Relation.make schema tuples;
                     flags;
                     served;
                     trace;
                   })
            | Error _ as e -> e))))
  | [] -> Error "ROWS response without a row count"

let parse_delta verb_words body =
  match verb_words with
  | n_added :: n_removed :: flag_words -> (
    match (int_of_string_opt n_added, int_of_string_opt n_removed) with
    | Some n_added, Some n_removed when n_added >= 0 && n_removed >= 0 -> (
      match split_records body with
      | [] -> Error "DELTA response without a schema line"
      | schema_line :: records -> (
        match schema_of_wire schema_line with
        | Error _ as e -> e
        | Ok schema ->
          if List.length records <> n_added + n_removed then
            Error
              (Printf.sprintf "expected %d delta row(s), got %d"
                 (n_added + n_removed) (List.length records))
          else (
            match decode_rows schema records with
            | Ok tuples ->
              let added = List.filteri (fun i _ -> i < n_added) tuples in
              let removed = List.filteri (fun i _ -> i >= n_added) tuples in
              Ok
                (Delta
                   {
                     added = Relation.make schema added;
                     removed = Relation.make schema removed;
                     resync = List.mem "resync" flag_words;
                     trace = trace_of_words flag_words;
                   })
            | Error _ as e -> e)))
    | _ -> Error "unreadable DELTA counts")
  | _ -> Error "DELTA response needs added and removed counts"

let parse_response payload =
  let verb_line, rest = split_verb payload in
  match words verb_line with
  | "ROWS" :: vw -> parse_rows vw rest
  | "DELTA" :: vw -> parse_delta vw rest
  | "OK" :: text -> Ok (Done (String.concat " " text))
  | [ "PONG" ] -> Ok Pong
  | "EXPLAIN" :: _ -> Ok (Explain_resp rest)
  | "METRICS" :: _ -> Ok (Metrics_resp rest)
  | [ "STATS" ] ->
    let kvs =
      List.filter_map
        (fun line ->
          if line = "" then None
          else
            match String.index_opt line '=' with
            | Some i ->
              Some
                ( String.sub line 0 i,
                  String.sub line (i + 1) (String.length line - i - 1) )
            | None -> Some (line, ""))
        (String.split_on_char '\n' rest)
    in
    Ok (Stats_resp kvs)
  | "ERR" :: kind :: how :: extra ->
    Ok
      (Err
         {
           kind;
           retriable = how = "retriable";
           message = rest;
           trace = trace_of_words extra;
         })
  | verb :: _ -> Error (Printf.sprintf "unknown response verb %S" verb)
  | [] -> Error "empty response"

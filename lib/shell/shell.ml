open Pref_relation
open Preferences
open Pref_sql
module Session = Pref_engine.Session
module Revise = Pref_engine.Revise
module Client = Pref_server.Client

(* All engine knobs (algorithm, domains, cache, check, profile, deadline,
   maxrows) live in the session's [Pref_bmo.Engine.config]; the shell
   only keeps what is presentation-level: explain mode, the preference
   repository, and an optional remote connection. *)
type t = {
  session : Session.t;
  mutable remote : remote option;
  mutable explain : bool;
  repository : Repository.t;
  registry : Translate.registry;
}

and remote = { client : Client.t; rhost : string; rport : int }

type response = {
  text : string list;  (** informational lines, in order *)
  table : Relation.t option;  (** a relation to render, if any *)
  quit : bool;
}

let plain text = { text; table = None; quit = false }
let table ?(text = []) rel = { text; table = Some rel; quit = false }

let create ?(registry = Translate.default_registry) () =
  Pref_analysis.Install.install ();
  {
    session = Session.create ~registry ();
    remote = None;
    explain = false;
    repository =
      Repository.create
        ~registry:
          {
            Serialize.scores = registry.Translate.scores;
            combiners = registry.Translate.combiners;
          }
        ();
    registry;
  }

let env shell = Session.env shell.session
let config shell = Session.config shell.session
let add_table shell name rel = Session.add_table shell.session name rel

let load_table shell name path =
  let rel = Csv.load path in
  add_table shell name rel;
  Fmt.str "loaded %s: %a" (String.lowercase_ascii name) Relation.pp rel

(* $name references in queries expand to the stored preference's surface
   syntax. *)
let expand_references shell src =
  let buf = Buffer.create (String.length src) in
  let n = String.length src in
  let is_ident c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '_' || c = '-' || c = '/'
  in
  let rec go i =
    if i >= n then Buffer.contents buf
    else if src.[i] = '$' then begin
      let j = ref (i + 1) in
      while !j < n && is_ident src.[!j] do
        incr j
      done;
      let name = String.sub src (i + 1) (!j - i - 1) in
      if name = "" then begin
        Buffer.add_char buf '$';
        go (i + 1)
      end
      else
        match Repository.find shell.repository name with
        | None -> failwith (Printf.sprintf "no stored preference named %S" name)
        | Some e -> (
          match Unparse.to_preferring e.Repository.term with
          | Some text ->
            Buffer.add_char buf '(';
            Buffer.add_string buf text;
            Buffer.add_char buf ')';
            go !j
          | None ->
            failwith
              (Printf.sprintf
                 "stored preference %S has no Preference SQL syntax" name))
    end
    else begin
      Buffer.add_char buf src.[i];
      go (i + 1)
    end
  in
  go 0

let check_lines shell src =
  Pref_analysis.Diagnostic.to_lines
    (Pref_analysis.Flow_check.check_source ~registry:shell.registry
       ~env:(env shell) src)

let flags_text (flags : Pref_bmo.Engine.flags) =
  (if flags.Pref_bmo.Engine.partial then
     [ "-- partial: deadline exceeded; this is the BMO set of the scanned \
        prefix" ]
   else [])
  @
  if flags.Pref_bmo.Engine.truncated then [ "-- truncated: maxrows cap" ]
  else []

let run_sql shell src =
  let src = expand_references shell src in
  match shell.remote with
  | Some r -> (
    (* prepared-statement references and knobs live server-side *)
    match Client.query r.client src with
    | Ok (rel, flags) -> table ~text:(flags_text flags) rel
    | Error msg -> failwith msg)
  | None ->
    let cfg = config shell in
    let lint_text =
      (* error-severity findings abort below via [Exec.Rejected]; what gets
         this far is warnings and hints *)
      if cfg.Pref_bmo.Engine.check then
        List.map (fun l -> "-- " ^ l) (check_lines shell src)
      else []
    in
    let result = Session.run shell.session src in
    let explain_text =
      if shell.explain then
        match result.Exec.preference with
        | Some p -> [ Fmt.str "-- preference: %a" Show.pp p ]
        | None -> [ "-- preference: (none - exact match query)" ]
      else []
    in
    let profile_text =
      match result.Exec.profile with
      | Some prof when cfg.Pref_bmo.Engine.profile ->
        "-- profile:"
        :: List.map (fun l -> "--   " ^ l) (Pref_obs.Profile.to_lines prof)
      | Some _ | None -> []
    in
    table
      ~text:
        (lint_text @ flags_text result.Exec.flags @ explain_text @ profile_text)
      result.Exec.relation

let split_words s = String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

let pref_command shell = function
  | [ "add"; name ] -> plain [ Printf.sprintf "usage: .pref add %s <preference>" name ]
  | "add" :: name :: rest ->
    let src = String.concat " " rest in
    let term = Translate.pref ~registry:shell.registry (Parser.parse_pref src) in
    Repository.replace shell.repository ~name term;
    plain [ Fmt.str "stored %s = %a" name Show.pp term ]
  | [ "list" ] ->
    if Repository.size shell.repository = 0 then plain [ "(no stored preferences)" ]
    else
      plain
        (List.map
           (fun e ->
             Fmt.str "  %-16s %a" e.Repository.name Show.pp e.Repository.term)
           (Repository.entries shell.repository))
  | [ "del"; name ] ->
    if Repository.remove shell.repository name then plain [ "removed " ^ name ]
    else plain [ Printf.sprintf "no stored preference named %S" name ]
  | [ "save"; path ] ->
    Repository.save path shell.repository;
    plain [ Printf.sprintf "saved %d preference(s) to %s" (Repository.size shell.repository) path ]
  | [ "load"; path ] ->
    let loaded =
      Repository.load
        ~registry:
          {
            Serialize.scores = shell.registry.Translate.scores;
            combiners = shell.registry.Translate.combiners;
          }
        path
    in
    List.iter
      (fun e ->
        Repository.replace shell.repository ~owner:e.Repository.owner
          ~description:e.Repository.description ~name:e.Repository.name
          e.Repository.term)
      (Repository.entries loaded);
    plain [ Printf.sprintf "loaded %d preference(s)" (Repository.size loaded) ]
  | _ -> plain [ "usage: .pref add <name> <pref> | list | del <name> | save <f> | load <f>" ]

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match In_channel.input_line ic with
    | Some line -> go (line :: acc)
    | None ->
      close_in ic;
      List.rev acc
  in
  go []

let mine_command shell path =
  let lines = read_lines path in
  let term, reports = Pref_mining.Miner.mine_log lines in
  let report_lines =
    List.map
      (fun r ->
        Fmt.str "  %-16s %3d events   %s" r.Pref_mining.Miner.attr
          r.Pref_mining.Miner.occurrences
          (match r.Pref_mining.Miner.mined with
          | Some p -> Show.to_string p
          | None -> "(no stable signal)"))
      reports
  in
  match term with
  | None -> plain (report_lines @ [ "no preference could be mined" ])
  | Some p ->
    Repository.replace shell.repository ~description:("mined from " ^ path)
      ~name:"mined" p;
    plain
      (report_lines
      @ [ Fmt.str "mined preference (stored as $mined): %a" Show.pp p ])

let cache_command args =
  let cache = Pref_bmo.Cache.global in
  match args with
  | [] | [ "stats" ] -> Ok (plain (Pref_bmo.Cache.stats_lines cache))
  | [ "on" ] ->
    Pref_bmo.Cache.set_enabled true;
    Ok (plain [ "cache: on" ])
  | [ "off" ] ->
    Pref_bmo.Cache.set_enabled false;
    Ok (plain [ "cache: off" ])
  | [ "clear" ] ->
    Pref_bmo.Cache.clear cache;
    Ok (plain [ "cache cleared" ])
  | [ "budget"; n ] -> (
    match int_of_string_opt n with
    | Some mib when mib >= 1 ->
      Pref_bmo.Cache.set_budget cache ~budget_bytes:(mib * 1024 * 1024) ();
      Ok (plain [ Printf.sprintf "cache budget: %d MiB" mib ])
    | Some _ | None ->
      Error (Printf.sprintf "budget must be a positive MiB count, got %s" n))
  | _ -> Error "usage: \\cache [on|off|stats|clear|budget <MiB>]"

let parse_row schema spec =
  let fields = String.split_on_char ',' spec |> List.map String.trim in
  let want = List.length schema and got = List.length fields in
  if want <> got then
    failwith (Printf.sprintf "expected %d value(s), got %d" want got)
  else
    Tuple.make
      (List.map2
         (fun (name, ty) field ->
           match Value.of_string_as ty field with
           | Some v -> v
           | None ->
             failwith
               (Printf.sprintf "%s: cannot read %S as %s" name field
                  (Value.ty_to_string ty)))
         schema fields)

let no_table shell name =
  Exec.unknown_table_message ~name
    ~hint:(Typo.nearest (List.map fst (env shell)) name)

(* Single-tuple DML, delegated to {!Session.insert}/[delete] (or the DML
   wire verb when connected): cached BMO results are patched
   incrementally instead of recomputed, and the session's revision seed
   stays consistent for \refine. *)
let dml_command shell op name spec =
  match shell.remote with
  | Some r -> (
    let reply =
      match op with
      | `Insert -> Client.insert r.client ~table:name spec
      | `Delete -> Client.delete r.client ~table:name spec
    in
    match reply with
    | Ok line -> Ok (plain [ line ])
    | Error msg -> Error msg)
  | None -> (
    match Exec.find_table (env shell) name with
    | None -> Error (no_table shell name)
    | Some rel -> (
      let row = parse_row (Relation.schema rel) spec in
      let describe verb patched =
        let rel' =
          match Session.find_table shell.session name with
          | Some rel' -> rel'
          | None -> rel
        in
        plain
          [
            Fmt.str "%s %s: %a — %d cached result(s) patched" verb
              (String.lowercase_ascii name) Relation.pp rel' patched;
          ]
      in
      match op with
      | `Insert -> Ok (describe "inserted into" (Session.insert shell.session name row))
      | `Delete -> (
        match Session.delete shell.session name row with
        | Some patched -> Ok (describe "deleted from" patched)
        | None -> Error (Printf.sprintf "no row in %s matches" name))))

(* \refine [explain] <term> — revise the last preference statement in
   place ({!Session.refine}); connected shells use the REFINE wire verb
   so the revision works from the server session's seed. *)
let refine_command shell args =
  let explain, args =
    match args with
    | w :: rest when String.lowercase_ascii w = "explain" -> (true, rest)
    | args -> (false, args)
  in
  if args = [] then Error "usage: \\refine [explain] <preference term>"
  else
    let term = expand_references shell (String.concat " " args) in
    match shell.remote with
    | Some r ->
      if explain then
        Error "\\refine explain works on the local session only"
      else (
        match Client.refine r.client term with
        | Ok (rel, flags) -> Ok (table ~text:(flags_text flags) rel)
        | Error msg -> Error msg)
    | None ->
      if explain then
        Ok (plain (Pref_bmo.Explain.Plan.to_text (Session.refine_explain shell.session term)))
      else
        let o = Session.refine shell.session term in
        let r = o.Revise.o_result in
        Ok
          (table
             ~text:
               (Fmt.str "-- refine: %s (%s; seed %d row(s))"
                  (Revise.kind_to_string o.Revise.o_kind)
                  o.Revise.o_plan o.Revise.o_seed_rows
               :: flags_text r.Exec.flags)
             r.Exec.relation)

(* One engine knob, routed to wherever the session lives: the local
   [Session.set] or the server's [SET] verb. This is the single path for
   .algorithm / .set / .lint / .profile — no per-knob plumbing. *)
let set_knob shell key value =
  match shell.remote with
  | Some r -> (
    match Client.set r.client ~key ~value with
    | Ok line -> Ok (plain [ line ])
    | Error msg -> Error msg)
  | None -> (
    match Session.set shell.session ~key ~value with
    | Ok line -> Ok (plain [ line ])
    | Error msg -> Error msg)

let set_profile shell on =
  (* [\profile] also flips the engine-wide telemetry switch so spans and
     metrics accumulate while profiling *)
  if shell.remote = None then Pref_obs.Control.set_enabled on;
  set_knob shell "profile" (if on then "on" else "off")

let disconnect shell =
  match shell.remote with
  | None -> Error "not connected"
  | Some r ->
    Client.close r.client;
    shell.remote <- None;
    Ok (plain [ Printf.sprintf "disconnected from %s:%d" r.rhost r.rport ])

let connect shell host port =
  (match shell.remote with Some _ -> ignore (disconnect shell) | None -> ());
  let client = Client.connect ~host ~port () in
  if not (Client.ping client) then begin
    Client.close client;
    Error (Printf.sprintf "%s:%d did not answer PING" host port)
  end
  else begin
    shell.remote <- Some { client; rhost = host; rport = port };
    Ok
      (plain
         [
           Printf.sprintf
             "connected to %s:%d — queries, .set, .prepare and .stats now \
              run server-side"
             host port;
         ])
  end

let stats_command shell rest =
  match (shell.remote, rest) with
  | Some r, [] -> (
    match Client.stats r.client with
    | Ok kvs -> Ok (plain (List.map (fun (k, v) -> k ^ "=" ^ v) kvs))
    | Error msg -> Error msg)
  | Some _, _ -> Error "remote .stats takes no arguments"
  | None, [] -> (
    match Pref_obs.Metrics.dump () with
    | [] -> Ok (plain [ "(no metrics registered)" ])
    | lines -> Ok (plain lines))
  | None, [ "reset" ] ->
    Pref_obs.Metrics.reset ();
    Ok (plain [ "metrics reset" ])
  | None, [ "json" ] ->
    Ok (plain [ Pref_obs.Json.to_string (Pref_obs.Metrics.to_json ()) ])
  | None, _ -> Error "usage: \\stats [reset|json]"

(* \explain [analyze] [json] <query or @name> — the structured plan
   report. Local sessions render via Explain.Plan directly; connected
   shells use the EXPLAIN wire verb so the report describes the server's
   planner state (its cache, its knobs), not ours. *)
let explain_command shell args =
  let rec opts analyze json = function
    | w :: rest when String.lowercase_ascii w = "analyze" && not analyze ->
      opts true json rest
    | w :: rest when String.lowercase_ascii w = "json" && not json ->
      opts analyze true rest
    | args -> (analyze, json, args)
  in
  let analyze, json, args = opts false false args in
  if args = [] then Error "usage: \\explain [analyze] [json] <query or @name>"
  else
    let src = expand_references shell (String.concat " " args) in
    match shell.remote with
    | Some r -> (
      match Client.explain ~analyze ~json r.client src with
      | Ok body -> Ok (plain (String.split_on_char '\n' body))
      | Error msg -> Error msg)
    | None ->
      let plan = Session.explain shell.session ~analyze src in
      if json then
        Ok (plain [ Pref_obs.Json.to_string (Pref_bmo.Explain.Plan.to_json plan) ])
      else Ok (plain (Pref_bmo.Explain.Plan.to_text plan))

let prepare_command shell name rest =
  let src = expand_references shell (String.concat " " rest) in
  match shell.remote with
  | Some r -> (
    match Client.prepare r.client ~name src with
    | Ok line -> Ok (plain [ line ])
    | Error msg -> Error msg)
  | None ->
    Session.prepare shell.session ~name src;
    Ok (plain [ "prepared " ^ name ])

let execute shell line =
  let line = String.trim line in
  (* backslash commands are dot commands: \profile == .profile *)
  let line =
    if line <> "" && line.[0] = '\\' then
      "." ^ String.sub line 1 (String.length line - 1)
    else line
  in
  try
    if line = "" then Ok (plain [])
    else if line.[0] = '.' then
      match split_words line with
      | [ ".quit" ] | [ ".exit" ] -> Ok { text = []; table = None; quit = true }
      | [ ".tables" ] ->
        Ok
          (plain
             (List.map
                (fun (n, r) -> Fmt.str "  %s: %a" n Relation.pp r)
                (env shell)))
      | [ ".schema"; t ] -> (
        match Exec.find_table (env shell) t with
        | Some r -> Ok (plain [ Fmt.str "%a" Schema.pp (Relation.schema r) ])
        | None -> Error (no_table shell t))
      | [ ".load"; name; path ] -> Ok (plain [ load_table shell name path ])
      | [ ".connect"; host; port ] -> (
        match int_of_string_opt port with
        | Some p when p > 0 && p < 65536 -> connect shell host p
        | Some _ | None -> Error (Printf.sprintf "bad port %s" port))
      | [ ".disconnect" ] -> disconnect shell
      | [ ".algorithm"; a ] -> set_knob shell "algorithm" a
      | [ ".set" ] ->
        if shell.remote <> None then
          Error "usage when connected: .set <key> <value>"
        else
          Ok
            (plain
               (List.map
                  (fun (k, v) -> Printf.sprintf "  %-10s %s" k v)
                  (Session.describe shell.session)))
      | [ ".set"; "domains" ] when shell.remote = None ->
        Ok
          (plain
             [
               (match (config shell).Pref_bmo.Engine.domains with
               | Some d -> Printf.sprintf "domains: %d" d
               | None ->
                 Printf.sprintf "domains: %d (engine default)"
                   (Pref_bmo.Parallel.default_domains ()));
             ])
      | [ ".set"; key; value ] -> set_knob shell key value
      | [ ".explain"; "on" ] ->
        shell.explain <- true;
        Ok (plain [ "explain: on" ])
      | [ ".explain"; "off" ] ->
        shell.explain <- false;
        Ok (plain [ "explain: off" ])
      | ".explain" :: rest when rest <> [] -> explain_command shell rest
      | [ ".profile" ] ->
        if shell.remote <> None then
          Error "usage when connected: .profile on|off"
        else set_profile shell (not (config shell).Pref_bmo.Engine.profile)
      | [ ".profile"; "on" ] -> set_profile shell true
      | [ ".profile"; "off" ] -> set_profile shell false
      | ".stats" :: rest -> stats_command shell rest
      | [ ".trace" ] -> (
        match Pref_obs.Span.roots () with
        | [] ->
          Ok
            (plain
               [ "(no trace recorded - turn \\profile on and run a query)" ])
        | root :: _ ->
          Ok (plain (String.split_on_char '\n' (Pref_obs.Span.to_text root))))
      | ".cache" :: rest -> cache_command rest
      | ".insert" :: t :: rest when rest <> [] ->
        dml_command shell `Insert t (String.concat " " rest)
      | ".delete" :: t :: rest when rest <> [] ->
        dml_command shell `Delete t (String.concat " " rest)
      | ".refine" :: rest -> refine_command shell rest
      | ".prepare" :: name :: rest when rest <> [] ->
        prepare_command shell name rest
      | ".check" :: rest when rest <> [] ->
        let src = expand_references shell (String.concat " " rest) in
        Ok
          (plain
             (match check_lines shell src with
             | [] -> [ "no findings" ]
             | lines -> lines))
      | [ ".lint" ] ->
        Ok
          (plain
             [
               (if (config shell).Pref_bmo.Engine.check then "lint: on"
                else "lint: off");
             ])
      | [ ".lint"; ("on" | "off") as v ] -> set_knob shell "check" v
      | ".pref" :: rest -> Ok (pref_command shell rest)
      | ".sql92" :: rest when rest <> [] -> (
        let src = expand_references shell (String.concat " " (List.tl (split_words line))) in
        let q = Parser.parse_query src in
        match Sql92.rewrite_query ~registry:shell.registry q with
        | Some sql -> Ok (plain [ sql ])
        | None ->
          Error
            "this query has no SQL92 rewriting (needs a single table, an \
             expressible preference, and no BUT ONLY/GROUPING/TOP/ORDER BY)")
      | [ ".mine"; path ] -> Ok (mine_command shell path)
      | [ ".help" ] ->
        Ok
          (plain
             [
               "commands: .tables | .schema <t> | .load <name> <file.csv>";
               "          .set               show engine knobs";
               "          .set <key> <val>   algorithm | domains | cache | check";
               "                             | profile | deadline (ms) | maxrows";
               "                             | costmodel on|off (off: auto prices no";
               "                               plan, cache tiers ungated, no rewrites)";
               "          .algorithm naive|bnl|decompose|parallel|auto | .explain on|off";
               "          \\explain [analyze] [json] <query>  plan report: choice,";
               "                             rejected alternatives, cache probes;";
               "                             analyze also runs it (rows, timings)";
               "          .prepare <name> <query>; run it later as @name";
               "          \\connect <host> <port>  talk to a prefserve server";
               "          \\disconnect             back to the in-process engine";
               "          .pref add|list|del|save|load | .mine <log-file>";
               "          .sql92 <query>  (rewrite to plain SQL92, [KiK01])";
               "          \\profile [on|off]  per-query profiles (phase timings,";
               "                             algorithm, dominance-test counts)";
               "          \\stats [reset|json]  engine metrics | \\trace  last span tree";
               "          \\cache [on|off|stats|clear|budget <MiB>]  BMO result cache";
               "          .insert <t> v1,v2,..  .delete <t> v1,v2,..  single-row DML";
               "                                (patches cached results incrementally)";
               "          \\refine [explain] <pref>  revise the last preference query";
               "                                in place, reusing its BMO set as seed";
               "          \\check <query>  static analysis without executing";
               "          \\lint [on|off]  analyze every query; errors reject it";
               "          .help | .quit";
               "anything else runs as Preference SQL; $name expands a stored";
               "preference inside the query text";
             ])
      | _ -> Error ("unknown command: " ^ line)
    else Ok (run_sql shell line)
  with
  | Parser.Error (msg, p) -> Error (Printf.sprintf "syntax error at offset %d: %s" p msg)
  | Translate.Error msg -> Error ("translation error: " ^ msg)
  | Exec.Unknown_table { name; hint } ->
    Error (Exec.unknown_table_message ~name ~hint)
  | Exec.Error msg -> Error msg
  | Exec.Rejected findings ->
    Error
      (String.concat "\n"
         ("rejected by static analysis:"
         :: List.map
              (fun f ->
                "  "
                ^ Pref_analysis.Diagnostic.to_string
                    (Pref_analysis.Install.of_finding f))
              findings))
  | Pref.Ill_formed { code; message; _ } ->
    Error (Printf.sprintf "[%s] %s" code message)
  | Repository.Error msg -> Error msg
  | Serialize.Error (msg, _) -> Error msg
  | Client.Closed | Client.Response_lost Client.Closed ->
    shell.remote <- None;
    Error "server closed the connection; back to the in-process engine"
  | Client.Response_lost e ->
    (match shell.remote with
    | Some r ->
      Client.close r.client;
      shell.remote <- None
    | None -> ());
    Error
      ("response lost (" ^ Printexc.to_string e
     ^ "); disconnected — the server may still have executed the statement")
  | Pref_server.Protocol.Framing_error msg ->
    (match shell.remote with
    | Some r ->
      Client.close r.client;
      shell.remote <- None
    | None -> ());
    Error ("protocol error: " ^ msg ^ "; disconnected")
  | Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | Failure msg -> Error msg
  | Invalid_argument msg -> Error msg
  | Sys_error msg -> Error msg

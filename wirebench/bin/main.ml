(* wirebench — one run of the wire-level serving benchmark.

   main.exe --workload serve_cold|session_mix|routed_rw --seed N
            --seconds S --trace 0|1 [--commit SHA] [--out DIR]

   Prints a human-readable report, then one JSON line with every metric
   the run measured, its answer check and its provenance. Exits 1 when
   any answer differs from the oracle or any operation failed. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let commit = ref "unknown" and out = ref "wirebench/out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME serve_cold, session_mix or routed_rw");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured wall-clock seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run (0) or traced run (1)");
      ("--commit", Arg.Set_string commit, "SHA source revision, for provenance");
      ("--out", Arg.Set_string out, "DIR where the traced run writes its span dump");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match Wirebench.Gen.of_name !workload with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  let sp = Wirebench.Gen.spec w !seed in
  let traced = !trace = 1 in
  Printf.printf "wirebench %s seed=%d seconds=%g trace=%d\n%!" !workload !seed !seconds !trace;
  let r =
    if traced then begin
      (try Sys.mkdir !out 0o755 with Sys_error _ -> ());
      Wirebench.Bench.traced sp ~seconds:!seconds
        ~out_prefix:(Filename.concat !out (Printf.sprintf "%s-seed%d" !workload !seed))
    end
    else Wirebench.Bench.e2e sp ~seconds:!seconds
  in
  Wirebench.Bench.print_metrics r;
  let t = r.Wirebench.Bench.tally in
  Printf.printf "  attempted=%d ok=%d failed=%d (errors=%d partial=%d short=%d wrong=%d)\n"
    t.Wirebench.Check.attempted t.Wirebench.Check.ok (Wirebench.Check.failed t)
    t.Wirebench.Check.errors t.Wirebench.Check.partial t.Wirebench.Check.short
    t.Wirebench.Check.wrong;
  List.iter (fun p -> Printf.printf "  problem: %s\n" p) t.Wirebench.Check.problems;
  print_endline
    (Pref_obs.Json.to_string
       (Wirebench.Bench.to_json sp ~commit:!commit ~seconds:!seconds ~trace:traced r));
  exit (if Wirebench.Check.failed t = 0 && Wirebench.Check.balanced t then 0 else 1)

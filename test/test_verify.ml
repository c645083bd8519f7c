(* Bounded-verifier tests: the positive run must pass with every rule
   family exercised, and a deliberately unsound rewrite rule planted
   behind the test hook must be caught with a minimal counterexample. *)

open Preferences
open Pref_analysis

let section r name =
  match
    List.find_opt (fun s -> s.Verify.s_name = name) r.Verify.sections
  with
  | Some s -> s
  | None -> Alcotest.failf "report has no %S section" name

let verify_ok () =
  let r = Verify.run ~max_rows:3 ~random_cases:50 () in
  Alcotest.(check bool)
    (Printf.sprintf "verifier passes (%s)"
       (String.concat " | " (Verify.report_lines r)))
    true (Verify.ok r);
  List.iter
    (fun name ->
      let s = section r name in
      Alcotest.(check bool) (name ^ " checks rules") true (s.Verify.s_rules > 0);
      Alcotest.(check bool) (name ^ " runs cases") true (s.Verify.s_cases > 0);
      Alcotest.(check int) (name ^ " failures") 0
        (List.length s.Verify.s_failures))
    [ "rewrite"; "constraints"; "cache"; "keys"; "merge"; "random" ];
  Alcotest.(check bool) "summary ends in VERIFY OK" true
    (List.exists
       (fun l -> String.length l >= 9 && String.sub l 0 9 = "VERIFY OK")
       (Verify.report_lines r))

(* Scale: the default small scope stays fast enough for a CI gate. *)
let verify_scope () =
  let r = Verify.run () in
  let cases =
    List.fold_left (fun n s -> n + s.Verify.s_cases) 0 r.Verify.sections
  in
  Alcotest.(check bool)
    (Printf.sprintf "covers thousands of cases (got %d)" cases)
    true
    (cases > 5_000)

(* Plant P1 & P2 ~> P1 — unsound (it forgets the refinement) — and
   require the verifier to refute it with a printable counterexample. *)
let broken_rule_caught () =
  Fun.protect
    ~finally:(fun () -> Verify.broken_rule_hook := fun _ -> None)
    (fun () ->
      (Verify.broken_rule_hook :=
         function Pref.Prior (p, _) -> Some p | _ -> None);
      let r = Verify.run ~max_rows:3 ~random_cases:0 () in
      Alcotest.(check bool) "verifier fails" false (Verify.ok r);
      let rewrite = section r "rewrite" in
      let injected =
        List.filter
          (fun f -> f.Verify.f_rule = "injected")
          rewrite.Verify.s_failures
      in
      Alcotest.(check bool) "failure names the injected rule" true
        (injected <> []);
      let f = List.hd injected in
      Alcotest.(check bool) "counterexample term is a prior" true
        (match f.Verify.f_term with Pref.Prior _ -> true | _ -> false);
      Alcotest.(check bool) "counterexample prints" true
        (Verify.counterexample_lines f <> []);
      Alcotest.(check bool) "report says VERIFY FAILED" true
        (List.exists
           (fun l ->
             String.length l >= 13 && String.sub l 0 13 = "VERIFY FAILED")
           (Verify.report_lines r)))

(* A hook that only reorders operands of ⊗ (commutativity, Prop. 4b) is
   sound — the verifier must not cry wolf over a correct rule. *)
let sound_rule_passes () =
  Fun.protect
    ~finally:(fun () -> Verify.broken_rule_hook := fun _ -> None)
    (fun () ->
      (Verify.broken_rule_hook :=
         function Pref.Pareto (p, q) -> Some (Pref.Pareto (q, p)) | _ -> None);
      let r = Verify.run ~max_rows:3 ~random_cases:0 () in
      Alcotest.(check bool)
        (Printf.sprintf "verifier accepts commutativity (%s)"
           (String.concat " | " (Verify.report_lines r)))
        true (Verify.ok r))

let suite =
  [
    Gen.quick "small scope passes, all families fire" verify_ok;
    Gen.quick "default scope is thousands of cases" verify_scope;
    Gen.quick "unsound injected rule is refuted" broken_rule_caught;
    Gen.quick "sound injected rule is accepted" sound_rule_passes;
  ]

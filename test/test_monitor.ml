(* Online safety monitor + soak campaigns.

   Three layers of assurance:
   - unit checks of each invariant class against synthetic event streams;
   - a QCheck property that verdicts are invariant under reordering of
     events within a simulation tick (the canonical-order guarantee);
   - end-to-end soak campaigns: a clean run produces zero violations,
     and every --inject-violation class is caught as exactly itself,
     with a correlated event chain attached. *)

module Event = Grid_obs.Event
module Monitor = Grid_obs.Monitor
module Soak = Core.Soak

let pinned test =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5EED; 1806 |]) test

(* --- Synthetic-stream helpers ------------------------------------------ *)

(* A scripted event: time, kind, attrs. Emitted without correlation ids so
   permutations cannot differ through corr minting. *)
type scripted = {
  s_at : float;
  s_kind : string;
  s_attrs : (string * string) list;
}

let ev s_at s_kind s_attrs = { s_at; s_kind; s_attrs }

let run_monitor ?oracle ?(window = 300.0) events =
  let bus = Event.create_bus () in
  let monitor = Monitor.create ?oracle ~propagation_window:window bus in
  List.iter
    (fun s -> Event.emit bus ~at:s.s_at ~layer:"test" ~kind:s.s_kind s.s_attrs)
    events;
  Monitor.flush monitor;
  monitor

let classes_of monitor =
  List.map Monitor.class_to_string (Monitor.classes monitor)

let check_classes what expected monitor =
  Alcotest.(check (list string)) what expected (classes_of monitor)

(* --- Invariant unit tests ---------------------------------------------- *)

let test_clean_stream () =
  let m =
    run_monitor
      [ ev 0.0 "policy.epoch" [ ("epoch", "1") ];
        ev 1.0 "authz.decision" [ ("outcome", "permitted"); ("epoch", "1") ];
        ev 2.0 "cache.hit" [ ("epoch", "1") ];
        ev 3.0 "authz.decision" [ ("outcome", "denied"); ("epoch", "1") ] ]
  in
  check_classes "no violations" [] m;
  Alcotest.(check int) "events seen" 4 (Monitor.events_seen m);
  Alcotest.(check (option int)) "epoch tracked" (Some 1) (Monitor.current_epoch m)

let test_stale_epoch_after_bump () =
  (* Same-tick answers at the old epoch are excused; strictly later ones
     are violations. *)
  let m =
    run_monitor
      [ ev 0.0 "policy.epoch" [ ("epoch", "1") ];
        ev 10.0 "policy.epoch" [ ("epoch", "2") ];
        ev 10.0 "cache.hit" [ ("epoch", "1") ] ]
  in
  check_classes "same tick excused" [] m;
  let m =
    run_monitor
      [ ev 0.0 "policy.epoch" [ ("epoch", "1") ];
        ev 10.0 "policy.epoch" [ ("epoch", "2") ];
        ev 11.0 "cache.hit" [ ("epoch", "1") ] ]
  in
  check_classes "later tick flagged" [ "stale_epoch" ] m

let test_expired_credential () =
  let m =
    run_monitor
      [ ev 100.0 "authz.decision"
          [ ("outcome", "permitted"); ("cred_expiry", "50.000") ] ]
  in
  check_classes "expired credential" [ "expired_credential" ] m;
  (* A denial resting on an expired credential is not a violation. *)
  let m =
    run_monitor
      [ ev 100.0 "authz.decision" [ ("outcome", "denied"); ("cred_expiry", "50.000") ] ]
  in
  check_classes "denials never flagged" [] m

let test_revocation_window () =
  let events at =
    [ ev 10.0 "credential.revoked" [ ("subject", "/O=Grid/CN=Alice") ];
      ev at "authz.decision" [ ("outcome", "permitted"); ("subject", "/O=Grid/CN=Alice") ] ]
  in
  check_classes "inside propagation window" [] (run_monitor ~window:300.0 (events 200.0));
  check_classes "outside propagation window" [ "expired_credential" ]
    (run_monitor ~window:300.0 (events 311.0))

let test_default_deny_oracle () =
  let oracle e =
    if e.Event.kind = "authz.decision" then
      Some (Event.attr e "subject" <> Some "/O=Grid/CN=Mallory")
    else None
  in
  let m =
    run_monitor ~oracle
      [ ev 1.0 "authz.decision"
          [ ("outcome", "permitted"); ("subject", "/O=Grid/CN=Alice") ];
        ev 2.0 "authz.decision"
          [ ("outcome", "permitted"); ("subject", "/O=Grid/CN=Mallory") ] ]
  in
  check_classes "oracle-refuted permit" [ "default_deny" ] m;
  Alcotest.(check int) "exactly one violation" 1 (Monitor.violation_count m)

let test_recovery_divergence () =
  let base =
    [ ev 1.0 "job.created" [ ("contact", "jmi-1"); ("durable", "true") ];
      ev 2.0 "job.created" [ ("contact", "jmi-2"); ("durable", "true") ];
      ev 5.0 "resource.crashed" [ ("lost", "2") ] ]
  in
  (* Everything restored: clean. *)
  let m =
    run_monitor
      (base
      @ [ ev 6.0 "job.restored" [ ("contact", "jmi-1") ];
          ev 6.0 "job.restored" [ ("contact", "jmi-2") ];
          ev 6.0 "resource.recovered"
            [ ("restored", "2"); ("dropped_bytes", "0"); ("decode_failures", "0") ] ])
  in
  check_classes "full restore" [] m;
  (* A job silently missing with a clean store: divergence. *)
  let m =
    run_monitor
      (base
      @ [ ev 6.0 "job.restored" [ ("contact", "jmi-1") ];
          ev 6.0 "resource.recovered"
            [ ("restored", "1"); ("dropped_bytes", "0"); ("decode_failures", "0") ] ])
  in
  check_classes "silent loss" [ "recovery_divergence" ] m;
  (* The same loss explained by dropped tail bytes: accounted to the disk. *)
  let m =
    run_monitor
      (base
      @ [ ev 6.0 "job.restored" [ ("contact", "jmi-1") ];
          ev 6.0 "resource.recovered"
            [ ("restored", "1"); ("dropped_bytes", "57"); ("decode_failures", "0") ] ])
  in
  check_classes "disk-explained loss" [] m;
  (* Jobs that reached a terminal state before the crash are not owed. *)
  let m =
    run_monitor
      [ ev 1.0 "job.created" [ ("contact", "jmi-1"); ("durable", "true") ];
        ev 3.0 "job.terminal" [ ("contact", "jmi-1"); ("state", "done") ];
        ev 5.0 "resource.crashed" [ ("lost", "0") ];
        ev 6.0 "resource.recovered"
          [ ("restored", "0"); ("dropped_bytes", "0"); ("decode_failures", "0") ] ]
  in
  check_classes "terminal jobs not owed" [] m

let test_fail_open_upgrade () =
  let m =
    run_monitor
      [ ev 1.0 "authz.degraded"
          [ ("mode", "fail_closed"); ("original", "system_error"); ("final", "permitted") ] ]
  in
  check_classes "fail-closed upgraded" [ "fail_open_upgrade" ] m;
  let m =
    run_monitor
      [ ev 1.0 "authz.degraded"
          [ ("mode", "fail_closed"); ("original", "system_error"); ("final", "denied") ];
        ev 2.0 "authz.degraded"
          [ ("mode", "fail_open"); ("original", "system_error"); ("final", "permitted") ] ]
  in
  check_classes "fail-closed refusal and declared fail-open are fine" [] m

(* --- Permutation invariance (QCheck) ----------------------------------- *)

(* Two ticks of events whose verdicts depend on state applied in the same
   tick (epoch bump, revocation, crash/restore bookkeeping). The monitor
   must reach the same verdicts whatever the within-tick arrival order. *)
let tick_a =
  [ ev 10.0 "policy.epoch" [ ("epoch", "2") ];
    ev 10.0 "cache.hit" [ ("epoch", "1") ];
    ev 10.0 "credential.revoked" [ ("subject", "/O=Grid/CN=Alice") ];
    ev 10.0 "job.created" [ ("contact", "jmi-1"); ("durable", "true") ];
    ev 10.0 "authz.decision" [ ("outcome", "permitted"); ("epoch", "2") ] ]

let tick_b =
  [ ev 400.0 "resource.crashed" [ ("lost", "1") ];
    ev 400.0 "job.restored" [ ("contact", "jmi-1") ];
    ev 400.0 "resource.recovered"
      [ ("restored", "1"); ("dropped_bytes", "0"); ("decode_failures", "0") ];
    ev 400.0 "cache.hit" [ ("epoch", "1") ];
    ev 400.0 "authz.decision"
      [ ("outcome", "permitted"); ("subject", "/O=Grid/CN=Alice"); ("epoch", "2") ] ]

let verdicts events =
  let m = run_monitor ~window:300.0 events in
  List.sort compare
    (List.map
       (fun (v : Monitor.violation) -> (Monitor.class_to_string v.Monitor.vclass, v.Monitor.message))
       (Monitor.violations m))

let reference_verdicts = verdicts (tick_a @ tick_b)

let qcheck_tick_reordering_invariant =
  QCheck.Test.make ~name:"within-tick reordering never changes verdicts" ~count:300
    (QCheck.make
       QCheck.Gen.(pair (shuffle_l tick_a) (shuffle_l tick_b))
       ~print:(fun (a, b) ->
         String.concat "; " (List.map (fun s -> s.s_kind) (a @ b))))
    (fun (a, b) -> verdicts (a @ b) = reference_verdicts)

(* Sanity: the reference stream actually trips invariants (stale cache
   answer after the bump propagated; permit for a revoked subject), so
   the property above is not vacuous. *)
let test_reference_stream_is_nontrivial () =
  Alcotest.(check (list string))
    "reference verdict classes"
    [ "expired_credential"; "stale_epoch" ]
    (List.sort_uniq compare (List.map fst reference_verdicts))

(* --- Soak campaigns ------------------------------------------------------ *)

let small_config =
  { Soak.default_config with Soak.days = 0.8; jobs_per_day = 120; seed = 42 }

let test_soak_clean () =
  let r = Soak.run small_config in
  Alcotest.(check int) "no violations" 0 (List.length r.Soak.violations);
  Alcotest.(check bool) "campaign checked events" true (r.Soak.events_checked > 500);
  Alcotest.(check bool) "jobs were accepted" true (r.Soak.accepted > 10);
  Alcotest.(check bool) "outsiders were denied" true (r.Soak.denied > 0);
  Alcotest.(check bool) "policy churned" true (r.Soak.reloads >= 3);
  Alcotest.(check bool) "job manager crashed" true (r.Soak.crashes >= 1)

let test_soak_deterministic () =
  let a = Soak.run small_config in
  let b = Soak.run small_config in
  Alcotest.(check int) "submitted" a.Soak.submitted b.Soak.submitted;
  Alcotest.(check int) "accepted" a.Soak.accepted b.Soak.accepted;
  Alcotest.(check int) "events checked" a.Soak.events_checked b.Soak.events_checked

let test_soak_monitor_off () =
  let r = Soak.run { small_config with Soak.monitor = false } in
  Alcotest.(check int) "no monitor, no events checked" 0 r.Soak.events_checked;
  Alcotest.(check int) "no monitor, no violations" 0 (List.length r.Soak.violations)

(* Every layer of the site stack at once: a two-member federation on the
   ReBAC backend, management coalesced into batches of eight through the
   native batch lanes, and every request gated by push-mode STS tokens. *)
let test_soak_fleet_batch_rebac_push () =
  let r =
    Soak.run
      { Soak.default_config with
        Soak.days = 0.5;
        seed = 42;
        resources = 2;
        batch = 8;
        pep = Soak.Rebac_pep;
        tokens = Some Grid_sts.Validator.Push }
  in
  Alcotest.(check int) "no violations" 0 (List.length r.Soak.violations);
  Alcotest.(check bool) "management was exercised" true (r.Soak.management > 0)

let test_injection vclass () =
  let r = Soak.run { small_config with Soak.inject = Some vclass } in
  Alcotest.(check (list string))
    "exactly the injected class detected"
    [ Monitor.class_to_string vclass ]
    (List.map Monitor.class_to_string (Soak.violation_classes r));
  let v = List.hd r.Soak.violations in
  Alcotest.(check bool) "violation carries a correlation id" true
    (v.Monitor.corr <> None);
  Alcotest.(check bool) "violation carries an event chain" true
    (v.Monitor.chain <> [])

let injection_cases =
  List.map
    (fun c ->
      Alcotest.test_case
        (Printf.sprintf "inject %s -> caught" (Monitor.class_to_string c))
        `Quick (test_injection c))
    Monitor.all_classes

let () =
  Alcotest.run "monitor"
    [ ( "invariants",
        [ Alcotest.test_case "clean stream" `Quick test_clean_stream;
          Alcotest.test_case "stale epoch after bump" `Quick test_stale_epoch_after_bump;
          Alcotest.test_case "expired credential" `Quick test_expired_credential;
          Alcotest.test_case "revocation propagation window" `Quick
            test_revocation_window;
          Alcotest.test_case "default deny via oracle" `Quick test_default_deny_oracle;
          Alcotest.test_case "recovery divergence" `Quick test_recovery_divergence;
          Alcotest.test_case "fail-open upgrade" `Quick test_fail_open_upgrade ] );
      ( "ordering",
        [ Alcotest.test_case "reference stream is nontrivial" `Quick
            test_reference_stream_is_nontrivial;
          pinned qcheck_tick_reordering_invariant ] );
      ( "soak",
        [ Alcotest.test_case "clean campaign has zero violations" `Quick
            test_soak_clean;
          Alcotest.test_case "campaign is deterministic in its seed" `Quick
            test_soak_deterministic;
          Alcotest.test_case "monitor off checks nothing" `Quick test_soak_monitor_off;
          Alcotest.test_case "fleet x batch x rebac x push tokens: clean" `Quick
            test_soak_fleet_batch_rebac_push ]
        @ injection_cases ) ]

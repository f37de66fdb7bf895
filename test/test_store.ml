(* Crash-safety suite for the durable job-manager store: journal framing
   under truncated tails, torn final records and bit rot; the snapshot
   rename-before-truncate crash window; replay idempotence; and the
   headline recovery invariant — a restarted job manager answers the
   same management decisions as one that never crashed, including the
   third-party jobtag-authorized cancel and default-deny.

   Every randomized check also runs under pinned seeds so `dune runtest`
   is deterministic. *)

open Core

let disk ?faults ?(seed = 4242) () = Sim.Disk.create ?faults ~seed ()

let torn_always =
  Sim.Disk.Faults.profile ~torn_write:1.0 ()

(* Journal and store take framed records; these tests speak payloads. *)
let journal_append j payload = Store.Journal.append j (Store.Journal.frame payload)
let payloads frames = List.map Store.Journal.payload frames

(* A store whose snapshot source is every payload appended so far. *)
let store_with_history s =
  let live = ref [] in
  Store.Store.set_snapshot_source s (fun () -> List.rev !live);
  fun payload ->
    let frame = Store.Journal.frame payload in
    live := frame :: !live;
    Store.Store.append s frame

(* --- Journal framing under corruption --------------------------------- *)

(* A partial final frame (the classic truncated tail): replay keeps the
   complete prefix and drops the half-written record cleanly. *)
let test_truncated_tail () =
  let d = disk () in
  let j = Store.Journal.create ~disk:d ~file:"t.journal" () in
  List.iter (journal_append j) [ "alpha"; "beta"; "gamma" ];
  let frame = (Store.Journal.frame "delta" :> string) in
  Sim.Disk.append d ~file:"t.journal" (String.sub frame 0 (String.length frame - 3));
  ignore (Sim.Disk.sync d ~file:"t.journal");
  let r = Store.Journal.replay ~disk:d ~file:"t.journal" in
  Alcotest.(check (list string)) "prefix survives" [ "alpha"; "beta"; "gamma" ]
    (payloads r.Store.Journal.records);
  Alcotest.(check bool) "tail dropped" true (r.Store.Journal.dropped_bytes > 0);
  (match r.Store.Journal.corruption with
  | Some (Store.Journal.Truncated_frame _) -> ()
  | c ->
    Alcotest.failf "expected Truncated_frame, got %s"
      (match c with
      | None -> "clean tail"
      | Some c -> Store.Journal.corruption_to_string c))

(* A crash with torn_write=1.0 keeps a proper prefix of the unsynced
   final record: the synced records replay bit-exact, the torn one is
   dropped — never half-applied. *)
let test_torn_final_record () =
  List.iter
    (fun seed ->
      let d = disk ~faults:torn_always ~seed () in
      let j = Store.Journal.create ~sync:Store.Journal.Manual ~disk:d ~file:"t.journal" () in
      List.iter (journal_append j) [ "alpha"; "beta" ];
      Store.Journal.sync j;
      journal_append j "unsynced-final-record";
      Sim.Disk.crash d;
      let r = Store.Journal.replay ~disk:d ~file:"t.journal" in
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d: synced prefix survives" seed)
        [ "alpha"; "beta" ] (payloads r.Store.Journal.records);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: torn record dropped or vanished" seed)
        true
        (r.Store.Journal.dropped_bytes > 0 || r.Store.Journal.corruption = None))
    [ 1; 7; 42; 1000003 ]

(* Bit rot inside an interior record: everything before the flipped byte
   replays, the damaged record and everything after are dropped. *)
let test_bit_rot_checksum () =
  let d = disk () in
  let j = Store.Journal.create ~disk:d ~file:"t.journal" () in
  List.iter (journal_append j) [ "first"; "second"; "third" ];
  let first_len = String.length (Store.Journal.frame "first" :> string) in
  (* Flip a byte inside the *second* record's payload. *)
  Sim.Disk.corrupt d ~file:"t.journal" ~at:(first_len + 14);
  let r = Store.Journal.replay ~disk:d ~file:"t.journal" in
  Alcotest.(check (list string)) "clean prefix" [ "first" ] (payloads r.Store.Journal.records);
  (match r.Store.Journal.corruption with
  | Some (Store.Journal.Checksum_mismatch { offset }) ->
    Alcotest.(check int) "fails at record 2" first_len offset
  | c ->
    Alcotest.failf "expected Checksum_mismatch, got %s"
      (match c with
      | None -> "clean tail"
      | Some c -> Store.Journal.corruption_to_string c))

let test_replay_idempotent () =
  let d = disk ~faults:torn_always ~seed:99 () in
  let j = Store.Journal.create ~sync:Store.Journal.Manual ~disk:d ~file:"t.journal" () in
  List.iter (journal_append j) [ "a"; "b"; "c" ];
  Store.Journal.sync j;
  journal_append j "torn";
  Sim.Disk.crash d;
  let r1 = Store.Journal.replay ~disk:d ~file:"t.journal" in
  let r2 = Store.Journal.replay ~disk:d ~file:"t.journal" in
  Alcotest.(check (list string)) "same records" (payloads r1.Store.Journal.records)
    (payloads r2.Store.Journal.records);
  Alcotest.(check int) "same valid bytes" r1.Store.Journal.valid_bytes r2.Store.Journal.valid_bytes;
  Alcotest.(check int) "same dropped bytes" r1.Store.Journal.dropped_bytes r2.Store.Journal.dropped_bytes

(* --- Snapshot crash windows ------------------------------------------- *)

(* Crash mid-snapshot: a leftover [.snapshot.tmp] (possibly garbage) must
   be discarded, and recovery falls back to the previous snapshot plus
   the untruncated journal. *)
let test_crash_during_snapshot_fallback () =
  let d = disk () in
  let s = Store.Store.create ~disk:d ~name:"jm" () in
  let add = store_with_history s in
  List.iter add [ "one"; "two" ];
  Store.Store.snapshot_now s;
  List.iter add [ "three"; "four" ];
  (* A half-written snapshot attempt that never reached the rename. *)
  Sim.Disk.append d ~file:(Store.Store.snapshot_file s ^ ".tmp") "garbage-partial-snapshot";
  Store.Store.crash s;
  let r = Store.Store.recover s in
  Alcotest.(check bool) "tmp discarded" true r.Store.Store.tmp_discarded;
  Alcotest.(check bool) "tmp gone from disk" false
    (Sim.Disk.exists d ~file:(Store.Store.snapshot_file s ^ ".tmp"));
  Alcotest.(check (list string)) "old snapshot intact" [ "one"; "two" ]
    (payloads r.Store.Store.snapshot_records);
  Alcotest.(check (list string)) "journal since snapshot" [ "three"; "four" ]
    (payloads r.Store.Store.journal_records)

(* Compaction keeps the recover-time view equal to the full history:
   snapshot records followed by post-snapshot journal records. *)
let test_snapshot_compaction_roundtrip () =
  let d = disk () in
  let s = Store.Store.create ~snapshot_every:3 ~disk:d ~name:"jm" () in
  let all = List.init 10 (fun i -> Printf.sprintf "record-%02d" i) in
  List.iter (store_with_history s) all;
  Alcotest.(check bool) "compaction happened" true (Store.Store.snapshots_taken s > 0);
  Store.Store.crash s;
  let r = Store.Store.recover s in
  Alcotest.(check (list string)) "snapshot + journal = history" all
    (payloads (r.Store.Store.snapshot_records @ r.Store.Store.journal_records));
  Alcotest.(check (list (pair string string))) "verify clean" []
    (List.filter_map
       (fun c ->
         Option.map
           (fun corruption -> (c.Store.Store.check_file, Store.Journal.corruption_to_string corruption))
           c.Store.Store.check_corruption)
       (Store.Store.verify s))

(* Property: for any payload set and snapshot interval, what recovery
   reads back (snapshot entries then journal records) is exactly the
   append history, in order — compaction never loses or reorders. *)
let qcheck_store_preserves_history =
  QCheck.Test.make ~name:"recover returns full append history" ~count:60
    QCheck.(triple small_int (int_range 1 5) (small_list (string_of_size Gen.small_nat)))
    (fun (seed, snapshot_every, history) ->
      let d = disk ~seed:(seed + 1) () in
      let s = Store.Store.create ~snapshot_every ~disk:d ~name:"jm" () in
      List.iter (store_with_history s) history;
      Store.Store.crash s;
      let r = Store.Store.recover s in
      payloads (r.Store.Store.snapshot_records @ r.Store.Store.journal_records) = history)

(* --- Job-table recovery equals the live table ------------------------- *)

let table resource =
  List.map
    (fun jmi ->
      ( Gram.Job_manager.contact jmi,
        Gsi.Dn.to_string (Gram.Job_manager.owner jmi),
        Gram.Job_manager.jobtag jmi,
        Gram.Job_manager.account jmi ))
    (Gram.Resource.jobs resource)
  |> List.sort compare

let workload_profiles (w : Fusion.world) =
  [ { Workload.identity = Gram.Client.identity w.Fusion.bo;
      rsl_templates =
        [ "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=2)(simduration=30)" ];
      weight = 1 };
    { Workload.identity = Gram.Client.identity w.Fusion.kate;
      rsl_templates =
        [ "&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)(count=4)(simduration=60)" ];
      weight = 1 } ]

let recovered_table_matches_live ~jobs ~seed ~snapshot_every =
  let w = Fusion.build ~nodes:8 ~cpus_per_node:8 ~store:true ?snapshot_every () in
  ignore
    (Workload.run
       ~engine:(Testbed.engine w.Fusion.testbed)
       ~resource:w.Fusion.resource ~profiles:(workload_profiles w)
       { Workload.default_config with Workload.job_count = jobs; arrival_rate = 15.0; seed });
  let before = table w.Fusion.resource in
  Gram.Resource.crash w.Fusion.resource;
  Alcotest.(check int) "crash empties the job table" 0
    (List.length (Gram.Resource.jobs w.Fusion.resource));
  let summary = Gram.Resource.recover w.Fusion.resource in
  let after = table w.Fusion.resource in
  (before = after, before, after, summary)

let test_recovery_rebuilds_job_table () =
  List.iter
    (fun (jobs, seed, snapshot_every) ->
      let equal, before, _, summary = recovered_table_matches_live ~jobs ~seed ~snapshot_every in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d seed=%d: recovered table = live table" jobs seed)
        true equal;
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d seed=%d: all jobs restored" jobs seed)
        (List.length before) summary.Gram.Resource.jobs_restored;
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d seed=%d: no decode failures" jobs seed)
        0 summary.Gram.Resource.decode_failures)
    [ (12, 3, None); (25, 7, Some 5); (40, 42, Some 8) ]

let qcheck_recovery_equals_live_table =
  QCheck.Test.make ~name:"replay(snapshot+journal) = live job table" ~count:8
    QCheck.(pair (int_range 1 20) (int_range 0 1000))
    (fun (jobs, seed) ->
      let snapshot_every = if seed mod 2 = 0 then Some ((seed mod 6) + 2) else None in
      let equal, _, _, _ = recovered_table_matches_live ~jobs ~seed ~snapshot_every in
      equal)

(* --- Decision equivalence across a crash ------------------------------ *)

(* The paper's Section 4.2 requirement, end to end: every management
   decision a restarted job manager makes — owner cancel, third-party
   cancel authorized by a jobtag clause, admin status read, unknown job,
   and the default-deny for a requester with no grant — is identical to
   the uncrashed run. Pinned seeds; the worlds are rebuilt from scratch
   for each arm so nothing leaks between them. *)
let scripted_decisions ~crash =
  let w = Fusion.build ~store:true ~snapshot_every:4 () in
  let submit client rsl =
    match Gram.Client.submit_sync client ~rsl with
    | Ok r -> Some r.Gram.Protocol.job_contact
    | Error _ -> None
  in
  let kate_job =
    submit w.Fusion.kate
      "&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)(count=4)(simduration=100000)"
  in
  let bo_job =
    submit w.Fusion.bo
      "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=2)(simduration=100000)"
  in
  if crash then begin
    Gram.Resource.crash w.Fusion.resource;
    let s = Gram.Resource.recover w.Fusion.resource in
    Alcotest.(check int) "both live jobs restored" 2 s.Gram.Resource.jobs_restored
  end;
  let manage client contact action =
    match contact with
    | None -> "no-job"
    | Some contact -> begin
      match Gram.Client.manage_sync client ~contact action with
      | Ok _ -> "ok"
      | Error e -> Gram.Protocol.management_error_to_string e
    end
  in
  [ manage w.Fusion.bo kate_job Gram.Protocol.Cancel;  (* default-deny: no grant *)
    manage w.Fusion.kate bo_job Gram.Protocol.Status;  (* admin tag grant *)
    manage w.Fusion.vo_admin (Some "jmi-none") Gram.Protocol.Cancel;  (* unknown job *)
    manage w.Fusion.vo_admin kate_job Gram.Protocol.Cancel;  (* third-party jobtag ok *)
    manage w.Fusion.bo bo_job Gram.Protocol.Cancel ]  (* owner ok *)

let test_decision_equivalence_after_crash () =
  let uncrashed = scripted_decisions ~crash:false in
  let recovered = scripted_decisions ~crash:true in
  Alcotest.(check (list string)) "decision sequences identical" uncrashed recovered;
  (* The sequence itself is part of the contract: a silently-permitted
     bo->kate cancel or a lost jobtag grant would still be "equal" if
     both arms regressed together. *)
  Alcotest.(check bool) "bo -> kate cancel denied" true
    (String.length (List.nth uncrashed 0) > 2
    && not (String.equal (List.nth uncrashed 0) "ok"));
  Alcotest.(check string) "kate admin status ok" "ok" (List.nth uncrashed 1);
  Alcotest.(check bool) "unknown job refused" true
    (not (String.equal (List.nth uncrashed 2) "ok"));
  Alcotest.(check string) "vo_admin third-party cancel ok" "ok" (List.nth uncrashed 3);
  Alcotest.(check string) "owner cancel ok" "ok" (List.nth uncrashed 4)

(* Recovery journals into the audit trail and bumps the metrics. *)
let test_recovery_observable () =
  let w = Fusion.build ~store:true () in
  ignore
    (Gram.Client.submit_sync w.Fusion.kate
       ~rsl:"&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)(count=4)(simduration=100000)");
  Gram.Resource.crash w.Fusion.resource;
  ignore (Gram.Resource.recover w.Fusion.resource);
  let recovery_records =
    Audit.Audit.by_kind (Gram.Resource.audit w.Fusion.resource) Audit.Audit.Recovery
  in
  Alcotest.(check int) "crash + recovery audited" 2 (List.length recovery_records);
  let metrics = Obs.Obs.metrics (Gram.Resource.obs w.Fusion.resource) in
  let counter ?labels name = Obs.Metrics.counter_value metrics ?labels name in
  Alcotest.(check bool) "crash counted" true
    (counter ~labels:[ ("resource", "fusion-site") ] "resource_crashes_total" >= 1.0);
  Alcotest.(check bool) "recovery counted" true
    (counter ~labels:[ ("resource", "fusion-site") ] "resource_recoveries_total" >= 1.0);
  let journal_file =
    match Gram.Resource.store w.Fusion.resource with
    | Some store -> Store.Store.journal_file store
    | None -> Alcotest.fail "world built without a store"
  in
  Alcotest.(check bool) "appends counted" true
    (counter ~labels:[ ("file", journal_file) ] "store_appends_total" >= 1.0)

(* --- Snapshots copy the journalled frames ------------------------------ *)

let run_workload ?backend ~jobs ~seed ~snapshot_every () =
  let w = Fusion.build ?backend ~nodes:8 ~cpus_per_node:8 ~store:true ?snapshot_every () in
  ignore
    (Workload.run
       ~engine:(Testbed.engine w.Fusion.testbed)
       ~resource:w.Fusion.resource ~profiles:(workload_profiles w)
       { Workload.default_config with Workload.job_count = jobs; arrival_rate = 15.0; seed });
  let store =
    match Gram.Resource.store w.Fusion.resource with
    | Some store -> store
    | None -> Alcotest.fail "world built without a store"
  in
  (w, store)

let file_bytes store file =
  Option.value ~default:"" (Sim.Disk.read (Store.Store.disk store) ~file)

let framed_bytes frames =
  String.concat "" (List.map (fun (f : Store.Journal.frame) -> (f :> string)) frames)

(* A durable resource's snapshot file is its meta record followed by
   [Journal.frame (Persist.encode (Job_created e))] for every live entry
   in contact order. The expected entries are decoded from the files on
   disk and encoded and framed afresh, independently of the frames the
   resource keeps. *)
let test_snapshot_bytes_are_framed_entries () =
  List.iter
    (fun (jobs, seed, snapshot_every) ->
      let _, store = run_workload ~jobs ~seed ~snapshot_every () in
      let replay file =
        (Store.Journal.replay ~disk:(Store.Store.disk store) ~file).Store.Journal.records
      in
      let snapshot =
        match replay (Store.Store.snapshot_file store) with [] -> [] | _meta :: entries -> entries
      in
      let live =
        (Gram.Persist.rebuild ~snapshot ~journal:(replay (Store.Store.journal_file store)))
          .Gram.Persist.entries
        |> List.map fst
        |> List.sort (fun (a : Gram.Persist.job_entry) b ->
               String.compare a.Gram.Persist.contact b.Gram.Persist.contact)
      in
      Store.Store.snapshot_now store;
      let meta =
        Store.Journal.frame
          (Store.Codec.encode
             [ ("kind", "snapshot-meta");
               ("seq", string_of_int (Store.Store.snapshots_taken store));
               ("count", string_of_int (List.length live)) ])
      in
      let expected =
        framed_bytes
          (meta
          :: List.map
               (fun e -> Store.Journal.frame (Gram.Persist.encode (Gram.Persist.Job_created e)))
               live)
      in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d seed=%d: some live entries" jobs seed)
        true (live <> []);
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d seed=%d: snapshot = meta + framed entries" jobs seed)
        expected
        (file_bytes store (Store.Store.snapshot_file store)))
    [ (25, 7, None); (40, 42, Some 8) ]

(* Recovery keeps the frames it verified: after a crash and [recover],
   the next snapshot is byte-identical to the one an uncrashed twin
   writes. The twins authorize through a permit-all custom callout,
   which stamps no policy epoch: epochs come from a process-wide
   counter, so two policy-compiling worlds in one process never share
   them. *)
let test_recovered_snapshot_matches_twin () =
  List.iter
    (fun (jobs, seed, snapshot_every) ->
      let snapshot_after ~crash =
        let w, store =
          run_workload ~backend:(`Custom Callout.Callout.permit_all) ~jobs ~seed
            ~snapshot_every ()
        in
        if crash then begin
          Gram.Resource.crash w.Fusion.resource;
          ignore (Gram.Resource.recover w.Fusion.resource)
        end;
        Store.Store.snapshot_now store;
        file_bytes store (Store.Store.snapshot_file store)
      in
      let twin = snapshot_after ~crash:false in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d seed=%d: twin snapshot has entries" jobs seed)
        true
        (String.length twin > 200);
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d seed=%d: recovered snapshot = twin" jobs seed)
        twin (snapshot_after ~crash:true))
    [ (12, 3, None); (40, 42, Some 8) ]

(* The LRM is a separate process: a job's listeners (run span, client
   callback) outlive a job-manager crash, deliver the terminal state,
   and are then dropped. *)
let test_job_listeners_survive_crash () =
  let w = Fusion.build ~store:true () in
  let contact =
    match
      Gram.Client.submit_sync w.Fusion.kate
        ~rsl:
          "&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)(count=4)(simduration=100000)"
    with
    | Ok r -> r.Gram.Protocol.job_contact
    | Error e -> Alcotest.failf "submit: %s" (Gram.Protocol.submit_error_to_string e)
  in
  let resource = w.Fusion.resource in
  let states = ref [] in
  (match
     Gram.Resource.register_callback resource ~contact ~on_state_change:(fun st ->
         states := Gram.Protocol.job_state_to_string st :: !states)
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "register_callback: %s" (Gram.Protocol.management_error_to_string e));
  let lrm = Gram.Resource.lrm resource in
  Alcotest.(check bool) "listeners held for the live job" true (Lrm.Lrm.job_listeners lrm > 0);
  Gram.Resource.crash resource;
  ignore (Gram.Resource.recover resource);
  (match Gram.Client.manage_sync w.Fusion.kate ~contact Gram.Protocol.Cancel with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "cancel: %s" (Gram.Protocol.management_error_to_string e));
  Sim.Engine.run (Testbed.engine w.Fusion.testbed);
  Alcotest.(check (list string)) "callback delivered the terminal state after the crash"
    [ "CANCELED" ] !states;
  Alcotest.(check int) "no listener outlives its job" 0 (Lrm.Lrm.job_listeners lrm)

(* --- Persist codec ----------------------------------------------------- *)

let roundtrip event =
  match Gram.Persist.decode (Gram.Persist.encode event) with
  | Ok e -> e
  | Error msg -> Alcotest.failf "decode failed: %s" msg

let test_persist_roundtrip () =
  let owner = Gsi.Dn.parse "/O=Grid/O=Demo/CN=Alice Doe" in
  let entry =
    { Gram.Persist.contact = "jmi-000042";
      owner;
      account = "alice";
      jobtag = Some "NFC";
      rsl = "&(executable=TRANSP)(count=4)";
      rsl_fingerprint = String.make 64 'a';
      policy_epoch = Some 3;
      limits =
        { Accounts.Sandbox.max_cpus = Some 4;
          max_memory_mb = None;
          max_walltime = Some 3600.0;
          allowed_directories = [ "/sandbox/test" ];
          allowed_executables = [ "TRANSP"; "a=b,c" ] };
      lrm_job = Some "lrm-7";
      created_at = 12.5 }
  in
  (match roundtrip (Gram.Persist.Job_created entry) with
  | Gram.Persist.Job_created e ->
    Alcotest.(check string) "contact" entry.Gram.Persist.contact e.Gram.Persist.contact;
    Alcotest.(check bool) "owner" true (Gsi.Dn.equal owner e.Gram.Persist.owner);
    Alcotest.(check (option string)) "jobtag" (Some "NFC") e.Gram.Persist.jobtag;
    Alcotest.(check (option int)) "epoch" (Some 3) e.Gram.Persist.policy_epoch;
    Alcotest.(check (list string)) "executables with separators" [ "TRANSP"; "a=b,c" ]
      e.Gram.Persist.limits.Accounts.Sandbox.allowed_executables
  | _ -> Alcotest.fail "wrong constructor");
  (match
     roundtrip
       (Gram.Persist.Management
          { contact = "jmi-000042"; requester = owner; action = "cancel";
            outcome = "denied"; at = 99.0 })
   with
  | Gram.Persist.Management { outcome; _ } ->
    Alcotest.(check string) "outcome" "denied" outcome
  | _ -> Alcotest.fail "wrong constructor");
  match Gram.Persist.decode "kind=nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus kind must not decode"

(* Rebuild is idempotent under the rename-before-truncate window: the
   same creation records seen in both snapshot and journal collapse to
   one entry per contact. *)
let test_rebuild_idempotent () =
  let owner = Gsi.Dn.parse "/O=Grid/O=Demo/CN=Alice" in
  let entry contact =
    Store.Journal.frame
      (Gram.Persist.encode
         (Gram.Persist.Job_created
            { Gram.Persist.contact;
              owner;
              account = "alice";
              jobtag = None;
              rsl = "&(executable=simulate)";
              rsl_fingerprint = String.make 64 '0';
              policy_epoch = None;
              limits = Accounts.Sandbox.unrestricted;
              lrm_job = None;
              created_at = 0.0 }))
  in
  let records = [ entry "jmi-1"; entry "jmi-2" ] in
  let r = Gram.Persist.rebuild ~snapshot:records ~journal:records in
  Alcotest.(check int) "deduplicated by contact" 2 (List.length r.Gram.Persist.entries);
  Alcotest.(check int) "all records decoded" 4 r.Gram.Persist.events;
  Alcotest.(check int) "no failures" 0 r.Gram.Persist.decode_failures;
  Alcotest.(check (list string)) "creation order kept" [ "jmi-1"; "jmi-2" ]
    (List.map
       (fun ((e : Gram.Persist.job_entry), _) -> e.Gram.Persist.contact)
       r.Gram.Persist.entries);
  Alcotest.(check (list string)) "each entry keeps its verified frame"
    (List.map (fun (f : Store.Journal.frame) -> (f :> string)) records)
    (List.map (fun (_, (f : Store.Journal.frame)) -> (f :> string)) r.Gram.Persist.entries)

let () =
  Alcotest.run "grid_store"
    [ ( "journal",
        [ Alcotest.test_case "truncated tail" `Quick test_truncated_tail;
          Alcotest.test_case "torn final record" `Quick test_torn_final_record;
          Alcotest.test_case "bit rot checksum" `Quick test_bit_rot_checksum;
          Alcotest.test_case "replay idempotent" `Quick test_replay_idempotent ] );
      ( "snapshot",
        [ Alcotest.test_case "crash during snapshot falls back" `Quick
            test_crash_during_snapshot_fallback;
          Alcotest.test_case "compaction roundtrip" `Quick test_snapshot_compaction_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_store_preserves_history;
          Alcotest.test_case "snapshot bytes = framed live entries" `Quick
            test_snapshot_bytes_are_framed_entries ] );
      ( "recovery",
        [ Alcotest.test_case "rebuilds job table" `Quick test_recovery_rebuilds_job_table;
          QCheck_alcotest.to_alcotest qcheck_recovery_equals_live_table;
          Alcotest.test_case "decision equivalence after crash" `Quick
            test_decision_equivalence_after_crash;
          Alcotest.test_case "recovery observable" `Quick test_recovery_observable;
          Alcotest.test_case "recovered snapshot = uncrashed twin" `Quick
            test_recovered_snapshot_matches_twin;
          Alcotest.test_case "job listeners survive a crash" `Quick
            test_job_listeners_survive_crash ] );
      ( "persist",
        [ Alcotest.test_case "codec roundtrip" `Quick test_persist_roundtrip;
          Alcotest.test_case "rebuild idempotent" `Quick test_rebuild_idempotent ] ) ]

(* Integration tests for the core facade: the Testbed builder and the
   Fusion (NFC) world end-to-end, including the paper's Section 2 use
   case (developers vs analysts vs admins, high-priority preemption). *)

open Core

let ok_submit = function
  | Ok (r : Gram.Protocol.submit_reply) -> r
  | Error e -> Alcotest.failf "submit failed: %s" (Gram.Protocol.submit_error_to_string e)

let ok_manage = function
  | Ok r -> r
  | Error e -> Alcotest.failf "manage failed: %s" (Gram.Protocol.management_error_to_string e)

let state_of client contact =
  match Gram.Client.status_sync client ~contact with
  | Ok st -> Gram.Protocol.job_state_to_string st.Gram.Protocol.state
  | Error e -> Alcotest.failf "status failed: %s" (Gram.Protocol.management_error_to_string e)

(* --- Testbed --------------------------------------------------------------- *)

let test_testbed_builds () =
  let tb = Testbed.create () in
  let user = Testbed.add_user tb "/O=Grid/CN=Someone" in
  Alcotest.(check string) "user dn" "/O=Grid/CN=Someone"
    (Grid_gsi.Dn.to_string (Gsi.Identity.subject user));
  Alcotest.(check bool) "user retrievable" true (Testbed.user tb "/O=Grid/CN=Someone" == user);
  Alcotest.(check bool) "unknown user raises" true
    (try
       ignore (Testbed.user tb "/O=Grid/CN=Nobody");
       false
     with Invalid_argument _ -> true)

let test_testbed_resource_modes () =
  let tb = Testbed.create () in
  let gridmap =
    Gsi.Gridmap.add Gsi.Gridmap.empty ~dn:(Gsi.Dn.parse "/O=Grid/CN=U") ~account:"u"
  in
  let r_base = Testbed.make_resource tb ~name:"base" ~gridmap ~backend:Baseline in
  let r_ext =
    Testbed.make_resource tb ~name:"ext" ~gridmap
      ~backend:(Custom Callout.Callout.permit_all)
  in
  let u = Testbed.add_user tb "/O=Grid/CN=U" in
  let c_base = Testbed.client tb ~user:u ~resource:r_base in
  let c_ext = Testbed.client tb ~user:u ~resource:r_ext in
  ignore (ok_submit (Gram.Client.submit_sync c_base ~rsl:"&(executable=x)"));
  ignore (ok_submit (Gram.Client.submit_sync c_ext ~rsl:"&(executable=x)(jobtag=T)"));
  (* jobtag is a protocol error on the baseline resource *)
  match Gram.Client.submit_sync c_base ~rsl:"&(executable=x)(jobtag=T)" with
  | Error (Gram.Protocol.Bad_rsl _) -> ()
  | _ -> Alcotest.fail "baseline accepted jobtag"

(* --- Fusion world ------------------------------------------------------------ *)

let test_fusion_analyst_runs_transp () =
  let w = Fusion.build () in
  let reply =
    ok_submit
      (Gram.Client.submit_sync w.Fusion.kate
         ~rsl:"&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)(simduration=100)")
  in
  Alcotest.(check string) "runs" "ACTIVE" (state_of w.Fusion.kate reply.Gram.Protocol.job_contact);
  Testbed.run w.Fusion.testbed;
  Alcotest.(check string) "completes" "DONE"
    (state_of w.Fusion.kate reply.Gram.Protocol.job_contact)

let test_fusion_developer_envelope () =
  let w = Fusion.build () in
  (* Developers: test1/test2 in /sandbox/test under ADS, count < 4. *)
  ignore
    (ok_submit
       (Gram.Client.submit_sync w.Fusion.bo
          ~rsl:"&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=3)"));
  (match
     Gram.Client.submit_sync w.Fusion.bo
       ~rsl:"&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=4)"
   with
  | Error (Gram.Protocol.Authorization_failed _) -> ()
  | _ -> Alcotest.fail "count ceiling not enforced");
  (match
     Gram.Client.submit_sync w.Fusion.bo
       ~rsl:"&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)"
   with
  | Error (Gram.Protocol.Authorization_failed _) -> ()
  | _ -> Alcotest.fail "developer ran the analysts' service");
  match
    Gram.Client.submit_sync w.Fusion.bo ~rsl:"&(executable=test1)(directory=/sandbox/test)"
  with
  | Error (Gram.Protocol.Authorization_failed _) -> ()
  | _ -> Alcotest.fail "untagged job admitted despite VO requirement"

let test_fusion_outsider_denied () =
  let w = Fusion.build () in
  let outsider_id = Testbed.add_user w.Fusion.testbed Fusion.outsider in
  let outsider =
    Testbed.client w.Fusion.testbed ~user:outsider_id ~resource:w.Fusion.resource
  in
  match Gram.Client.submit_sync outsider ~rsl:"&(executable=TRANSP)(jobtag=NFC)" with
  | Error (Gram.Protocol.Gatekeeper_refused _) -> ()
  | _ -> Alcotest.fail "outsider admitted"

let test_fusion_reserved_queue_blocked_by_owner_policy () =
  let w = Fusion.build () in
  match
    Gram.Client.submit_sync w.Fusion.kate
      ~rsl:"&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)(queue=reserved)"
  with
  | Error (Gram.Protocol.Authorization_failed (Gram.Protocol.Authz_denied m)) ->
    Alcotest.(check bool) "denied by the resource owner" true
      (Grid_util.Strings.starts_with ~prefix:"resource-owner" m)
  | _ -> Alcotest.fail "reserved queue admitted"

(* The Section 2 / SC02 scenario: long-running analysis jobs occupy the
   cluster; a high-priority demo arrives; a VO admin (not the owner of the
   running jobs) suspends them, runs the demo, then resumes. *)
let test_fusion_priority_demo_preemption () =
  let w = Fusion.build ~nodes:1 ~cpus_per_node:4 () in
  (* Kate fills the machine with a long NFC analysis. *)
  let long =
    ok_submit
      (Gram.Client.submit_sync w.Fusion.kate
         ~rsl:"&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)(count=4)(simduration=100000)")
  in
  Alcotest.(check string) "analysis running" "ACTIVE" (state_of w.Fusion.kate long.Gram.Protocol.job_contact);
  (* The admin's demo job cannot fit. *)
  let demo =
    ok_submit
      (Gram.Client.submit_sync w.Fusion.vo_admin
         ~rsl:"&(executable=demo)(directory=/sandbox/test)(jobtag=DEMO)(count=4)(simduration=50)")
  in
  Alcotest.(check string) "demo queued" "PENDING"
    (state_of w.Fusion.vo_admin demo.Gram.Protocol.job_contact);
  (* Admin suspends Kate's job — possible only because the admins profile
     grants signal over the NFC tag; Kate is not consulted. *)
  ignore
    (ok_manage
       (Gram.Client.manage_sync w.Fusion.vo_admin ~contact:long.Gram.Protocol.job_contact
          (Gram.Protocol.Signal Gram.Protocol.Suspend)));
  Alcotest.(check string) "analysis suspended" "SUSPENDED"
    (state_of w.Fusion.vo_admin long.Gram.Protocol.job_contact);
  Alcotest.(check string) "demo running" "ACTIVE"
    (state_of w.Fusion.vo_admin demo.Gram.Protocol.job_contact);
  (* Demo finishes; admin resumes the analysis. *)
  Testbed.run_for w.Fusion.testbed 100.0;
  Alcotest.(check string) "demo done" "DONE"
    (state_of w.Fusion.vo_admin demo.Gram.Protocol.job_contact);
  ignore
    (ok_manage
       (Gram.Client.manage_sync w.Fusion.vo_admin ~contact:long.Gram.Protocol.job_contact
          (Gram.Protocol.Signal Gram.Protocol.Resume)));
  Alcotest.(check string) "analysis resumed" "ACTIVE"
    (state_of w.Fusion.vo_admin long.Gram.Protocol.job_contact)

let test_fusion_developer_cannot_preempt () =
  let w = Fusion.build () in
  let kate_job =
    ok_submit
      (Gram.Client.submit_sync w.Fusion.kate
         ~rsl:"&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)(simduration=1000)")
  in
  match
    Gram.Client.manage_sync w.Fusion.bo ~contact:kate_job.Gram.Protocol.job_contact
      (Gram.Protocol.Signal Gram.Protocol.Suspend)
  with
  | Error (Gram.Protocol.Not_authorized _) -> ()
  | _ -> Alcotest.fail "developer suspended an analyst's job"

let test_fusion_own_job_management () =
  let w = Fusion.build () in
  let job =
    ok_submit
      (Gram.Client.submit_sync w.Fusion.bo
         ~rsl:"&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(simduration=1000)")
  in
  (* may_manage_own grants the (jobowner = self) clauses. *)
  ignore (ok_manage (Gram.Client.manage_sync w.Fusion.bo ~contact:job.Gram.Protocol.job_contact
                       Gram.Protocol.Cancel));
  Alcotest.(check string) "own job cancelled" "CANCELED"
    (state_of w.Fusion.bo job.Gram.Protocol.job_contact)

let test_fusion_admin_manages_all_tags () =
  let w = Fusion.build () in
  let dev_job =
    ok_submit
      (Gram.Client.submit_sync w.Fusion.bo
         ~rsl:"&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(simduration=1000)")
  in
  ignore
    (ok_manage
       (Gram.Client.manage_sync w.Fusion.vo_admin ~contact:dev_job.Gram.Protocol.job_contact
          Gram.Protocol.Cancel));
  Alcotest.(check string) "admin cancelled ADS job" "CANCELED"
    (state_of w.Fusion.vo_admin dev_job.Gram.Protocol.job_contact)

let test_fusion_baseline_comparison () =
  (* The same world in baseline mode: VO-wide management is impossible. *)
  let w = Fusion.build ~backend:`Baseline () in
  let job =
    ok_submit
      (Gram.Client.submit_sync w.Fusion.kate
         ~rsl:"&(executable=TRANSP)(directory=/sandbox/test)(simduration=1000)")
  in
  match
    Gram.Client.manage_sync w.Fusion.vo_admin ~contact:job.Gram.Protocol.job_contact
      Gram.Protocol.Cancel
  with
  | Error (Gram.Protocol.Not_authorized _) -> ()
  | _ -> Alcotest.fail "baseline allowed VO-wide management"

let test_fusion_audit_accountability () =
  let w = Fusion.build () in
  let job =
    ok_submit
      (Gram.Client.submit_sync w.Fusion.bo
         ~rsl:"&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(simduration=1000)")
  in
  ignore
    (ok_manage
       (Gram.Client.manage_sync w.Fusion.vo_admin ~contact:job.Gram.Protocol.job_contact
          Gram.Protocol.Cancel));
  (* The audit trail attributes the cancel to the admin, not the owner. *)
  let audit = Gram.Resource.audit w.Fusion.resource in
  let admin_dn = Gsi.Dn.parse Fusion.admin in
  let admin_records = Grid_audit.Audit.by_subject audit admin_dn in
  Alcotest.(check bool) "admin's management recorded" true
    (List.exists
       (fun r -> r.Grid_audit.Audit.kind = Grid_audit.Audit.Job_management)
       admin_records)

let test_fusion_policy_derived_sandbox () =
  (* The Flat_file backend wires File_pep.advice automatically: a
     permitted start leaves a "sandbox derived from policy clause" audit
     record carrying the matched constraints. *)
  let w = Fusion.build () in
  ignore
    (ok_submit
       (Gram.Client.submit_sync w.Fusion.kate
          ~rsl:"&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)"));
  let derived =
    Grid_audit.Audit.records (Gram.Resource.audit w.Fusion.resource)
    |> List.filter (fun r ->
           Grid_util.Strings.starts_with ~prefix:"sandbox derived from policy clause"
             r.Grid_audit.Audit.detail)
  in
  Alcotest.(check int) "derivation recorded" 1 (List.length derived);
  match derived with
  | [ r ] ->
    Alcotest.(check bool) "carries the executable constraint" true
      (Grid_util.Str_search.contains r.Grid_audit.Audit.detail "(executable = TRANSP)")
  | _ -> Alcotest.fail "unexpected"

let test_flat_file_advice_follows_reload () =
  (* A flat-file site derives sandbox advice from the live policy: after
     a reload, the audit record names the reloaded policy's clause, not
     the clause of the policy the site was created with. *)
  let tb = Testbed.create () in
  let dn = "/O=Grid/CN=Reloader" in
  let user = Testbed.add_user tb dn in
  let gridmap = Gsi.Gridmap.add Gsi.Gridmap.empty ~dn:(Gsi.Dn.parse dn) ~account:"reloader" in
  let policy cap =
    [ Policy.Combine.source ~name:"owner"
        (Policy.Parse.parse (Printf.sprintf "/O=Grid: &(action = start)(count < %d)" cap)) ]
  in
  let site =
    Site.create ~gridmap ~backend:(Flat_file (policy 4)) ~engine:(Testbed.engine tb)
      ~trust:(Testbed.trust tb) ~obs:(Testbed.obs tb) ()
  in
  let client = Testbed.client tb ~user ~resource:site.Site.resource in
  let last_derivation () =
    Grid_audit.Audit.records (Gram.Resource.audit site.Site.resource)
    |> List.filter (fun r ->
           Grid_util.Strings.starts_with ~prefix:"sandbox derived from policy clause"
             r.Grid_audit.Audit.detail)
    |> List.rev
    |> function
    | r :: _ -> r.Grid_audit.Audit.detail
    | [] -> Alcotest.fail "no sandbox derivation recorded"
  in
  let submit () =
    ignore (ok_submit (Gram.Client.submit_sync client ~rsl:"&(executable=x)(count=2)"))
  in
  submit ();
  Alcotest.(check bool) "created policy's clause" true
    (Grid_util.Str_search.contains (last_derivation ()) "(count < 4)");
  (match site.Site.reload with
  | Some reload -> reload (policy 8)
  | None -> Alcotest.fail "flat-file site has no reload handle");
  submit ();
  let detail = last_derivation () in
  Alcotest.(check bool) "names the live clause" true
    (Grid_util.Str_search.contains detail "(count < 8)");
  Alcotest.(check bool) "not the dead policy's clause" false
    (Grid_util.Str_search.contains detail "(count < 4)")

let test_fusion_cas_backend () =
  (* Same VO, push model: members fetch CAS capabilities; the resource
     runs the CAS PEP instead of reading policy files. *)
  let tb = Testbed.create () in
  let vo = Fusion.build_vo () in
  let cas = Cas.Server.create ~vo "fusion-cas" in
  let engine = Testbed.engine tb in
  let callout =
    Cas.Pep.callout ~cas_key:(Cas.Server.public_key cas)
      ~now:(fun () -> Grid_sim.Engine.now engine)
  in
  let resource =
    Testbed.make_resource tb ~name:"cas-site"
      ~gridmap:(Gsi.Gridmap.parse Fusion.gridmap_text) ~backend:(Custom callout)
  in
  let kate_id = Testbed.add_user tb Fusion.kate_keahey in
  let kate_proxy =
    Result.get_ok (Cas.Server.grant_proxy cas ~trust:(Testbed.trust tb) ~now:0.0 kate_id)
  in
  let kate = Testbed.client tb ~user:kate_proxy ~resource in
  ignore
    (ok_submit
       (Gram.Client.submit_sync kate
          ~rsl:"&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)"));
  (* Without a capability the same request is denied. *)
  let kate_plain = Testbed.client tb ~user:kate_id ~resource in
  match
    Gram.Client.submit_sync kate_plain
      ~rsl:"&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)"
  with
  | Error (Gram.Protocol.Authorization_failed (Gram.Protocol.Authz_denied _)) -> ()
  | _ -> Alcotest.fail "capability-less submission admitted by CAS PEP"

(* --- Workload stress ---------------------------------------------------------- *)

let fusion_profiles (w : Fusion.world) =
  [ { Workload.identity = Gram.Client.identity w.Fusion.bo;
      rsl_templates =
        [ "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=2)(simduration=40)";
          "&(executable=test2)(directory=/sandbox/test)(jobtag=ADS)(count=3)(simduration=20)";
          (* over the count<4 limit: always denied *)
          "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=4)";
          (* missing jobtag: requirement violation *)
          "&(executable=test1)(directory=/sandbox/test)" ];
      weight = 3 };
    { Workload.identity = Gram.Client.identity w.Fusion.kate;
      rsl_templates =
        [ "&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)(count=4)(simduration=120)";
          "&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)(simduration=60)" ];
      weight = 2 } ]

let test_workload_accounting () =
  let w = Fusion.build ~nodes:8 ~cpus_per_node:8 () in
  let stats =
    Workload.run
      ~engine:(Testbed.engine w.Fusion.testbed)
      ~resource:w.Fusion.resource ~profiles:(fusion_profiles w)
      { Workload.default_config with Workload.job_count = 300; seed = 7 }
  in
  (* Every submission is accounted for exactly once. *)
  Alcotest.(check int) "all submissions issued" 300 stats.Workload.submitted;
  Alcotest.(check int) "accepted + denied = submitted" 300
    (stats.Workload.accepted + stats.Workload.denied_authorization
   + stats.Workload.denied_other);
  (* Both policy-permitted and policy-denied templates are in the mix,
     so the tallies must both be non-trivial. *)
  Alcotest.(check bool) "some accepted" true (stats.Workload.accepted > 50);
  Alcotest.(check bool) "some denied by policy" true
    (stats.Workload.denied_authorization > 20);
  (* After the engine drains, every accepted job reached a terminal or
     suspended state, CPUs balance, and the LRM invariant holds. *)
  let lrm = Gram.Resource.lrm w.Fusion.resource in
  Alcotest.(check bool) "lrm invariant" true (Lrm.Lrm.invariant_holds lrm);
  let non_terminal =
    List.filter
      (fun (j : Lrm.Lrm.job) ->
        match j.Lrm.Lrm.state with
        | Lrm.Lrm.Completed | Lrm.Lrm.Cancelled | Lrm.Lrm.Killed _ | Lrm.Lrm.Suspended ->
          false
        | Lrm.Lrm.Pending | Lrm.Lrm.Running -> true)
      (Lrm.Lrm.jobs lrm)
  in
  Alcotest.(check int) "no job stuck pending/running" 0 (List.length non_terminal);
  (* Audit coverage: one successful authorization per accepted job at
     minimum (start), plus records for denials. *)
  let audit = Gram.Resource.audit w.Fusion.resource in
  Alcotest.(check bool) "audit saw the workload" true
    (Audit.Audit.count audit >= stats.Workload.submitted)

let test_workload_deterministic () =
  let run_once () =
    let w = Fusion.build ~nodes:4 ~cpus_per_node:4 () in
    let stats =
      Workload.run
        ~engine:(Testbed.engine w.Fusion.testbed)
        ~resource:w.Fusion.resource ~profiles:(fusion_profiles w)
        { Workload.default_config with Workload.job_count = 120; seed = 99 }
    in
    ( stats.Workload.accepted,
      stats.Workload.denied_authorization,
      stats.Workload.management_requests )
  in
  Alcotest.(check (triple int int int)) "same seed, same outcome" (run_once ()) (run_once ())

let test_workload_baseline_vs_extended_admission () =
  (* The baseline admits everything the gridmap lets through (minus
     jobtag protocol errors); the extended mode also applies policy. *)
  let run backend =
    let w = Fusion.build ~backend ~nodes:8 ~cpus_per_node:8 () in
    (* Tag-free templates so the baseline protocol accepts them. *)
    let profiles =
      [ { Workload.identity = Gram.Client.identity w.Fusion.bo;
          rsl_templates = [ "&(executable=evil)(directory=/tmp)(simduration=10)" ];
          weight = 1 } ]
    in
    let stats =
      Workload.run
        ~engine:(Testbed.engine w.Fusion.testbed)
        ~resource:w.Fusion.resource ~profiles
        { Workload.default_config with Workload.job_count = 50; seed = 3 }
    in
    stats.Workload.accepted
  in
  Alcotest.(check int) "baseline admits all" 50 (run `Baseline);
  Alcotest.(check int) "extended denies all" 0 (run `Flat_file)

let () =
  Alcotest.run "core"
    [ ( "testbed",
        [ Alcotest.test_case "builds" `Quick test_testbed_builds;
          Alcotest.test_case "resource modes" `Quick test_testbed_resource_modes ] );
      ( "fusion",
        [ Alcotest.test_case "analyst runs TRANSP" `Quick test_fusion_analyst_runs_transp;
          Alcotest.test_case "developer envelope" `Quick test_fusion_developer_envelope;
          Alcotest.test_case "outsider denied" `Quick test_fusion_outsider_denied;
          Alcotest.test_case "reserved queue" `Quick
            test_fusion_reserved_queue_blocked_by_owner_policy;
          Alcotest.test_case "priority demo preemption" `Quick
            test_fusion_priority_demo_preemption;
          Alcotest.test_case "developer cannot preempt" `Quick
            test_fusion_developer_cannot_preempt;
          Alcotest.test_case "own-job management" `Quick test_fusion_own_job_management;
          Alcotest.test_case "admin manages all tags" `Quick test_fusion_admin_manages_all_tags;
          Alcotest.test_case "baseline comparison" `Quick test_fusion_baseline_comparison;
          Alcotest.test_case "audit accountability" `Quick test_fusion_audit_accountability;
          Alcotest.test_case "policy-derived sandbox" `Quick
            test_fusion_policy_derived_sandbox;
          Alcotest.test_case "derived sandbox follows reload" `Quick
            test_flat_file_advice_follows_reload;
          Alcotest.test_case "CAS backend" `Quick test_fusion_cas_backend ] );
      ( "workload",
        [ Alcotest.test_case "accounting" `Quick test_workload_accounting;
          Alcotest.test_case "deterministic" `Quick test_workload_deterministic;
          Alcotest.test_case "baseline vs extended" `Quick
            test_workload_baseline_vs_extended_admission ] ) ]

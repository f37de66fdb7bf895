(* site_days: one site built as a soak member, driven through many
   simulated days.

   Flat-file compiled PEP on the single lane, a 2,048-entry decision
   cache, and a durable store compacting every 64 appends. Poisson
   arrivals of about 400 jobs per simulated day from the Fusion cast, a
   VO member outside every profile, a DN outside the gridmap and an
   over-limit template; 30% of accepted jobs get one management
   follow-up from the owner, the VO admin (via jobtag) or a non-owner.
   Once a day the VO membership changes and the PEP reloads, and once a
   day the job manager crashes and recovers. Terminal jobs are never
   retired, so an episode shows how cost grows with history. *)

open Core

let default_days = 6.0
let jobs_per_day = 400.0
let follow_up_share = 0.3

let mallory = Fusion.organization ^ "/CN=Mallory Mallone"
let stranger = Fusion.organization ^ "/CN=Sam Stranger"

let gridmap_text =
  Fusion.gridmap_text ^ Printf.sprintf "%S mallory\n%S stranger\n" mallory stranger

type user = {
  dn : string;
  base : Gsi.Identity.t;
  mutable client : Gram.Client.t;
  weight : int;
  templates : string list;
}

type job = {
  contact : string;
  owner : Gsi.Dn.t;
  jobtag : string option;
}

let episode ?(days = default_days) ?plant ~seed ~trace index =
  let rng = Util.Rng.create ~seed:((seed * 1_000_003) + index) in
  let total = Sim.Clock.days days in
  let engine, resource, pep, vo, users, oracle =
    Harness.setup (fun () ->
        (* Each episode is a fresh world: process-global ids and keys
           restart too. *)
        Util.Ids.reset ();
        Crypto.Keypair.reset_keystore ();
        let engine = Sim.Engine.create () in
        let ca =
          Gsi.Ca.create
            ~lifetime:(total +. Sim.Clock.days 7.0)
            ~default_identity_lifetime:(total +. Sim.Clock.days 1.0)
            ~now:0.0 "/O=Grid/CN=Site Days CA"
        in
        let trust = Gsi.Ca.Trust_store.create () in
        Gsi.Ca.Trust_store.add trust (Gsi.Ca.certificate ca);
        let obs = Obs.Obs.of_engine engine in
        let vo = Fusion.build_vo () in
        Vo.Vo.add_member vo ~dn:mallory ~groups:[ "analysts" ];
        let sources = Fusion.policy_sources vo in
        let pep = Callout.File_pep.Compiled.create ~obs sources in
        let callout = Callout.File_pep.Compiled.callout pep in
        let callout = match plant with Some p -> p callout | None -> callout in
        let callout = if trace then Probe.callout callout else callout in
        let epoch () = Callout.File_pep.Compiled.epoch pep in
        let disk = Sim.Disk.create ~seed:(seed + 29) () in
        let store = Store.Store.create ~obs ~snapshot_every:64 ~disk ~name:"site" () in
        let authz_cache =
          Callout.Cache.create ~capacity:2048 ~ttl:(Sim.Clock.minutes 5.0) ~obs ~epoch
            ~now:(fun () -> Sim.Engine.now engine)
            ()
        in
        let resource =
          Gram.Resource.create ~name:"site" ~authz_cache ~store ~policy_epoch:epoch ~obs
            ~trust
            ~mapper:(Accounts.Mapper.create (Gsi.Gridmap.parse gridmap_text))
            ~mode:(Gram.Mode.extended ~backend:"flat_file" callout)
            ~lrm:(Lrm.Lrm.create ~obs ~nodes:8 ~cpus_per_node:8 engine)
            ~engine ()
        in
        let user dn weight templates =
          let base = Gsi.Identity.create ~ca ~now:0.0 dn in
          let proxy = Gsi.Identity.delegate base ~now:0.0 in
          { dn; base; client = Gram.Client.create ~identity:proxy ~resource (); weight; templates }
        in
        let users =
          [ user Fusion.bo_liu 3
              [ "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=2)";
                "&(executable=compiler)(directory=/sandbox/test)(jobtag=ADS)";
                "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=6)" ];
            user Fusion.kate_keahey 2
              [ "&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)(count=4)" ];
            user Fusion.admin 1 [ "&(executable=demo)(directory=/sandbox/test)(jobtag=DEMO)" ];
            user mallory 1 [ "&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)" ];
            user stranger 1 [ "&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)" ];
            user Fusion.outsider 1
              [ "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)" ] ]
        in
        (engine, resource, pep, vo, Array.of_list users, Oracle.create sources))
  in
  let admin = users.(2) in
  let weights = Array.fold_left (fun n u -> n + u.weight) 0 users in
  let pick_user () =
    let rec go i k =
      if k < users.(i).weight then users.(i) else go (i + 1) (k - users.(i).weight)
    in
    go 0 (Util.Rng.int rng weights)
  in
  let agenda = Harness.Agenda.create () in
  let manage (requester : user) job action =
    let id = Harness.issue 1 in
    let reply =
      Harness.request Harness.Manage ~requests:1 "gram.manage" (fun () ->
          let credential =
            Harness.Trace.span "gsi.mint" (fun () -> Gram.Client.credential_for requester.client)
          in
          Gram.Resource.manage_direct resource ~requester:(Gsi.Identity.subject requester.base)
            ~credential ~contact:job.contact action)
    in
    Oracle.check oracle
      ~label:(fun () ->
        Printf.sprintf "site_days request %d (%s %s by %s)" id
          (Gram.Protocol.management_action_to_string action) job.contact requester.dn)
      (Some
         (Oracle.manage_query ~requester:(Gsi.Identity.subject requester.base)
            ~owner:job.owner ~jobtag:job.jobtag action))
      (Oracle.of_manage reply)
  in
  let durations = [| "60"; "180"; "600"; "2400" |] in
  let submit () =
    let u = pick_user () in
    let rsl =
      Printf.sprintf "%s(simduration=%s)" (Util.Rng.pick rng u.templates)
        durations.(Util.Rng.int rng (Array.length durations))
    in
    let id = Harness.issue 1 in
    let reply =
      Harness.request Harness.Submit ~requests:1 "gram.submit" (fun () ->
          let credential =
            Harness.Trace.span "gsi.mint" (fun () -> Gram.Client.credential_for u.client)
          in
          Gram.Resource.submit_direct resource ~credential ~rsl)
    in
    let owner = Gsi.Identity.subject u.base in
    Oracle.check oracle
      ~label:(fun () -> Printf.sprintf "site_days request %d (submit %s by %s)" id rsl u.dn)
      (Oracle.start_query ~requester:owner ~rsl)
      (Oracle.of_submit reply);
    match reply with
    | Ok { Gram.Protocol.job_contact; _ } when Util.Rng.float rng 1.0 < follow_up_share ->
      let jobtag =
        match Rsl.Job.of_string rsl with Ok j -> j.Rsl.Job.jobtag | Error _ -> None
      in
      let job = { contact = job_contact; owner; jobtag } in
      let requester =
        let k = Util.Rng.int rng 10 in
        if k < 5 then u else if k < 8 then admin else pick_user ()
      in
      let action =
        match Util.Rng.int rng 10 with
        | 0 | 1 | 2 | 3 | 4 -> Gram.Protocol.Status
        | 5 -> Gram.Protocol.Signal Gram.Protocol.Suspend
        | 6 -> Gram.Protocol.Signal (Gram.Protocol.Set_priority 5)
        | _ -> Gram.Protocol.Cancel
      in
      Harness.Agenda.at agenda
        (Sim.Engine.now engine +. 30.0 +. Util.Rng.float rng 3600.0)
        (fun () -> manage requester job action)
    | _ -> ()
  in
  (* Poisson arrivals over the episode. *)
  let rec arrivals t =
    let t = t -. (Sim.Clock.days 1.0 /. jobs_per_day *. log (1.0 -. Util.Rng.float rng 1.0)) in
    if t < total then begin
      Harness.Agenda.at agenda t submit;
      arrivals t
    end
  in
  arrivals 0.0;
  (* Daily operations: proxy renewal every 10 hours, a VO membership
     change with a PEP reload at mid-day, a crash and recovery at 18h. *)
  let rec renewals t =
    if t < total then begin
      Harness.Agenda.at agenda t (fun () ->
          Array.iter
            (fun u ->
              let proxy =
                Harness.program "gsi.mint" (fun () ->
                    Gsi.Identity.delegate u.base ~now:(Sim.Engine.now engine))
              in
              u.client <- Gram.Client.create ~identity:proxy ~resource ())
            users);
      renewals (t +. Sim.Clock.hours 10.0)
    end
  in
  renewals (Sim.Clock.hours 10.0);
  for day = 0 to int_of_float days - 1 do
    let start = Sim.Clock.days (float_of_int day) in
    Harness.Agenda.at agenda (start +. Sim.Clock.hours 12.0) (fun () ->
        let mallory_dn = Gsi.Dn.parse mallory in
        if Vo.Vo.is_member vo mallory_dn then Vo.Vo.remove_member vo ~dn:mallory_dn
        else Vo.Vo.add_member vo ~dn:mallory ~groups:[ "analysts" ];
        let sources = Fusion.policy_sources vo in
        Harness.reload (fun () -> Callout.File_pep.Compiled.reload pep sources);
        Oracle.set_sources oracle sources);
    Harness.Agenda.at agenda (start +. Sim.Clock.hours 18.0) (fun () ->
        let summary, dt =
          Harness.timed "store.recover" (fun () ->
              Gram.Resource.crash resource;
              Gram.Resource.recover resource)
        in
        Harness.recoveries := dt :: !Harness.recoveries;
        Harness.Counters.add "store.recover_records"
          (float_of_int summary.Gram.Resource.records_replayed))
  done;
  Harness.drive agenda ~advance:(Sim.Engine.run_until engine);
  Harness.mark_live_heap ();
  Harness.Counters.add "sim.events" (float_of_int (Sim.Engine.executed engine));
  Probe.resource_counters resource

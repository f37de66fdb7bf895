(* fleet_population: a tokenized 4-member fleet serving a 10^5-DN
   zipfian population.

   Flat-file members with 1,024-entry decision caches and no store,
   behind one MDS directory and broker; the STS distributes revocations
   in push mode. Each arrival mints the subject's identity, exchanges it
   for a token-carrying proxy and is placed through [Fleet.submit].
   A quarter of the accepted jobs get a follow-up from the owner or the
   community admin, flushed through [Fleet.manage_many] before the next
   arrival. At 35% and 70% of the arrivals the population churns and
   the members reload one after another; at 50% and 85% a zipf-head
   subject is revoked at the STS. Member capacity is sized so placement
   almost never runs out of CPUs. *)

open Core

let arrivals = 2000
let arrival_rate = 20.0
let population_size = 100_000
let follow_up_share = 0.25
let cross_admin_share = 0.2
let members = 4
let reload_stagger = 5.0
let durations = [| "5"; "10"; "20"; "40" |]

type follow_up = {
  requester : Gsi.Identity.t;  (* token-carrying proxy *)
  contact : string;
  owner : Gsi.Dn.t;
  jobtag : string option;
  action : Gram.Protocol.management_action;
}

let episode ~seed ~trace:_ index =
  let rng = Util.Rng.create ~seed:((seed * 1_000_003) + index) in
  let engine, obs, ca, pop, sources, sts, fleet, oracles =
    Harness.setup (fun () ->
        (* Each episode is a fresh world: process-global ids and keys
           restart too. *)
        Util.Ids.reset ();
        Crypto.Keypair.reset_keystore ();
        let engine = Sim.Engine.create () in
        let ca = Gsi.Ca.create ~now:0.0 "/O=Grid/CN=Population CA" in
        let trust = Gsi.Ca.Trust_store.create () in
        Gsi.Ca.Trust_store.add trust (Gsi.Ca.certificate ca);
        let obs = Obs.Obs.of_engine engine in
        let pop = Population.create ~seed:(seed + (7 * index)) ~size:population_size in
        let vo = Fusion.build_vo () in
        let sources () =
          [ Policy.Combine.source ~name:"resource-owner"
              (Fusion.resource_owner_policy () @ Population.owner_policy pop);
            Policy.Combine.source ~name:(Vo.Vo.name vo)
              (Vo.Vo.compile_policy vo @ Population.policy pop) ]
        in
        let sts =
          Sts.Service.create ~name:"pop-sts" ~mode:Sts.Validator.Push ~engine ~trust ~obs ()
        in
        let fleet =
          Fleet.create ~resources:members ~name_prefix:"pop-site" ~nodes:48 ~cpus_per_node:8
            ~gridmap:(Gsi.Gridmap.parse Fusion.gridmap_text)
            ~dynamic_accounts:8192 ~authz_cache:1024 ~seed ~sts ~sources ~engine ~trust ~obs
            ()
        in
        let oracles = Array.init members (fun _ -> Oracle.create (sources ())) in
        (engine, obs, ca, pop, sources, sts, fleet, oracles))
  in
  let member_index name =
    let rec go i =
      if i >= members then invalid_arg ("fleet_population: unknown member " ^ name)
      else if String.equal (Fleet.member_name (Fleet.member fleet i)) name then i
      else go (i + 1)
    in
    go 0
  in
  let now () = Sim.Engine.now engine in
  let window = Sts.Service.propagation_window sts in
  let revoked : (string, float) Hashtbl.t = Hashtbl.create 8 in
  let revocation dn =
    match Hashtbl.find_opt revoked (Gsi.Dn.to_string dn) with
    | None -> `No
    | Some at -> if now () < at +. window then `Exempt else `Enforced
  in
  let mint rank =
    let identity =
      Harness.Trace.span "gsi.mint" (fun () -> Population.identity pop ~ca ~now:(now ()) rank)
    in
    Harness.Trace.span "sts.exchange" (fun () ->
        Sts.Service.proxy_with_token sts ~now:(now ()) identity)
  in
  let admin =
    match Harness.program "sts.admin" (fun () -> mint (Population.admin_rank pop)) with
    | Ok (proxy, _) -> proxy
    | Error e ->
      failwith
        ("fleet_population: admin exchange refused: " ^ Sts.Service.exchange_error_to_string e)
  in
  let pending = ref [] in
  let flush () =
    match List.rev !pending with
    | [] -> ()
    | items ->
      pending := [];
      let items = Array.of_list items in
      (* Each job gets at most one follow-up, so a contact names its
         requester's proxy within a batch. *)
      let proxies = Hashtbl.create (Array.length items) in
      Array.iter (fun f -> Hashtbl.replace proxies f.contact f.requester) items;
      let requests =
        Array.map
          (fun f ->
            { Gram.Resource.requester = Gsi.Identity.effective_subject f.requester;
              credential = None;
              contact = f.contact;
              action = f.action })
          items
      in
      let credential_for resource (r : Gram.Resource.manage_request) =
        Harness.Trace.span "gsi.mint" (fun () ->
            Some
              (Gsi.Credential.of_identity (Hashtbl.find proxies r.contact)
                 ~challenge:(Gram.Resource.new_challenge resource)))
      in
      let first = Harness.issue (Array.length items) in
      let replies =
        Harness.request Harness.Manage ~requests:(Array.length items) "gram.manage_batch" (fun () ->
            Fleet.manage_many ~credential_for fleet requests)
      in
      Array.iteri
        (fun i reply ->
          let f = items.(i) in
          let subject = Gsi.Identity.effective_subject f.requester in
          let oracle =
            match Fleet.locate fleet ~contact:f.contact with
            | Some m -> oracles.(member_index (Fleet.member_name m))
            | None -> oracles.(0)
          in
          Oracle.check oracle ~revoked:(revocation subject)
            ~label:(fun () ->
              Printf.sprintf "fleet_population request %d (%s %s by %s)" (first + i)
                (Gram.Protocol.management_action_to_string f.action) f.contact
                (Gsi.Dn.to_string subject))
            (Some (Oracle.manage_query ~requester:subject ~owner:f.owner ~jobtag:f.jobtag f.action))
            (Oracle.of_manage reply))
        replies
  in
  let agenda = Harness.Agenda.create () in
  let submit () =
    flush ();
    let rank = Population.sample pop rng in
    let dn = Gsi.Dn.parse (Population.dn pop rank) in
    let rsl =
      Printf.sprintf "%s(simduration=%s)" (Population.template pop rng rank)
        durations.(Util.Rng.int rng (Array.length durations))
    in
    let id = Harness.issue 1 in
    let label () =
      Printf.sprintf "fleet_population request %d (submit %s by %s)" id rsl
        (Gsi.Dn.to_string dn)
    in
    let outcome =
      Harness.request Harness.Submit ~requests:1 "gram.submit" (fun () ->
          match mint rank with
          | Error e -> `Refused e
          | Ok (proxy, _) ->
            let answer = ref None in
            Fleet.submit fleet ~identity:proxy ~rsl ~reply:(fun r -> answer := Some r);
            let rec wait () =
              match !answer with
              | Some r -> r
              | None ->
                if Sim.Engine.step engine then wait ()
                else failwith "fleet_population: engine drained before the reply"
            in
            `Placed (proxy, wait ()))
    in
    match outcome with
    | `Refused e ->
      (* A refused exchange is an answer only for a revoked subject. *)
      if revocation dn = `No then
        Harness.mismatch
          (Printf.sprintf "%s: token exchange refused: %s" (label ())
             (Sts.Service.exchange_error_to_string e));
      Harness.count Harness.Answered
    | `Placed (proxy, result) -> (
      let query = Oracle.start_query ~requester:dn ~rsl in
      let check i reply = Oracle.check oracles.(i) ~revoked:(revocation dn) ~label query reply in
      match result with
      | Ok (site, reply) ->
        check (member_index site) Oracle.Permit;
        if Util.Rng.float rng 1.0 < follow_up_share then begin
          let requester = if Util.Rng.float rng 1.0 < cross_admin_share then admin else proxy in
          let action =
            match Util.Rng.int rng 4 with
            | 0 | 1 -> Gram.Protocol.Status
            | 2 -> Gram.Protocol.Signal (Gram.Protocol.Set_priority 2)
            | _ -> Gram.Protocol.Cancel
          in
          let f =
            { requester;
              contact = reply.Gram.Protocol.job_contact;
              owner = dn;
              jobtag = Some (Population.jobtag pop rank);
              action }
          in
          Harness.Agenda.at agenda (now () +. 1.0 +. Util.Rng.float rng 10.0) (fun () ->
              pending := f :: !pending)
        end
      | Error (Fleet.Site_error (site, e)) ->
        check (member_index site) (Oracle.of_submit (Error e))
      | Error Fleet.Unplaceable ->
        Harness.Counters.add "fleet.unplaceable" 1.0;
        check 0 (Oracle.Failure "unplaceable")
      | Error (Fleet.Unreachable _) -> check 0 (Oracle.Failure "unreachable")
      | Error (Fleet.Rejected r) -> check 0 (Oracle.Before_callout r))
  in
  let span = float_of_int arrivals /. arrival_rate in
  let rec schedule t n =
    if n < arrivals then begin
      Harness.Agenda.at agenda t submit;
      schedule (t -. (log (1.0 -. Util.Rng.float rng 1.0) /. arrival_rate)) (n + 1)
    end
  in
  schedule 1.0 0;
  List.iter
    (fun share ->
      Harness.Agenda.at agenda (share *. span) (fun () ->
          Harness.program "population.churn" (fun () -> Population.churn pop);
          for i = 0 to members - 1 do
            Harness.Agenda.at agenda (now () +. (reload_stagger *. float_of_int i)) (fun () ->
                Harness.reload (fun () -> ignore (Fleet.reload_member fleet i));
                Oracle.set_sources oracles.(i) (sources ()))
          done))
    [ 0.35; 0.7 ];
  List.iter
    (fun share ->
      Harness.Agenda.at agenda (share *. span) (fun () ->
          let rec head () =
            let r = Util.Rng.int rng 20 in
            if r = Population.admin_rank pop then head () else r
          in
          let dn = Population.dn pop (head ()) in
          if not (Hashtbl.mem revoked dn) then begin
            Hashtbl.replace revoked dn (now ());
            Harness.program "sts.revoke" (fun () ->
                Sts.Service.revoke_subject sts ~now:(now ()) (Gsi.Dn.parse dn))
          end))
    [ 0.5; 0.85 ];
  Harness.drive agenda ~advance:(Sim.Engine.run_until engine);
  flush ();
  (* Let the last pushes land before reading the validators. *)
  Harness.program "sim.advance" (fun () -> Sim.Engine.run_until engine (now () +. (2.0 *. window)));
  Fleet.quiesce fleet;
  Harness.mark_live_heap ();
  List.iter
    (fun m ->
      Option.iter
        (fun v ->
          if Harness.first_measured_episode () then
            Harness.revocation_latencies :=
              Sts.Validator.enforcement_latencies v @ !Harness.revocation_latencies;
          Harness.Counters.add "sts.revoked_entries" (float_of_int (Sts.Validator.entries v));
          Harness.Counters.add "sts.state_bytes" (float_of_int (Sts.Validator.state_bytes v));
          Harness.Counters.add "sts.deliveries" (float_of_int (Sts.Validator.deliveries v)))
        (Fleet.member_validator m);
      Harness.Counters.add "mds.publications" (float_of_int (Fleet.member_publications m));
      Probe.resource_counters (Fleet.member_resource m))
    (Fleet.members fleet);
  Harness.Counters.add "fleet.routed_jobs" (float_of_int (Fleet.routed_jobs fleet));
  Harness.Counters.add "sim.events" (float_of_int (Sim.Engine.executed engine));
  (* The members build their callouts inside [Fleet.create]; their
     decisions are read from the program's own counter. *)
  List.iter
    (fun (s : Obs.Metrics.series) ->
      match s.series_data with
      | Obs.Metrics.Counter v when String.equal s.series_name "authz_decisions_total" ->
        Harness.Counters.add "callout.decisions" v;
        if List.assoc_opt "outcome" s.series_labels = Some "permitted" then
          Harness.Counters.add "callout.permits" v
      | _ -> ())
    (Obs.Metrics.dump (Obs.Obs.metrics obs))

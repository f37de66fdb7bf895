(* manage_storm: management requests against a resident set of
   long-running tagged jobs, through the batched ReBAC decision path.

   The VO is an organization trie 8 levels deep with 4 branches per
   level, a grant at every node, so a decision expands group nesting.
   Requests arrive in batches of 64 through [Resource.manage_many_direct]
   behind [Mode.extended_batch] and a decision cache. Each request is a
   (requester, job, action) triple drawn zipfian from a fixed table, so
   the hot head fits the cache and the tail does not. Requesters come
   from every nesting level, plus owners, the VO admin and strangers. A
   permitted cancel is followed by a replacement job in the same slot,
   submitted by the next user in a fixed rotation, which keeps the
   resident set steady and the submitters' nesting depths even. Every 60 batches the PEP
   reloads with changed membership. *)

open Core

let batches = 150
let batch_size = 64
let resident_jobs = 500
let table_size = 4096
let reload_every = 60
let cache_capacity = 2048
let depth = 8
let branching = 4
let org = "/O=Grid/O=Storm"
let admin_dn = org ^ "/CN=Storm Admin"
let tags = [| "S0"; "S1"; "S2"; "S3" |]

let chain level =
  String.concat "" (List.init level (fun i -> Printf.sprintf "/OU=l%ds0" (i + 1)))

(* The sources at a membership generation: the owner's source admits
   the organization; the VO's grants sit at every trie node, and odd
   generations add cancel rights for the level-4 subtree. *)
let sources generation =
  let node level s = Printf.sprintf "%s%s/OU=l%ds%d" org (chain (level - 1)) level s in
  let grants =
    List.concat_map
      (fun level ->
        List.init branching (fun s ->
            Printf.sprintf
              "%s: &(action = information)(jobtag = %s) &(action = signal)(jobtag = %s)%s"
              (node level s)
              tags.(level mod 4)
              tags.((level + s) mod 4)
              (if s = 0 && level mod 3 = 0 then
                 Printf.sprintf " &(action = cancel)(jobtag = %s)" tags.(level mod 4)
               else "")))
      (List.init depth (fun i -> i + 1))
  in
  let membership =
    if generation land 1 = 1 then
      [ Printf.sprintf "%s%s: &(action = cancel)(jobtag = S1)" org (chain 4) ]
    else []
  in
  let vo =
    [ Printf.sprintf "&%s: (action = start)(jobtag != NULL)" org;
      Printf.sprintf "%s: &(action = start)(executable = longrun)(directory = /sandbox/storm)" org;
      Printf.sprintf "%s: &(action = cancel) &(action = information) &(action = signal)" admin_dn ]
    @ grants @ membership
  in
  let owner =
    [ Printf.sprintf "/O=Grid: &(action = start)(queue != reserved)";
      "/O=Grid: &(action = cancel) &(action = information) &(action = signal)" ]
  in
  [ Policy.Combine.source ~name:"resource-owner" (Policy.Parse.parse (String.concat "\n" owner));
    Policy.Combine.source ~name:"storm-vo" (Policy.Parse.parse (String.concat "\n" vo)) ]

(* Users at every nesting level of the s0 chain, leaves under sibling
   branches, the admin, and strangers outside the organization. *)
let user_dns =
  let on_chain =
    List.concat_map
      (fun level ->
        List.init 4 (fun i -> Printf.sprintf "%s%s/CN=u%d_%d" org (chain level) level i))
      (List.init (depth + 1) Fun.id)
  in
  let siblings =
    List.concat_map
      (fun level ->
        List.init (branching - 1) (fun s ->
            Printf.sprintf "%s%s/OU=l%ds%d/CN=v%d" org (chain (level - 1)) level (s + 1) level))
      (List.init depth (fun i -> i + 1))
  in
  Array.of_list (on_chain @ siblings)

let strangers = Array.init 5 (fun i -> Printf.sprintf "/O=Grid/O=Elsewhere/CN=stranger%d" i)

type job = {
  mutable contact : string;
  mutable owner : int;  (* index into the users *)
  tag : string;
}

(* One request of a batch, as sent: the job's contact and owner are
   captured, since a replacement later in the batch changes both. *)
type pick = {
  job : job;
  contact : string;
  owner : int;
  requester : int;
  action : Gram.Protocol.management_action;
}

let rsl tag =
  Printf.sprintf
    "&(executable=longrun)(directory=/sandbox/storm)(jobtag=%s)(simduration=100000000)" tag

let episode ~seed ~trace index =
  let rng = Util.Rng.create ~seed:((seed * 1_000_003) + index) in
  let generation = ref 0 in
  let engine, resource, pep, proxies, subjects, jobs, table, oracle =
    Harness.setup (fun () ->
        (* Each episode is a fresh world: process-global ids and keys
           restart too. *)
        Util.Ids.reset ();
        Crypto.Keypair.reset_keystore ();
        let engine = Sim.Engine.create () in
        let ca = Gsi.Ca.create ~now:0.0 "/O=Grid/CN=Storm CA" in
        let trust = Gsi.Ca.Trust_store.create () in
        Gsi.Ca.Trust_store.add trust (Gsi.Ca.certificate ca);
        let obs = Obs.Obs.of_engine engine in
        let initial = sources 0 in
        let pep = Rebac.Pep.create ~obs initial in
        let batch = Rebac.Pep.batch pep in
        let batch = if trace then Probe.batch batch else batch in
        let authz_cache =
          Callout.Cache.create ~capacity:cache_capacity ~ttl:(Sim.Clock.minutes 5.0) ~obs
            ~epoch:(fun () -> Rebac.Pep.epoch pep)
            ~revision:(fun () -> Rebac.Pep.revision pep)
            ~now:(fun () -> Sim.Engine.now engine)
            ()
        in
        let dns = Array.concat [ user_dns; [| admin_dn |]; strangers ] in
        let gridmap =
          String.concat ""
            (List.mapi (fun i dn -> Printf.sprintf "%S storm%d\n" dn i) (Array.to_list user_dns))
        in
        let resource =
          Gram.Resource.create ~name:"storm" ~authz_cache
            ~policy_epoch:(fun () -> Rebac.Pep.epoch pep)
            ~obs ~trust
            ~mapper:(Accounts.Mapper.create (Gsi.Gridmap.parse gridmap))
            ~mode:(Gram.Mode.extended_batch ~backend:"rebac" batch)
            ~lrm:(Lrm.Lrm.create ~obs ~nodes:64 ~cpus_per_node:32 engine)
            ~engine ()
        in
        let proxies =
          Array.map
            (fun dn -> Gsi.Identity.delegate (Gsi.Identity.create ~ca ~now:0.0 dn) ~now:0.0)
            dns
        in
        let subjects = Array.map Gsi.Identity.effective_subject proxies in
        let jobs =
          Array.init resident_jobs (fun j ->
              let owner = j mod Array.length user_dns in
              let tag = tags.(j / Array.length user_dns mod 4) in
              match
                Gram.Resource.submit_direct resource
                  ~credential:
                    (Gsi.Credential.of_identity proxies.(owner)
                       ~challenge:(Gram.Resource.new_challenge resource))
                  ~rsl:(rsl tag)
              with
              | Ok reply -> { contact = reply.Gram.Protocol.job_contact; owner; tag }
              | Error e ->
                failwith
                  ("manage_storm: resident job refused: " ^ Gram.Protocol.submit_error_to_string e))
        in
        (* (requester, job, action) triples: 40% trie users, 25% the
           owner, 15% the admin, 20% strangers. Requester kind, trie
           user and action follow fixed strides through the table, so
           the hot head has the same make-up under every seed; the seed
           picks the target jobs. *)
        let admin = Array.length user_dns in
        let table =
          Array.init table_size (fun k ->
              let job = Util.Rng.int rng resident_jobs in
              let requester =
                match k mod 20 with
                | c when c < 8 -> k / 20 mod Array.length user_dns
                | c when c < 13 -> -1 (* the job's current owner *)
                | c when c < 16 -> admin
                | _ -> admin + 1 + (k / 20 mod Array.length strangers)
              in
              let action =
                match k / 3 mod 10 with
                | 0 | 1 | 2 -> Gram.Protocol.Status
                | 3 | 4 -> Gram.Protocol.Signal Gram.Protocol.Suspend
                | 5 -> Gram.Protocol.Signal Gram.Protocol.Resume
                | 6 | 7 -> Gram.Protocol.Signal (Gram.Protocol.Set_priority 3)
                | _ -> Gram.Protocol.Cancel
              in
              (requester, job, action))
        in
        (engine, resource, pep, proxies, subjects, jobs, table, Oracle.create initial))
  in
  (* Zipf(s=1) rank over the table via the continuous inverse CDF. *)
  let ln_bound = log (float_of_int (table_size + 1)) in
  let draw () =
    let r = int_of_float (exp (Util.Rng.float rng 1.0 *. ln_bound)) - 1 in
    max 0 (min (table_size - 1) r)
  in
  let credential i =
    Gsi.Credential.of_identity proxies.(i) ~challenge:(Gram.Resource.new_challenge resource)
  in
  let next_owner = ref 0 in
  let resubmit (job : job) =
    job.owner <- !next_owner mod Array.length user_dns;
    incr next_owner;
    let id = Harness.issue 1 in
    let reply =
      Harness.request Harness.Submit ~requests:1 "gram.submit" (fun () ->
          let credential = Harness.Trace.span "gsi.mint" (fun () -> credential job.owner) in
          Gram.Resource.submit_direct resource ~credential ~rsl:(rsl job.tag))
    in
    Oracle.check oracle
      ~label:(fun () -> Printf.sprintf "manage_storm request %d (replacement submit)" id)
      (Oracle.start_query ~requester:subjects.(job.owner) ~rsl:(rsl job.tag))
      (Oracle.of_submit reply);
    match reply with Ok r -> job.contact <- r.Gram.Protocol.job_contact | Error _ -> ()
  in
  for b = 1 to batches do
    Harness.program "sim.advance" (fun () ->
        Sim.Engine.run_until engine (float_of_int b *. 0.05));
    let picks =
      Array.init batch_size (fun _ ->
          let requester, j, action = table.(draw ()) in
          let job = jobs.(j) in
          { job;
            contact = job.contact;
            owner = job.owner;
            requester = (if requester < 0 then job.owner else requester);
            action })
    in
    let first = Harness.issue batch_size in
    let replies =
      Harness.request Harness.Manage ~requests:batch_size "gram.manage_batch" (fun () ->
          let requests =
            Harness.Trace.span "gsi.mint" (fun () ->
                Array.map
                  (fun p ->
                    { Gram.Resource.requester = subjects.(p.requester);
                      credential = Some (credential p.requester);
                      contact = p.contact;
                      action = p.action })
                  picks)
          in
          Gram.Resource.manage_many_direct resource requests)
    in
    Array.iteri
      (fun i reply ->
        let p = picks.(i) in
        Oracle.check oracle
          ~label:(fun () ->
            Printf.sprintf "manage_storm request %d (%s %s by %s)" (first + i)
              (Gram.Protocol.management_action_to_string p.action) p.contact
              (Gsi.Dn.to_string subjects.(p.requester)))
          (Some
             (Oracle.manage_query ~requester:subjects.(p.requester) ~owner:subjects.(p.owner)
                ~jobtag:(Some p.job.tag) p.action))
          (Oracle.of_manage reply);
        match (p.action, reply) with
        | Gram.Protocol.Cancel, Ok _ when String.equal p.job.contact p.contact -> resubmit p.job
        | _ -> ())
      replies;
    if b mod reload_every = 0 then begin
      incr generation;
      let next = sources !generation in
      Harness.reload (fun () -> Rebac.Pep.reload pep next);
      Oracle.set_sources oracle next
    end
  done;
  Harness.Counters.add "rebac.tuples"
    (float_of_int (Rebac.Store.tuple_count (Rebac.Pep.store pep)));
  Harness.Counters.add "rebac.revision" (float_of_int (Rebac.Pep.revision pep));
  Harness.mark_live_heap ();
  Harness.Counters.add "sim.events" (float_of_int (Sim.Engine.executed engine));
  Probe.resource_counters resource

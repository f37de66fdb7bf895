(* One GRAM site: the resource with its authorization stack, wired once.

   The paper configures each resource with one authorization callout that
   joins resource-owner and VO policy (Section 5.2). [create] is the only
   place that decides how that callout is assembled, for the single-site
   [Testbed], every [Fleet] member and every [Soak] member alike:

     cache -> token gate (when tokenized) -> [wrap] -> policy engine

   The policy engine is resolved from the backend with its epoch,
   revision and reload handles; the STS token gate sits outside the
   policy lane so a valid presenter gets the engine's decision and
   reason verbatim; the decision cache invalidates on the engine's epoch,
   folds in the ReBAC revision, caps entries at a carried token's
   [not_after], bypasses CRL-revoked chains, and is flushed by the
   validator on every applied token revocation. *)

type backend =
  | Baseline
  | Flat_file of Grid_policy.Combine.source list
  | Rebac of Grid_rebac.Pep.t
  | Custom of Grid_callout.Callout.t

(* The backend's policy engine: its batch lane and metrics label, plus
   the handles a cache and an operator need. Flat-file backends evaluate
   through the compiled policy index and get policy-derived sandboxes for
   free: the clause the decision rested on configures the enforcement
   envelope (DESIGN.md, Section 7 direction). *)
type policy = {
  lane : Grid_callout.Callout.Batch.t;
  label : string;
  advice : (Grid_callout.Callout.query -> Grid_policy.Types.clause option) option;
  epoch : (unit -> int) option;
  revision : (unit -> int) option;
  reload : (Grid_policy.Combine.source list -> unit) option;
}

let policy_of_backend ~obs = function
  | Baseline -> None
  | Flat_file sources ->
    let pep = Grid_callout.File_pep.Compiled.create ~obs sources in
    Some
      { lane = Grid_callout.File_pep.Compiled.batch pep;
        label = "flat_file";
        (* Read the live sources per query: after a reload the advice
           explains against the policy that actually decided. *)
        advice =
          Some
            (fun q ->
              Grid_callout.File_pep.advice (Grid_callout.File_pep.Compiled.sources pep) q);
        epoch = Some (fun () -> Grid_callout.File_pep.Compiled.epoch pep);
        revision = None;
        reload = Some (Grid_callout.File_pep.Compiled.reload pep) }
  | Rebac pep ->
    (* Ad-hoc tuple writes advance the store revision without an epoch
       bump; the decision cache folds it into its keys. *)
    Some
      { lane = Grid_rebac.Pep.batch pep;
        label = "rebac";
        advice = None;
        epoch = Some (fun () -> Grid_rebac.Pep.epoch pep);
        revision = Some (fun () -> Grid_rebac.Pep.revision pep);
        reload = Some (Grid_rebac.Pep.reload pep) }
  | Custom callout ->
    Some
      { lane = Grid_callout.Callout.Batch.of_callout callout;
        label = "custom";
        advice = None;
        epoch = None;
        revision = None;
        reload = None }

type t = {
  resource : Grid_gram.Resource.t;
  epoch : (unit -> int) option;
  reload : (Grid_policy.Combine.source list -> unit) option;
  cache : Grid_callout.Cache.t option;
  validator : Grid_sts.Validator.t option;
}

let create ?(name = "resource") ?(nodes = 4) ?(cpus_per_node = 8) ?queues
    ?(gridmap = Grid_gsi.Gridmap.empty) ?dynamic_accounts ?static_limits ?dynamic_limits
    ?gatekeeper_pep ?allocation ?network ?request_timeout ?authz_cache ?store ?sts
    ?(wrap = fun lane -> lane) ~backend ~engine ~trust ~obs () =
  let now () = Grid_sim.Engine.now engine in
  let lrm = Grid_lrm.Lrm.create ~obs ?queues ~nodes ~cpus_per_node engine in
  let pool =
    Option.map
      (fun size ->
        Grid_accounts.Pool.create ~size ~lease_lifetime:(Grid_sim.Clock.hours 8.0) ())
      dynamic_accounts
  in
  let mapper = Grid_accounts.Mapper.create ?pool ?static_limits ?dynamic_limits gridmap in
  let policy = policy_of_backend ~obs backend in
  let handle f = Option.bind policy f in
  let epoch = handle (fun p -> p.epoch) and reload = handle (fun p -> p.reload) in
  let validator =
    Option.map (fun s -> Grid_sts.Service.attach_validator s ~obs ~name ()) sts
  in
  let mode =
    match policy with
    | None -> Grid_gram.Mode.Gt2_baseline
    | Some { lane; label; advice; _ } ->
      let lane = wrap lane in
      let lane =
        match sts with
        | None -> lane
        | Some s ->
          Grid_sts.Pep.batch ~obs ?validator ~sts_key:(Grid_sts.Service.public_key s)
            ~audience:"*" ~now lane
      in
      Grid_gram.Mode.extended_batch ?advice ~backend:label lane
  in
  let cache =
    Option.map
      (fun capacity ->
        Grid_callout.Cache.create ~capacity ~ttl:(Grid_sim.Clock.minutes 5.0) ~obs ?epoch
          ?revision:(handle (fun p -> p.revision))
          ?extra_deadline:(Option.map (fun _ -> Grid_sts.Token.credential_deadline) sts)
          ~revoked:(fun cred ->
            List.exists
              (Grid_gsi.Ca.Trust_store.is_revoked trust)
              cred.Grid_gsi.Credential.chain)
          ~now ())
      authz_cache
  in
  (* A cached permit never outlives a revoked jti: every revocation this
     site's validator applies flushes its decision cache. *)
  (match (validator, cache) with
  | Some v, Some c ->
    Grid_sts.Validator.on_revocation v (fun ~jti:_ ~subject:_ ->
        Grid_callout.Cache.invalidate c)
  | _ -> ());
  let resource =
    Grid_gram.Resource.create ~name ?network ?gatekeeper_pep ?allocation ?request_timeout
      ?authz_cache:cache ?store ?policy_epoch:epoch ~obs ~trust ~mapper ~mode ~lrm ~engine
      ()
  in
  { resource; epoch; reload; cache; validator }

(** One GRAM site with its authorization stack: the single builder behind
    [Core.Testbed.make_resource], every [Fleet] member and every [Soak]
    member.

    The job manager's callout is assembled as
    [cache -> token gate -> wrap -> policy engine]: the decision cache
    outermost, the STS token gate ({!Grid_sts.Pep.batch}) outside the
    policy lane, and the backend's native batch lane innermost. *)

(** Which policy evaluation point backs the extended GRAM mode. *)
type backend =
  | Baseline
    (** unmodified GT2: gridmap-only authorization, owner-only management *)
  | Flat_file of Grid_policy.Combine.source list
    (** the prototype's plain-text policies (resource owner + VO), served
        by a compiled index with policy-derived sandboxes *)
  | Rebac of Grid_rebac.Pep.t
    (** the relationship-based (Zanzibar-style) PEP: the same policy
        sources compiled to a tuple graph, decisions at the store's
        head snapshot *)
  | Custom of Grid_callout.Callout.t
    (** any callout (Akenti adapter, CAS PEP, chains, fault injectors) *)

type t = {
  resource : Grid_gram.Resource.t;
  epoch : (unit -> int) option;
      (** the policy epoch; [None] for [Baseline] and [Custom] *)
  reload : (Grid_policy.Combine.source list -> unit) option;
      (** recompile the policy engine; [None] for [Baseline] and [Custom] *)
  cache : Grid_callout.Cache.t option;
  validator : Grid_sts.Validator.t option;
      (** the site's token-revocation view when built with [sts] *)
}

val create :
  ?name:string ->
  ?nodes:int ->
  ?cpus_per_node:int ->
  ?queues:Grid_lrm.Lrm.queue_config list ->
  ?gridmap:Grid_gsi.Gridmap.t ->
  ?dynamic_accounts:int ->
  ?static_limits:(Grid_gsi.Dn.t -> Grid_accounts.Sandbox.limits) ->
  ?dynamic_limits:Grid_accounts.Sandbox.limits ->
  ?gatekeeper_pep:Grid_callout.Callout.t ->
  ?allocation:Grid_accounts.Allocation.enforcement ->
  ?network:Grid_sim.Network.t ->
  ?request_timeout:float ->
  ?authz_cache:int ->
  ?store:Grid_store.Store.t ->
  ?sts:Grid_sts.Service.t ->
  ?wrap:(Grid_callout.Callout.Batch.t -> Grid_callout.Callout.Batch.t) ->
  backend:backend ->
  engine:Grid_sim.Engine.t ->
  trust:Grid_gsi.Ca.Trust_store.store ->
  obs:Grid_obs.Obs.t ->
  unit ->
  t
(** Build the site's LRM ([nodes] x [cpus_per_node], default 4 x 8),
    account mapper ([dynamic_accounts] sizes a pool of 8-hour leases),
    policy engine and resource. [authz_cache] gives a decision cache of
    that capacity (5-minute TTL) that invalidates on the engine's epoch,
    keys on the ReBAC revision, bypasses credentials with a CRL-revoked
    chain in [trust] and, with [sts], caps entries at the carried
    token's [not_after]. [sts] attaches a validator named [name] and
    gates the policy lane with the token-validating PEP; each revocation
    the validator applies flushes the cache. [wrap] composes a hook
    around the backend's lane inside the token gate (the soak's planted
    denial flip); it is ignored for [Baseline]. *)

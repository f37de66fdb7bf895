(** The Job Manager Instance: one per job; parses the request, drives the
    local resource manager, and — in extended mode — enforces policy
    through the authorization callout on startup and on every management
    request. *)

type t

val sim_duration_attribute : string
(** Simulation-only RSL attribute ("simduration", seconds) giving the
    job's compute need; defaults to 60 s when absent. *)

val default_duration : float

val create :
  ?allocation:Grid_accounts.Allocation.enforcement ->
  ?obs:Grid_obs.Obs.t ->
  owner:Grid_gsi.Dn.t ->
  account:string ->
  limits:Grid_accounts.Sandbox.limits ->
  job:Grid_rsl.Job.t ->
  mode:Mode.t ->
  lrm:Grid_lrm.Lrm.t ->
  engine:Grid_sim.Engine.t ->
  audit:Grid_audit.Audit.t ->
  trace:Grid_sim.Trace.t ->
  unit ->
  t
(** [allocation] turns on coarse-grained admission control: a job's
    worst-case cpu-seconds are reserved against the owner's party budget
    at startup and settled against actual usage at termination. [obs]
    spans startup ([jmi.start] with [sandbox.check]/[lrm.submit]
    children and a detached [job.run] span closed at the terminal LRM
    state) and management ([jmi.manage], counted in
    [management_requests_total]); baseline owner-match decisions are
    counted in [authz_decisions_total] under backend ["gt2"]. *)

val restore :
  ?obs:Grid_obs.Obs.t ->
  contact:string ->
  owner:Grid_gsi.Dn.t ->
  account:string ->
  limits:Grid_accounts.Sandbox.limits ->
  job:Grid_rsl.Job.t ->
  mode:Mode.t ->
  lrm:Grid_lrm.Lrm.t ->
  engine:Grid_sim.Engine.t ->
  audit:Grid_audit.Audit.t ->
  trace:Grid_sim.Trace.t ->
  lrm_job:string option ->
  unit ->
  t
(** Rebuild a JMI from its durable creation record (crash recovery): the
    instance keeps its original [contact], re-attaches to the still-running
    LRM job by [lrm_job], and runs no startup authorization or submission
    side effects. *)

val contact : t -> string

(** The local scheduler's job id, once started. *)
val lrm_job_id : t -> string option

val owner : t -> Grid_gsi.Dn.t
val account : t -> string
val limits : t -> Grid_accounts.Sandbox.limits
val job : t -> Grid_rsl.Job.t
val jobtag : t -> string option

val callout_invocations : t -> int
(** How many times the authorization callout ran for this JMI. *)

val start :
  t ->
  credential:Grid_gsi.Credential.t option ->
  (Protocol.submit_reply, Protocol.submit_error) result
(** Authorize (extended mode), sandbox-check, and submit to the LRM. *)

val status : t -> (Protocol.job_status, Protocol.management_error) result

val authorize_many :
  Mode.t ->
  (t * Grid_gsi.Dn.t * Grid_gsi.Credential.t option * Protocol.management_action) array ->
  Grid_callout.Callout.decision array
(** [authorize_many mode items] decides whether each requester may take
    each action on each JMI; decisions come back in request order. Every
    JMI in [items] must have been built with [mode] (a resource wires one
    mode into all of its JMIs). In extended mode the whole batch is one
    callout [evaluate_many] call, so a single request is a batch of one;
    in baseline mode each item gets the owner-only check. *)

val manage_decided :
  t ->
  requester:Grid_gsi.Dn.t ->
  Protocol.management_action ->
  Grid_callout.Callout.decision ->
  (Protocol.management_reply, Protocol.management_error) result
(** Audit one decision from {!authorize_many} and, when permitted,
    perform the action against the LRM, under one [jmi.manage] span
    (counted in [management_requests_total]). That span follows the
    batch's [authz.callout] span under the same parent. *)

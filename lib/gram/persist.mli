(** Durable representation of the Job Manager's authorization-relevant
    state (paper Section 4.2: a restarted job manager must still be able
    to authorize management of its jobs).

    Every lifecycle event that a management decision can depend on is
    journalled through {!Grid_store.Store}: job creation (with the
    jobowner DN, jobtag, RSL fingerprint, sandbox limits and the policy
    epoch in force), terminal state transitions, and the outcome of each
    cancel/signal. Snapshot records copy the [Job_created] frame, so
    one codec covers both files. *)

type job_entry = {
  contact : string;
  owner : Grid_gsi.Dn.t;
  account : string;
  jobtag : string option;
  rsl : string;  (** canonical RSL text; reparsed on recovery *)
  rsl_fingerprint : string;  (** SHA-256 (hex) of the canonical RSL *)
  policy_epoch : int option;  (** compiled-policy epoch at admission *)
  limits : Grid_accounts.Sandbox.limits;
  lrm_job : string option;
  created_at : Grid_sim.Clock.time;
}

type event =
  | Job_created of job_entry
  | Job_state of { contact : string; state : string; at : Grid_sim.Clock.time }
  | Management of {
      contact : string;
      requester : Grid_gsi.Dn.t;
      action : string;
      outcome : string;  (** ["ok"] / ["denied"] / ["error"] *)
      at : Grid_sim.Clock.time;
    }

val fingerprint : Grid_rsl.Job.t -> string
(** SHA-256 hex of the job's canonical RSL rendering — binds the journal
    entry to the exact request that was authorized. *)

val encode : event -> string
val decode : string -> (event, string) result

val pp_event : event Fmt.t
(** One-line human rendering for [gridctl journal show]. *)

type rebuild = {
  entries : (job_entry * Grid_store.Journal.frame) list;
      (** creation order, deduplicated by contact; each entry with the
          verified frame it was decoded from *)
  events : int;  (** records decoded (snapshot + journal) *)
  decode_failures : int;
}

val rebuild :
  snapshot:Grid_store.Journal.frame list -> journal:Grid_store.Journal.frame list -> rebuild
(** Fold snapshot entries then journal events into the job table.
    Replay is idempotent: a [Job_created] for an already-known contact
    replaces the entry in place (covering the snapshot-rename-before-
    journal-truncate crash window, where pre-snapshot events are seen
    twice). Undecodable records are counted, not fatal. *)

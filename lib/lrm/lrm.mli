(** Local resource manager: a PBS/LSF stand-in over the simulation engine.

    Nodes with CPUs, priority queues, and the management operations the
    GRAM Job Manager needs (submit, cancel, suspend, resume, priority
    signal, query). Walltime budgets are consumed while running and
    enforced by killing the job. *)

type node

type queue_config = {
  queue_name : string;
  priority : int;
  max_walltime : float option;
}

type state =
  | Pending
  | Running
  | Suspended
  | Completed
  | Cancelled
  | Killed of string

val state_to_string : state -> string

type spec = {
  account : string;
  cpus : int;
  duration : float;
  walltime_limit : float option;
  queue : string option;
}

type job = private {
  id : string;
  spec : spec;
  queue : queue_config;
  submitted_at : Grid_sim.Clock.time;
  mutable priority : int;
  mutable state : state;
  mutable remaining : float;
  mutable walltime_used : float;
  mutable started_at : Grid_sim.Clock.time;
  mutable allocation : (node * int) list;
  mutable generation : int;
  mutable arrival : int;
}

type event =
  | State_changed of { job : job; from_state : state }

type t

type error =
  | Unknown_queue of string
  | Too_many_cpus of { requested : int; capacity : int }
  | Unknown_job of string
  | Invalid_transition of { job : string; state : state; operation : string }

val error_to_string : error -> string
val pp_error : error Fmt.t

val default_queues : queue_config list
(** "batch" (priority 0, no cap) and "priority" (priority 10, 2 h cap). *)

val create :
  ?obs:Grid_obs.Obs.t ->
  ?queues:queue_config list ->
  nodes:int ->
  cpus_per_node:int ->
  Grid_sim.Engine.t ->
  t
(** The first queue is the default. Raises [Invalid_argument] on an empty
    cluster or queue list. [obs] feeds submission/terminal-state counters
    ([lrm_submissions_total], [lrm_jobs_total]), queue-wait and walltime
    histograms, and CPU occupancy gauges. *)

val capacity : t -> int
val queue_names : t -> string list
val free_cpus : t -> int
val cpus_in_use : t -> int

val running_count : t -> int
val pending_count : t -> int
(** Jobs now running / queued to start; O(1), unlike the lengths of
    {!running_jobs} and {!pending_jobs}. *)

val on_event : t -> (event -> unit) -> unit
(** Observe every job state change (the resource-wide monitoring hook).
    Listeners run newest first. *)

val on_job : t -> string -> (event -> unit) -> unit
(** [on_job t id f] observes the state changes of job [id] only (the
    JMI's per-job hook). A job's listeners run newest first and before
    every {!on_event} listener, and are dropped once the job reaches a
    terminal state, right after seeing that transition. A listener for
    a job that is unknown or already terminal is never called and not
    kept. *)

val job_listeners : t -> int
(** Per-job listeners currently retained; 0 once every job has
    finished. *)

val submit : t -> spec -> (string, error) result
(** Queue a job; returns its id. Scheduling happens immediately and on
    every capacity change. *)

val cancel : t -> string -> (string, error) result
val suspend : t -> string -> (string, error) result
val resume : t -> string -> (string, error) result
val set_priority : t -> string -> int -> (string, error) result

type status = {
  job_id : string;
  job_state : state;
  job_account : string;
  job_cpus : int;
  job_remaining : float;
  job_walltime_used : float;
  job_queue : string;
  job_priority : int;
}

val query : t -> string -> (status, error) result

val jobs : t -> job list
val running_jobs : t -> job list
val pending_jobs : t -> job list

val invariant_holds : t -> bool
(** No node over-allocated; allocation bookkeeping consistent, including
    the kept free-CPU total and state counts; only pending jobs are
    queued. *)

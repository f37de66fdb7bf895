(** Policy evaluation: the decision procedure behind every PEP.

    Default-deny. Requirement statements act as filters (violating one
    denies the request outright); grant statements permit a request when
    one of their clauses is fully satisfied by the request's attribute
    view. See the implementation header for the exact constraint
    semantics. *)

type reason =
  | No_applicable_grant
  | No_satisfied_clause of { considered : int }
  | Requirement_violated of {
      subject_pattern : Grid_gsi.Dn.t;
      constr : Types.constr;
    }

type decision =
  | Permit
  | Deny of reason

val reason_to_string : reason -> string
val decision_to_string : decision -> string
val pp_decision : decision Fmt.t
val is_permit : decision -> bool

(** The request's attribute view: attribute name to carried values.
    Repeated attributes (duplicate [=] bindings) accumulate all their
    values in encounter order; [count] defaults to ["1"] on start
    requests that omit it. *)
module View : sig
  type t = (string * string list) list

  val find : t -> string -> string list option
  val of_request : Types.request -> t
end

val constr_satisfied : subject:Grid_gsi.Dn.t -> View.t -> Types.constr -> bool
val clause_satisfied : subject:Grid_gsi.Dn.t -> View.t -> Types.clause -> bool

val evaluate : Types.t -> Types.request -> decision

val validate : Types.t -> (unit, string) result
(** Static checks: NULL not mixed with other values; numeric comparisons
    carry exactly one numeric bound. *)

type explanation = {
  decision : decision;
  requirements_checked : int;
  grants_considered : int;
  matched_clause : Types.clause option;
}

val explain : Types.t -> Types.request -> explanation

val decision_label : decision -> string
(** ["permit"] / ["deny"]: the metric label vocabulary. *)

val observed_with :
  ?obs:Grid_obs.Obs.t ->
  ?source:string ->
  eval_many:(Types.request array -> decision array) ->
  Types.request array ->
  decision array
(** Run any batch evaluator under one ["policy.eval"] span, with
    [policy_eval_total{source,decision}] incremented in bulk so the
    counter totals equal one increment per request — the hook the
    compiled evaluator ({!Compile}) and the ReBAC decision procedure
    share with the reference path. *)

val observed :
  ?obs:Grid_obs.Obs.t -> ?source:string -> Types.t -> Types.request -> decision
(** [evaluate] wrapped in a ["policy.eval"] span and a
    [policy_eval_total{source,decision}] counter increment. With the
    default (disabled) observer it is exactly [evaluate]. *)

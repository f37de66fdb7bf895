(* The correctness gate: every reply is checked, outside the timed
   region, against the uncompiled reference evaluator
   ([File_pep.reference]) over the policy sources live at the answering
   PEP's epoch — decision and reason.

   A reply is first classified by where the request stopped. A permit, or
   a refusal that can only happen after the callout permitted (sandbox,
   LRM, management on a finished job), must meet a reference permit. An
   authorization denial must meet a reference denial with the same
   reason. Refusals before the callout (authentication, gridmap, unknown
   job, a refused token exchange) carry no decision to check. Timeouts,
   unplaceable and unreachable arrivals and authorization-system failures
   are failures, not answers. *)

open Core

type reply =
  | Permit
  | Deny of string
  | Before_callout of string
  | Failure of string

let of_submit : (_, Gram.Protocol.submit_error) result -> reply = function
  | Ok _ -> Permit
  | Error (Gram.Protocol.Authorization_failed (Gram.Protocol.Authz_denied r)) -> Deny r
  | Error
      (Gram.Protocol.Authorization_failed
        (Gram.Protocol.Authz_system_failure r | Gram.Protocol.Authz_misconfigured r)) ->
    Failure r
  | Error (Gram.Protocol.Sandbox_violation _ | Gram.Protocol.Resource_unavailable _
          | Gram.Protocol.Allocation_refused _) ->
    Permit
  | Error
      ((Gram.Protocol.Authentication_failed _ | Gram.Protocol.Gatekeeper_refused _
       | Gram.Protocol.Account_mapping_failed _ | Gram.Protocol.Bad_rsl _) as e) ->
    Before_callout (Gram.Protocol.submit_error_to_string e)
  | Error (Gram.Protocol.Request_timeout r) -> Failure r

let of_manage : (_, Gram.Protocol.management_error) result -> reply = function
  | Ok _ | Error (Gram.Protocol.Invalid_request _) -> Permit
  | Error (Gram.Protocol.Not_authorized (Gram.Protocol.Authz_denied r)) -> Deny r
  | Error
      (Gram.Protocol.Not_authorized
        (Gram.Protocol.Authz_system_failure r | Gram.Protocol.Authz_misconfigured r)) ->
    Failure r
  | Error ((Gram.Protocol.Unknown_job _ | Gram.Protocol.Management_authentication_failed _) as e)
    ->
    Before_callout (Gram.Protocol.management_error_to_string e)
  | Error (Gram.Protocol.Request_timed_out r) -> Failure r

let reply_to_string = function
  | Permit -> "permit"
  | Deny r -> "deny: " ^ r
  | Before_callout r -> "refused before the callout: " ^ r
  | Failure r -> "failure: " ^ r

(* One reference evaluator per live policy generation, memoized on the
   query's policy-relevant fields (the answer at a fixed generation
   never changes). *)
type t = {
  mutable reference : Callout.Callout.t;
  memo : (string, Callout.Callout.decision) Hashtbl.t;
}

let create sources =
  { reference = Callout.File_pep.reference sources; memo = Hashtbl.create 1024 }

let set_sources t sources =
  t.reference <- Callout.File_pep.reference sources;
  Hashtbl.reset t.memo

let expected t (q : Callout.Callout.query) =
  let key =
    String.concat "\x00"
      [ Gsi.Dn.to_string q.requester;
        Policy.Types.Action.to_string q.action;
        Callout.Cache.rsl_fingerprint q.rsl;
        (match q.job_owner with Some d -> Gsi.Dn.to_string d | None -> "");
        Option.value q.jobtag ~default:"\x01" ]
  in
  match Hashtbl.find_opt t.memo key with
  | Some d -> d
  | None ->
    let d = t.reference q in
    if Hashtbl.length t.memo > 50_000 then Hashtbl.reset t.memo;
    Hashtbl.add t.memo key d;
    d

let start_query ~requester ~rsl =
  match Rsl.Job.of_string rsl with
  | Error _ -> None
  | Ok job ->
    Some
      (Callout.Callout.Query.make ~requester (Callout.Callout.Query.Start (Rsl.Job.clause job)))

let manage_query ~requester ~owner ~jobtag action =
  Callout.Callout.Query.make ~requester
    (Callout.Callout.Query.Management
       { action = Gram.Protocol.to_policy_action action; job_owner = owner; jobtag })

(* Check one reply and count it. [label] names the request, and is built
   only on a mismatch. [query] is [None] when the request never became a
   policy question (unparseable RSL). [revoked] is the requester's
   revocation state: [`Exempt] inside the propagation window (any answer
   goes), [`Enforced] after it (must not be permitted). *)
let check ?(revoked = `No) t ~label (query : Callout.Callout.query option) reply =
  let fail why =
    Harness.mismatch (Printf.sprintf "%s: got %s; %s" (label ()) (reply_to_string reply) why)
  in
  (match (reply, revoked, query) with
  | Failure _, _, _ -> ()
  | _, `Exempt, _ -> ()
  | Permit, `Enforced, _ -> fail "a revoked subject was permitted after the window"
  | _, `Enforced, _ -> ()
  | Before_callout _, `No, _ | _, `No, None -> ()
  | Permit, `No, Some q -> begin
    match expected t q with
    | Ok () -> ()
    | Error e -> fail ("reference: " ^ Callout.Callout.error_to_string e)
  end
  | Deny r, `No, Some q -> begin
    match expected t q with
    | Error (Callout.Callout.Denied r') when String.equal r r' -> ()
    | d ->
      fail
        ("reference: "
        ^ match d with Ok () -> "permit" | Error e -> Callout.Callout.error_to_string e)
  end);
  Harness.count (match reply with Failure _ -> Harness.Failed | _ -> Harness.Answered)

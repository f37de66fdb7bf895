(* Policy evaluation (the decision procedure behind every PEP).

   Semantics, following Section 5.1:

     - Default deny: a request is permitted only if some applicable grant
       statement has a fully satisfied clause.
     - Requirements: for every applicable requirement statement, whenever
       the clause's action-guards match the request, all its remaining
       constraints must hold; a violated requirement denies the request
       even if a grant would match.

   A request is judged through its *attribute view*: a finite map from
   attribute name to the list of string values the request carries.
   The view contains [action], [jobowner], [jobtag], and — for start
   requests — every [=] binding of the submitted RSL clause. [count]
   defaults to "1" on start requests, matching the job manager's own
   default, so "(count < 4)" correctly admits a request that omits count. *)

type reason =
  | No_applicable_grant
    (* no grant statement's subject pattern matched the requester *)
  | No_satisfied_clause of { considered : int }
    (* grants applied, but no clause was fully satisfied *)
  | Requirement_violated of {
      subject_pattern : Grid_gsi.Dn.t;
      constr : Types.constr;
    }

type decision =
  | Permit
  | Deny of reason

let reason_to_string = function
  | No_applicable_grant -> "no policy statement applies to this subject"
  | No_satisfied_clause { considered } ->
    Printf.sprintf "no clause satisfied (%d applicable grant clause%s considered)" considered
      (if considered = 1 then "" else "s")
  | Requirement_violated { subject_pattern; constr } ->
    Printf.sprintf "requirement for %s violated: %s"
      (Grid_gsi.Dn.to_string subject_pattern)
      (Types.constr_to_string constr)

let decision_to_string = function
  | Permit -> "PERMIT"
  | Deny r -> "DENY: " ^ reason_to_string r

let pp_decision ppf d = Fmt.string ppf (decision_to_string d)

let is_permit = function Permit -> true | Deny _ -> false

(* ------------------------------------------------------------------ *)
(* Attribute view                                                      *)

module View = struct
  type t = (string * string list) list

  let find (view : t) attribute = List.assoc_opt attribute view

  (* Merge-append: a repeated attribute keeps its first position and
     accumulates every value in encounter order. Duplicate [=] bindings
     like (a=1)(a=2) therefore present a=["1";"2"] to the policy instead
     of silently shadowing the later binding — the documented semantics
     the compiled evaluator relies on. *)
  let add (view : t) (name, vals) =
    let rec go = function
      | [] -> [ (name, vals) ]
      | (n, existing) :: rest when String.equal n name -> (n, existing @ vals) :: rest
      | entry :: rest -> entry :: go rest
    in
    go view

  (* Entries are [add]ed one at a time in the same encounter order the
     old [base @ owner @ tag @ job_bindings] concatenation produced, so
     the merge-append semantics (and the resulting view, entry for
     entry) are unchanged — just without materializing four intermediate
     lists per request. *)
  let of_request (r : Types.request) : t =
    let view = add [] ("action", [ Types.Action.to_string r.action ]) in
    let view =
      match r.jobowner with
      | Some dn -> add view ("jobowner", [ Grid_gsi.Dn.to_string dn ])
      | None -> view
    in
    let view = match r.jobtag with Some t -> add view ("jobtag", [ t ]) | None -> view in
    let view =
      match r.job with
      | None -> view
      | Some clause ->
        List.fold_left
          (fun view (rel : Grid_rsl.Ast.relation) ->
            if rel.op <> Grid_rsl.Ast.Eq then view
            else if r.jobtag <> None && String.equal rel.attribute "jobtag" then
              (* the explicit jobtag was parsed out of this very clause;
                 it wins over (rather than merging with) the binding *)
              view
            else
              add view
                ( rel.attribute,
                  List.map
                    (function
                      | Grid_rsl.Ast.Literal s -> s
                      | Grid_rsl.Ast.Variable v -> Printf.sprintf "$(%s)" v
                      | Grid_rsl.Ast.Binding (n, v) -> Printf.sprintf "(%s %s)" n v)
                    rel.values ))
          view clause
    in
    (* Materialize the job manager's count default for start requests. *)
    if r.action = Types.Action.Start && List.assoc_opt "count" view = None then
      view @ [ ("count", [ "1" ]) ]
    else view
end

(* ------------------------------------------------------------------ *)
(* Constraint satisfaction                                             *)

let resolve_cvalue ~subject = function
  | Types.Str s -> Some s
  | Types.Self -> Some (Grid_gsi.Dn.to_string subject)
  | Types.Null -> None

(* Satisfaction of one constraint against the view. *)
let constr_satisfied ~subject (view : View.t) (c : Types.constr) : bool =
  let present = View.find view c.attribute in
  let is_null_constraint = List.exists (fun v -> v = Types.Null) c.values in
  if is_null_constraint then
    (* NULL must stand alone; a constraint mixing NULL with values is
       unsatisfiable (validation flags it). *)
    List.length c.values = 1
    &&
    match c.op with
    | Grid_rsl.Ast.Eq -> present = None || present = Some []
    | Grid_rsl.Ast.Neq -> ( match present with Some (_ :: _) -> true | Some [] | None -> false)
    | Grid_rsl.Ast.Lt | Grid_rsl.Ast.Gt | Grid_rsl.Ast.Le | Grid_rsl.Ast.Ge -> false
  else
    let allowed = List.filter_map (resolve_cvalue ~subject) c.values in
    match c.op with
    | Grid_rsl.Ast.Eq -> begin
      (* Present, and every request value drawn from the permitted set. *)
      match present with
      | Some (_ :: _ as actual) ->
        List.for_all (fun v -> List.exists (String.equal v) allowed) actual
      | Some [] | None -> false
    end
    | Grid_rsl.Ast.Neq -> begin
      (* Absent, or carrying none of the forbidden values. *)
      match present with
      | None | Some [] -> true
      | Some actual -> not (List.exists (fun v -> List.exists (String.equal v) allowed) actual)
    end
    | (Grid_rsl.Ast.Lt | Grid_rsl.Ast.Gt | Grid_rsl.Ast.Le | Grid_rsl.Ast.Ge) as op -> begin
      match (present, allowed) with
      | Some (_ :: _ as actual), [ bound ] -> begin
        match float_of_string_opt bound with
        | None -> false
        | Some b ->
          List.for_all
            (fun v ->
              match float_of_string_opt v with
              | None -> false
              | Some x -> (
                match op with
                | Grid_rsl.Ast.Lt -> x < b
                | Grid_rsl.Ast.Gt -> x > b
                | Grid_rsl.Ast.Le -> x <= b
                | Grid_rsl.Ast.Ge -> x >= b
                | Grid_rsl.Ast.Eq | Grid_rsl.Ast.Neq -> assert false))
            actual
      end
      | _, _ -> false
    end

let clause_satisfied ~subject view (clause : Types.clause) =
  List.for_all (constr_satisfied ~subject view) clause

(* ------------------------------------------------------------------ *)
(* Requirements                                                        *)

let is_action_guard (c : Types.constr) = c.attribute = "action"

(* A requirement clause applies when its action-guards hold; then all other
   constraints must hold. Returns the first violated constraint if any. *)
let requirement_violation ~subject view (clause : Types.clause) =
  let guards, obligations = List.partition is_action_guard clause in
  if not (List.for_all (constr_satisfied ~subject view) guards) then None
  else List.find_opt (fun c -> not (constr_satisfied ~subject view c)) obligations

(* ------------------------------------------------------------------ *)
(* Top-level decision                                                  *)

let evaluate (policy : Types.t) (request : Types.request) : decision =
  let subject = request.subject in
  let view = View.of_request request in
  let applicable = List.filter (Types.statement_applies ~subject) policy in
  let violated =
    List.find_map
      (fun (st : Types.statement) ->
        if st.kind <> Types.Requirement then None
        else
          List.find_map
            (fun clause ->
              match requirement_violation ~subject view clause with
              | Some constr ->
                Some (Requirement_violated { subject_pattern = st.subject_pattern; constr })
              | None -> None)
            st.clauses)
      applicable
  in
  match violated with
  | Some reason -> Deny reason
  | None ->
    let grants = List.filter (fun (st : Types.statement) -> st.kind = Types.Grant) applicable in
    if grants = [] then Deny No_applicable_grant
    else
      let clauses = List.concat_map (fun (st : Types.statement) -> st.clauses) grants in
      if List.exists (clause_satisfied ~subject view) clauses then Permit
      else Deny (No_satisfied_clause { considered = List.length clauses })

(* ------------------------------------------------------------------ *)
(* Static validation                                                   *)

let validate_constr (c : Types.constr) =
  let null_count = List.length (List.filter (fun v -> v = Types.Null) c.values) in
  if null_count > 0 && List.length c.values > 1 then
    Error (Printf.sprintf "constraint %s mixes NULL with other values" (Types.constr_to_string c))
  else
    match c.op with
    | Grid_rsl.Ast.Lt | Grid_rsl.Ast.Gt | Grid_rsl.Ast.Le | Grid_rsl.Ast.Ge -> begin
      match c.values with
      | [ Types.Str s ] -> begin
        match float_of_string_opt s with
        | Some _ -> Ok ()
        | None ->
          Error
            (Printf.sprintf "constraint %s compares against a non-number"
               (Types.constr_to_string c))
      end
      | _ ->
        Error
          (Printf.sprintf "constraint %s: numeric comparison needs exactly one numeric bound"
             (Types.constr_to_string c))
    end
    | Grid_rsl.Ast.Eq | Grid_rsl.Ast.Neq -> Ok ()

let validate (policy : Types.t) =
  let rec check = function
    | [] -> Ok ()
    | (st : Types.statement) :: rest ->
      let rec check_clauses = function
        | [] -> check rest
        | clause :: more -> begin
          let rec check_constrs = function
            | [] -> check_clauses more
            | c :: cs -> begin
              match validate_constr c with
              | Error _ as e -> e
              | Ok () -> check_constrs cs
            end
          in
          check_constrs clause
        end
      in
      check_clauses st.clauses
  in
  check policy

(* ------------------------------------------------------------------ *)
(* Explanation (for the CLI and the Figure 3 reproduction)             *)

type explanation = {
  decision : decision;
  requirements_checked : int;
  grants_considered : int;
  matched_clause : Types.clause option;
}

let explain (policy : Types.t) (request : Types.request) : explanation =
  let subject = request.subject in
  let view = View.of_request request in
  let applicable = List.filter (Types.statement_applies ~subject) policy in
  let requirements =
    List.filter (fun (st : Types.statement) -> st.kind = Types.Requirement) applicable
  in
  let grants = List.filter (fun (st : Types.statement) -> st.kind = Types.Grant) applicable in
  let matched_clause =
    List.concat_map (fun (st : Types.statement) -> st.clauses) grants
    |> List.find_opt (clause_satisfied ~subject view)
  in
  { decision = evaluate policy request;
    requirements_checked = List.length requirements;
    grants_considered = List.length grants;
    matched_clause }

(* ------------------------------------------------------------------ *)
(* Instrumentation hook: the PEPs evaluate through this wrapper so every
   decision lands in the metrics registry and on the span trail. *)

let decision_label = function Permit -> "permit" | Deny _ -> "deny"

(* Generalized over a batch evaluator so the compiled path
   (Compile.eval_many) and the ReBAC path land in the same span and
   counter vocabulary as the reference. One span covers the whole batch,
   and [policy_eval_total] is incremented in bulk per decision label, so
   the counter totals equal one increment per request. *)
let observed_with ?(obs = Grid_obs.Obs.noop) ?(source = "policy") ~eval_many requests =
  if not (Grid_obs.Obs.enabled obs) then eval_many requests
  else
    Grid_obs.Obs.with_span obs ~attrs:[ ("source", source) ] "policy.eval" (fun _ ->
        let decisions = eval_many requests in
        let permits =
          Array.fold_left (fun acc d -> if is_permit d then acc + 1 else acc) 0 decisions
        in
        let denies = Array.length decisions - permits in
        if permits > 0 then
          Grid_obs.Obs.incr obs ~by:(float_of_int permits)
            ~labels:[ ("source", source); ("decision", "permit") ]
            "policy_eval_total";
        if denies > 0 then
          Grid_obs.Obs.incr obs ~by:(float_of_int denies)
            ~labels:[ ("source", source); ("decision", "deny") ]
            "policy_eval_total";
        decisions)

(* The reference evaluator under the same instrumentation, as a batch
   of one. *)
let observed ?obs ?source policy request =
  (observed_with ?obs ?source ~eval_many:(Array.map (evaluate policy)) [| request |]).(0)

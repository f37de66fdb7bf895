(* One-shot policy compilation: [Types.t] lowered to an indexed form that
   answers the same decisions as [Eval.evaluate], bit for bit, but without
   re-scanning every statement and re-parsing every constant per request.

   Three things are precomputed:

     - Subject index. Statements are bucketed by their (exact) subject
       pattern, keyed on a component-wise encoding of the pattern DN.
       Because patterns match by DN *prefix*, lookup enumerates the
       request subject's prefixes (there are [length subject] + 1 of
       them, and never more than the longest pattern in the policy) and
       merges the matching buckets back into statement order. A bucket
       keyed on a short prefix is exactly the "wildcard/pattern list" —
       group statements — while full-DN buckets hold the per-user
       statements; both are one hash probe each.

     - Constraint folding. Everything about a constraint that does not
       depend on the request is resolved at compile time: NULL shape
       (NULL mixed with other values is constant-false), numeric bounds
       parsed once, constant string sets separated from [self], and
       numeric comparisons with a non-numeric or non-singleton bound
       folded to constant-false.

     - Attribute interning. Attribute names become dense integer ids and
       the request's attribute view becomes an array indexed by them, so
       constraint checks cost an array load instead of an assoc-list
       walk. The view is built with the same merge-append rule as
       [Eval.View.of_request].

   Every compilation is stamped with a monotonically increasing *policy
   epoch* drawn from a process-global counter. Reloading a policy (see
   {!Store}) compiles afresh and therefore bumps the epoch; decision
   caches key on it to invalidate without tracking policy contents. *)

type check =
  | Const of bool
  | Null_absent (* attribute = NULL *)
  | Null_present (* attribute != NULL *)
  | Member of { allowed : string list; self : bool }
  | Not_member of { forbidden : string list; self : bool }
  | Compare of { op : Grid_rsl.Ast.op; bound : float }
  | Compare_self of { op : Grid_rsl.Ast.op }

type cconstr = {
  attr : int;
  check : check;
  source : Types.constr; (* for Requirement_violated reporting *)
}

type creq_clause = {
  guards : cconstr list; (* constraints on "action" *)
  obligations : cconstr list;
}

type cbody =
  | Cgrant of {
      clauses : cconstr list list;
      clause_count : int;
    }
  | Crequirement of creq_clause list

type cstatement = {
  index : int; (* original statement order *)
  pattern : Grid_gsi.Dn.t;
  body : cbody;
}

type t = {
  policy : Types.t;
  epoch : int;
  n_attrs : int;
  action_id : int;
  jobowner_id : int;
  jobtag_id : int;
  count_id : int;
  ids : (string, int) Hashtbl.t;
  buckets : (string, cstatement list) Hashtbl.t;
  max_pattern : int; (* longest subject pattern, bounds prefix probing *)
}

let policy t = t.policy
let epoch t = t.epoch

(* --- Policy epoch ------------------------------------------------------ *)

let epoch_counter = ref 0

let fresh_epoch () =
  incr epoch_counter;
  !epoch_counter

(* --- Compilation ------------------------------------------------------- *)

(* Length-prefixed component encoding: [Dn.t] is a concrete rdn list, so
   hand-built DNs can hold any byte — '/', '=', former separator bytes —
   and a bucket-key collision silently widens (or narrows) a statement's
   audience. [<len>.<bytes>] per attr and value is injective whatever
   the bytes are; test_policy_compile's edge-case suite pinned the
   separator-joined encoding aliasing [a=b,c=d] with [a=b\x00c\x01d]
   before this. *)
let component_key (rdn : Grid_gsi.Dn.rdn) =
  Printf.sprintf "%d.%s%d.%s" (String.length rdn.attr) rdn.attr
    (String.length rdn.value) rdn.value
let extend_key key comp = key ^ comp
let pattern_key (dn : Grid_gsi.Dn.t) =
  List.fold_left (fun key rdn -> extend_key key (component_key rdn)) "" dn

let compile_check (c : Types.constr) : check =
  let is_null = List.exists (fun v -> v = Types.Null) c.values in
  if is_null then
    if List.length c.values <> 1 then Const false (* NULL must stand alone *)
    else
      match c.op with
      | Grid_rsl.Ast.Eq -> Null_absent
      | Grid_rsl.Ast.Neq -> Null_present
      | Grid_rsl.Ast.Lt | Grid_rsl.Ast.Gt | Grid_rsl.Ast.Le | Grid_rsl.Ast.Ge ->
        Const false
  else
    let self = List.exists (fun v -> v = Types.Self) c.values in
    let consts =
      List.filter_map (function Types.Str s -> Some s | _ -> None) c.values
    in
    match c.op with
    | Grid_rsl.Ast.Eq -> Member { allowed = consts; self }
    | Grid_rsl.Ast.Neq -> Not_member { forbidden = consts; self }
    | (Grid_rsl.Ast.Lt | Grid_rsl.Ast.Gt | Grid_rsl.Ast.Le | Grid_rsl.Ast.Ge) as op
      -> begin
      (* The reference demands exactly one resolvable numeric bound. *)
      match c.values with
      | [ Types.Str s ] -> begin
        match float_of_string_opt s with
        | Some bound -> Compare { op; bound }
        | None -> Const false
      end
      | [ Types.Self ] -> Compare_self { op }
      | _ -> Const false
    end

let compile (policy : Types.t) : t =
  let ids = Hashtbl.create 16 in
  let intern name =
    match Hashtbl.find_opt ids name with
    | Some id -> id
    | None ->
      let id = Hashtbl.length ids in
      Hashtbl.add ids name id;
      id
  in
  (* The view's built-in attributes are always interned so the builder
     can address their slots unconditionally. *)
  let action_id = intern "action" in
  let jobowner_id = intern "jobowner" in
  let jobtag_id = intern "jobtag" in
  let count_id = intern "count" in
  let compile_constr (c : Types.constr) =
    { attr = intern c.attribute; check = compile_check c; source = c }
  in
  let compile_statement index (st : Types.statement) =
    let body =
      match st.kind with
      | Types.Grant ->
        Cgrant
          { clauses = List.map (List.map compile_constr) st.clauses;
            clause_count = List.length st.clauses }
      | Types.Requirement ->
        Crequirement
          (List.map
             (fun clause ->
               let guards, obligations =
                 List.partition (fun (c : Types.constr) -> c.attribute = "action") clause
               in
               { guards = List.map compile_constr guards;
                 obligations = List.map compile_constr obligations })
             st.clauses)
    in
    { index; pattern = st.subject_pattern; body }
  in
  let buckets = Hashtbl.create 16 in
  List.iteri
    (fun index st ->
      let cst = compile_statement index st in
      let key = pattern_key st.subject_pattern in
      let existing = Option.value ~default:[] (Hashtbl.find_opt buckets key) in
      Hashtbl.replace buckets key (cst :: existing))
    policy;
  (* Buckets were accumulated in reverse; restore statement order. *)
  Hashtbl.iter (fun key sts -> Hashtbl.replace buckets key (List.rev sts))
    (Hashtbl.copy buckets);
  let max_pattern =
    List.fold_left
      (fun acc (st : Types.statement) -> max acc (Grid_gsi.Dn.length st.subject_pattern))
      0 policy
  in
  { policy;
    epoch = fresh_epoch ();
    n_attrs = Hashtbl.length ids;
    action_id;
    jobowner_id;
    jobtag_id;
    count_id;
    ids;
    buckets;
    max_pattern }

(* --- Evaluation -------------------------------------------------------- *)

(* The request's attribute view as a dense array over interned ids,
   following the same construction as [Eval.View.of_request]: action,
   jobowner, explicit jobtag, then the RSL clause's [=] bindings in
   order, with repeated attributes accumulating their values and [count]
   defaulting to "1" on start requests. Attributes the policy never
   names are not interned and simply dropped — no constraint can
   observe them. *)
let build_view_into t (view : string list option array) (r : Types.request) : unit =
  let append id vals =
    match view.(id) with
    | None -> view.(id) <- Some vals
    | Some existing -> view.(id) <- Some (existing @ vals)
  in
  append t.action_id [ Types.Action.to_string r.action ];
  (match r.jobowner with
  | Some dn -> append t.jobowner_id [ Grid_gsi.Dn.to_string dn ]
  | None -> ());
  (match r.jobtag with Some tag -> append t.jobtag_id [ tag ] | None -> ());
  (match r.job with
  | None -> ()
  | Some clause ->
    List.iter
      (fun (rel : Grid_rsl.Ast.relation) ->
        if
          rel.op = Grid_rsl.Ast.Eq
          && not (r.jobtag <> None && String.equal rel.attribute "jobtag")
        then
          match Hashtbl.find_opt t.ids rel.attribute with
          | None -> ()
          | Some id ->
            append id
              (List.map
                 (function
                   | Grid_rsl.Ast.Literal s -> s
                   | Grid_rsl.Ast.Variable v -> Printf.sprintf "$(%s)" v
                   | Grid_rsl.Ast.Binding (n, v) -> Printf.sprintf "(%s %s)" n v)
                 rel.values))
      clause);
  if r.action = Types.Action.Start && view.(t.count_id) = None then
    view.(t.count_id) <- Some [ "1" ]

let build_view t (r : Types.request) : string list option array =
  let view = Array.make t.n_attrs None in
  build_view_into t view r;
  view

let numeric_holds op bound present =
  match present with
  | Some (_ :: _ as actual) ->
    List.for_all
      (fun v ->
        match float_of_string_opt v with
        | None -> false
        | Some x -> (
          match op with
          | Grid_rsl.Ast.Lt -> x < bound
          | Grid_rsl.Ast.Gt -> x > bound
          | Grid_rsl.Ast.Le -> x <= bound
          | Grid_rsl.Ast.Ge -> x >= bound
          | Grid_rsl.Ast.Eq | Grid_rsl.Ast.Neq -> assert false))
      actual
  | Some [] | None -> false

let check_sat ~subject_str (view : string list option array) (c : cconstr) =
  let present = view.(c.attr) in
  match c.check with
  | Const b -> b
  | Null_absent -> ( match present with None | Some [] -> true | Some (_ :: _) -> false)
  | Null_present -> ( match present with Some (_ :: _) -> true | Some [] | None -> false)
  | Member { allowed; self } -> begin
    match present with
    | Some (_ :: _ as actual) ->
      List.for_all
        (fun v ->
          List.exists (String.equal v) allowed || (self && String.equal v subject_str))
        actual
    | Some [] | None -> false
  end
  | Not_member { forbidden; self } -> begin
    match present with
    | None | Some [] -> true
    | Some actual ->
      not
        (List.exists
           (fun v ->
             List.exists (String.equal v) forbidden
             || (self && String.equal v subject_str))
           actual)
  end
  | Compare { op; bound } -> numeric_holds op bound present
  | Compare_self { op } -> begin
    (* [self] as a numeric bound: resolves to the subject DN, which must
       itself parse as a number (it never does for real DNs — the
       reference answers false there, and so do we). *)
    match float_of_string_opt subject_str with
    | None -> false
    | Some bound -> numeric_holds op bound present
  end

(* All statements whose pattern prefixes [subject], in statement order:
   probe the bucket of every subject prefix and re-sort the (few) hits. *)
let applicable t (subject : Grid_gsi.Dn.t) : cstatement list =
  let rec probe comps depth key acc =
    let acc =
      match Hashtbl.find_opt t.buckets key with
      | Some sts -> List.rev_append sts acc
      | None -> acc
    in
    if depth >= t.max_pattern then acc
    else
      match comps with
      | [] -> acc
      | rdn :: rest -> probe rest (depth + 1) (extend_key key (component_key rdn)) acc
  in
  List.sort
    (fun a b -> compare a.index b.index)
    (probe subject 0 "" [])

(* The decision procedure proper, over an already-built view and an
   already-probed applicable-statement list — shared by [eval] and the
   per-subject groups of [eval_many]. *)
let decide ~subject_str (view : string list option array)
    (statements : cstatement list) : Eval.decision =
  let sat = check_sat ~subject_str view in
  let violated =
    List.find_map
      (fun st ->
        match st.body with
        | Cgrant _ -> None
        | Crequirement clauses ->
          List.find_map
            (fun { guards; obligations } ->
              if not (List.for_all sat guards) then None
              else
                match List.find_opt (fun c -> not (sat c)) obligations with
                | Some c ->
                  Some
                    (Eval.Requirement_violated
                       { subject_pattern = st.pattern; constr = c.source })
                | None -> None)
            clauses)
      statements
  in
  match violated with
  | Some reason -> Eval.Deny reason
  | None ->
    let grants =
      List.filter (fun st -> match st.body with Cgrant _ -> true | _ -> false)
        statements
    in
    if grants = [] then Eval.Deny Eval.No_applicable_grant
    else if
      List.exists
        (fun st ->
          match st.body with
          | Cgrant { clauses; _ } ->
            List.exists (fun clause -> List.for_all sat clause) clauses
          | Crequirement _ -> false)
        grants
    then Eval.Permit
    else
      let considered =
        List.fold_left
          (fun acc st ->
            match st.body with
            | Cgrant { clause_count; _ } -> acc + clause_count
            | Crequirement _ -> acc)
          0 grants
      in
      Eval.Deny (Eval.No_satisfied_clause { considered })

let eval (t : t) (request : Types.request) : Eval.decision =
  let subject = request.subject in
  let subject_str = Grid_gsi.Dn.to_string subject in
  let view = build_view t request in
  decide ~subject_str view (applicable t subject)

(* Batched evaluation: element-wise identical to [Array.map (eval t)],
   answers in request order. Amortization within the batch:

     - Dedupe. Management ticks over a running job population repeat the
       same (subject, action, jobowner, jobtag) request many times per
       batch — requests are plain data, so structurally equal requests
       necessarily get the same decision and are evaluated once, with
       the representative's decision (a shared immutable value) written
       to every duplicate slot.
     - Subject grouping. Distinct requests are sorted by subject so each
       subject's DN rendering and index probe happen once per group, not
       once per request.
     - Scratch view. One view array serves the whole batch, cleared
       between requests — no per-decision view allocation.

   The result array is scattered by original index, so the sort is
   invisible to the caller. *)
let eval_many (t : t) (requests : Types.request array) : Eval.decision array =
  let n = Array.length requests in
  if n = 0 then [||]
  else if n = 1 then [| eval t requests.(0) |]
  else begin
    let rep = Array.make n (-1) in
    let seen : (Types.request, int) Hashtbl.t = Hashtbl.create (min n 64) in
    let n_unique = ref 0 in
    for i = 0 to n - 1 do
      match Hashtbl.find_opt seen requests.(i) with
      | Some j -> rep.(i) <- j
      | None ->
        Hashtbl.add seen requests.(i) i;
        rep.(i) <- i;
        incr n_unique
    done;
    let order = Array.make !n_unique 0 in
    let k = ref 0 in
    for i = 0 to n - 1 do
      if rep.(i) = i then begin
        order.(!k) <- i;
        incr k
      end
    done;
    Array.sort
      (fun i j -> Stdlib.compare requests.(i).Types.subject requests.(j).Types.subject)
      order;
    let results = Array.make n Eval.Permit in
    let view = Array.make t.n_attrs None in
    let m = Array.length order in
    let i = ref 0 in
    while !i < m do
      let subject = requests.(order.(!i)).Types.subject in
      let subject_str = Grid_gsi.Dn.to_string subject in
      let statements = applicable t subject in
      let same_subject r =
        Stdlib.compare r.Types.subject subject = 0
      in
      while !i < m && same_subject requests.(order.(!i)) do
        let idx = order.(!i) in
        Array.fill view 0 t.n_attrs None;
        build_view_into t view requests.(idx);
        results.(idx) <- decide ~subject_str view statements;
        incr i
      done
    done;
    for i = 0 to n - 1 do
      if rep.(i) <> i then results.(i) <- results.(rep.(i))
    done;
    results
  end

(* --- Reloadable store -------------------------------------------------- *)

module Store = struct
  type compiled = t

  type t = { mutable current : compiled }

  let create policy = { current = compile policy }
  let current s = s.current
  let epoch s = s.current.epoch
  let reload s policy = s.current <- compile policy
  let eval s request = eval s.current request
end

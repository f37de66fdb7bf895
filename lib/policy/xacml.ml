(* XACML-style XML front end for the policy language.

   Section 6.3: "expressing policies in [RSL] terms is not natural to
   this community ... languages based on XML, such as XACML, are being
   scrutinized by the Grid security community and are viable
   candidates." This module is that replacement front end: a simplified
   XACML 1.0-shaped syntax that compiles to exactly the same internal
   representation ({!Types.t}) the RSL-based parser produces, so the
   evaluation engine, combination semantics and every PEP work
   unchanged with either syntax.

     <?xml version="1.0"?>
     <Policy PolicyId="fusion-vo">
       <Rule RuleId="bo-test1" Effect="Permit">
         <Target>
           <Subjects><Subject>/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Bo Liu</Subject></Subjects>
           <Actions><Action>start</Action></Actions>
         </Target>
         <Condition>
           <Match AttributeId="executable" MatchId="equal">test1</Match>
           <Match AttributeId="directory"  MatchId="equal">/sandbox/test</Match>
           <Match AttributeId="jobtag"     MatchId="equal">ADS</Match>
           <Match AttributeId="count"      MatchId="less-than">4</Match>
         </Condition>
       </Rule>
       <Rule RuleId="must-tag" Effect="Obligation">
         <Target>
           <Subjects><Subject>/O=Grid/O=Globus/OU=mcs.anl.gov</Subject></Subjects>
           <Actions><Action>start</Action></Actions>
         </Target>
         <Condition>
           <Match AttributeId="jobtag" MatchId="present"/>
         </Condition>
       </Rule>
     </Policy>

   Mapping: Effect="Permit" rules become grant statements (one per
   <Subject>); Effect="Obligation" rules become requirement statements.
   <Action> names become an (action = ...) constraint. MatchIds map to
   the relational operators; "present"/"absent" map to != NULL / = NULL;
   the value "self" keeps its special meaning on MatchId="equal". A
   <Match> may carry several <Value> children for value sets. *)

(* Raised inside the front end only; [parse] turns it into [Error]. *)
exception Invalid of string

let fail fmt = Printf.ksprintf (fun m -> raise (Invalid m)) fmt

let match_id_to_op = function
  | "equal" -> Grid_rsl.Ast.Eq
  | "not-equal" -> Grid_rsl.Ast.Neq
  | "less-than" -> Grid_rsl.Ast.Lt
  | "greater-than" -> Grid_rsl.Ast.Gt
  | "less-or-equal" -> Grid_rsl.Ast.Le
  | "greater-or-equal" -> Grid_rsl.Ast.Ge
  | other -> fail "unknown MatchId %S" other

let op_to_match_id = function
  | Grid_rsl.Ast.Eq -> "equal"
  | Grid_rsl.Ast.Neq -> "not-equal"
  | Grid_rsl.Ast.Lt -> "less-than"
  | Grid_rsl.Ast.Gt -> "greater-than"
  | Grid_rsl.Ast.Le -> "less-or-equal"
  | Grid_rsl.Ast.Ge -> "greater-or-equal"

let cvalue_of_text s = if s = "self" then Types.Self else Types.Str s

let parse_match (el : Xml_lite.t) : Types.constr =
  let attribute =
    match Xml_lite.attr el "AttributeId" with
    | Some a -> Grid_rsl.Ast.normalize_attribute a
    | None -> fail "<Match> without AttributeId"
  in
  let match_id = Option.value (Xml_lite.attr el "MatchId") ~default:"equal" in
  match match_id with
  | "present" -> { Types.attribute; op = Grid_rsl.Ast.Neq; values = [ Types.Null ] }
  | "absent" -> { Types.attribute; op = Grid_rsl.Ast.Eq; values = [ Types.Null ] }
  | match_id ->
    let op = match_id_to_op match_id in
    let values =
      match Xml_lite.children_named el "Value" with
      | [] -> begin
        match el.Xml_lite.text with
        | "" -> fail "<Match AttributeId=%S> without a value" attribute
        | text -> [ cvalue_of_text text ]
      end
      | value_elements ->
        List.map (fun (v : Xml_lite.t) -> cvalue_of_text v.Xml_lite.text) value_elements
    in
    { Types.attribute; op; values }

let parse_rule (el : Xml_lite.t) : Types.statement list =
  let rule_id = Option.value (Xml_lite.attr el "RuleId") ~default:"(anonymous)" in
  let kind =
    match Xml_lite.attr el "Effect" with
    | Some "Permit" -> Types.Grant
    | Some "Obligation" -> Types.Requirement
    | Some other -> fail "rule %s: unsupported Effect %S (Permit or Obligation)" rule_id other
    | None -> fail "rule %s: missing Effect" rule_id
  in
  let target =
    match Xml_lite.child_named el "Target" with
    | Some t -> t
    | None -> fail "rule %s: missing <Target>" rule_id
  in
  let subjects =
    match Xml_lite.child_named target "Subjects" with
    | Some s -> List.map (fun (el : Xml_lite.t) -> el.Xml_lite.text) (Xml_lite.children_named s "Subject")
    | None -> []
  in
  if subjects = [] then fail "rule %s: no <Subject>" rule_id;
  let actions =
    match Xml_lite.child_named target "Actions" with
    | Some a ->
      List.map
        (fun (el : Xml_lite.t) ->
          match Types.Action.of_string el.Xml_lite.text with
          | Some action -> action
          | None -> fail "rule %s: unknown action %S" rule_id el.Xml_lite.text)
        (Xml_lite.children_named a "Action")
    | None -> []
  in
  let matches =
    match Xml_lite.child_named el "Condition" with
    | Some c -> List.map parse_match (Xml_lite.children_named c "Match")
    | None -> []
  in
  let action_constr =
    match actions with
    | [] -> []
    | actions ->
      [ { Types.attribute = "action";
          op = Grid_rsl.Ast.Eq;
          values = List.map (fun a -> Types.Str (Types.Action.to_string a)) actions } ]
  in
  let clause = action_constr @ matches in
  if clause = [] then fail "rule %s: empty rule (no actions, no matches)" rule_id;
  List.map
    (fun subject ->
      let subject_pattern =
        try Grid_gsi.Dn.parse subject
        with Grid_gsi.Dn.Parse_error m -> fail "rule %s: bad subject: %s" rule_id m
      in
      { Types.kind; subject_pattern; clauses = [ clause ] })
    subjects

let of_xml (root : Xml_lite.t) : Types.t =
  if root.Xml_lite.tag <> "Policy" then fail "root element must be <Policy>";
  List.concat_map parse_rule (Xml_lite.children_named root "Rule")

let parse text : (Types.t, string) result =
  match Xml_lite.parse text with
  | exception Xml_lite.Parse_error { pos; message } ->
    Error (Printf.sprintf "XML error at %d: %s" pos message)
  | root -> ( try Ok (of_xml root) with Invalid m -> Error m)

(* --- export ----------------------------------------------------------- *)

let constr_to_match (c : Types.constr) : Xml_lite.t =
  let base = [ ("AttributeId", c.Types.attribute) ] in
  match (c.Types.op, c.Types.values) with
  | Grid_rsl.Ast.Neq, [ Types.Null ] ->
    Xml_lite.element ~attrs:(base @ [ ("MatchId", "present") ]) "Match" []
  | Grid_rsl.Ast.Eq, [ Types.Null ] ->
    Xml_lite.element ~attrs:(base @ [ ("MatchId", "absent") ]) "Match" []
  | op, values ->
    let attrs = base @ [ ("MatchId", op_to_match_id op) ] in
    (match values with
    | [ v ] -> Xml_lite.element ~attrs ~text:(Types.cvalue_to_plain v) "Match" []
    | values ->
      Xml_lite.element ~attrs "Match"
        (List.map
           (fun v -> Xml_lite.element ~text:(Types.cvalue_to_plain v) "Value" [])
           values))

(* Split a clause into its action constraint (for <Actions>) and the
   rest (for <Condition>). Only a single positive (action = ...)
   constraint can be represented in the target; anything else stays a
   Match on the "action" attribute. *)
let split_actions (clause : Types.clause) =
  let is_action_eq (c : Types.constr) =
    c.Types.attribute = "action" && c.Types.op = Grid_rsl.Ast.Eq
    && List.for_all (function Types.Str _ -> true | Types.Null | Types.Self -> false)
         c.Types.values
  in
  match List.partition is_action_eq clause with
  | [ actions ], rest ->
    ( List.filter_map
        (function Types.Str s -> Some s | Types.Null | Types.Self -> None)
        actions.Types.values,
      rest )
  | _ -> ([], clause)

let statement_to_rules index (st : Types.statement) : Xml_lite.t list =
  let effect = match st.Types.kind with Types.Grant -> "Permit" | Types.Requirement -> "Obligation" in
  List.mapi
    (fun clause_index clause ->
      let action_names, rest = split_actions clause in
      let subjects =
        Xml_lite.element "Subjects"
          [ Xml_lite.element ~text:(Grid_gsi.Dn.to_string st.Types.subject_pattern)
              "Subject" [] ]
      in
      let actions =
        match action_names with
        | [] -> []
        | names ->
          [ Xml_lite.element "Actions"
              (List.map (fun a -> Xml_lite.element ~text:a "Action" []) names) ]
      in
      let condition =
        match rest with
        | [] -> []
        | rest -> [ Xml_lite.element "Condition" (List.map constr_to_match rest) ]
      in
      Xml_lite.element
        ~attrs:
          [ ("RuleId", Printf.sprintf "rule-%d-%d" index clause_index);
            ("Effect", effect) ]
        "Rule"
        (Xml_lite.element "Target" ([ subjects ] @ actions) :: condition))
    st.Types.clauses

let to_xml ?(policy_id = "policy") (policy : Types.t) : Xml_lite.t =
  Xml_lite.element
    ~attrs:[ ("PolicyId", policy_id) ]
    "Policy"
    (List.concat (List.mapi statement_to_rules policy))

let to_string ?policy_id policy = Xml_lite.to_string (to_xml ?policy_id policy)

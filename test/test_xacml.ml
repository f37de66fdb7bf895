(* Tests for the XACML-style XML front end (Section 6.3's replacement
   syntax) and the underlying XML reader. *)

open Grid_policy

let dn = Grid_gsi.Dn.parse

(* --- XML reader ---------------------------------------------------------- *)

let test_xml_basic () =
  let doc = Xml_lite.parse {|<?xml version="1.0"?><a x="1"><b>text</b><c/></a>|} in
  Alcotest.(check string) "root" "a" doc.Xml_lite.tag;
  Alcotest.(check (option string)) "attr" (Some "1") (Xml_lite.attr doc "x");
  Alcotest.(check int) "children" 2 (List.length doc.Xml_lite.children);
  (match Xml_lite.child_named doc "b" with
  | Some b -> Alcotest.(check string) "text" "text" b.Xml_lite.text
  | None -> Alcotest.fail "child b missing");
  Alcotest.(check bool) "self-closing" true (Xml_lite.child_named doc "c" <> None)

let test_xml_entities () =
  let doc = Xml_lite.parse {|<a x="&lt;&amp;&gt;">&quot;v&apos;</a>|} in
  Alcotest.(check (option string)) "attr entities" (Some "<&>") (Xml_lite.attr doc "x");
  Alcotest.(check string) "text entities" {|"v'|} doc.Xml_lite.text

let test_xml_comments_and_ws () =
  let doc =
    Xml_lite.parse
      "<?xml version=\"1.0\"?>\n<!-- header -->\n<a>\n  <!-- inner -->\n  <b/>\n</a>\n"
  in
  Alcotest.(check int) "comments skipped" 1 (List.length doc.Xml_lite.children)

let test_xml_errors () =
  let bad s =
    Alcotest.(check bool)
      (Printf.sprintf "rejects %s" s)
      true
      (try
         ignore (Xml_lite.parse s);
         false
       with Xml_lite.Parse_error _ -> true)
  in
  bad "";
  bad "<a>";
  bad "<a></b>";
  bad "<a";
  bad "<a x=1/>";
  bad "<a x=\"1/>";
  bad "<a>&unknown;</a>";
  bad "<a/><b/>";
  bad "<a>text"

let test_xml_roundtrip () =
  let doc =
    Xml_lite.element ~attrs:[ ("k", "v<&>") ] "root"
      [ Xml_lite.element ~text:"hello \"world\"" "child" [];
        Xml_lite.element "empty" [] ]
  in
  let doc' = Xml_lite.parse (Xml_lite.to_string doc) in
  Alcotest.(check (option string)) "attr survives" (Some "v<&>") (Xml_lite.attr doc' "k");
  match Xml_lite.child_named doc' "child" with
  | Some c -> Alcotest.(check string) "text survives" "hello \"world\"" c.Xml_lite.text
  | None -> Alcotest.fail "child lost"

(* --- XACML front end ------------------------------------------------------- *)

let figure3_xacml =
  {|<?xml version="1.0"?>
<Policy PolicyId="fusion-vo">
  <Rule RuleId="must-tag" Effect="Obligation">
    <Target>
      <Subjects><Subject>/O=Grid/O=Globus/OU=mcs.anl.gov</Subject></Subjects>
      <Actions><Action>start</Action></Actions>
    </Target>
    <Condition><Match AttributeId="jobtag" MatchId="present"/></Condition>
  </Rule>
  <Rule RuleId="bo-test1" Effect="Permit">
    <Target>
      <Subjects><Subject>/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Bo Liu</Subject></Subjects>
      <Actions><Action>start</Action></Actions>
    </Target>
    <Condition>
      <Match AttributeId="executable" MatchId="equal">test1</Match>
      <Match AttributeId="directory" MatchId="equal">/sandbox/test</Match>
      <Match AttributeId="jobtag" MatchId="equal">ADS</Match>
      <Match AttributeId="count" MatchId="less-than">4</Match>
    </Condition>
  </Rule>
  <Rule RuleId="bo-test2" Effect="Permit">
    <Target>
      <Subjects><Subject>/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Bo Liu</Subject></Subjects>
      <Actions><Action>start</Action></Actions>
    </Target>
    <Condition>
      <Match AttributeId="executable" MatchId="equal">test2</Match>
      <Match AttributeId="directory" MatchId="equal">/sandbox/test</Match>
      <Match AttributeId="jobtag" MatchId="equal">NFC</Match>
      <Match AttributeId="count" MatchId="less-than">4</Match>
    </Condition>
  </Rule>
  <Rule RuleId="kate-transp" Effect="Permit">
    <Target>
      <Subjects><Subject>/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Kate Keahey</Subject></Subjects>
      <Actions><Action>start</Action></Actions>
    </Target>
    <Condition>
      <Match AttributeId="executable" MatchId="equal">TRANSP</Match>
      <Match AttributeId="directory" MatchId="equal">/sandbox/test</Match>
      <Match AttributeId="jobtag" MatchId="equal">NFC</Match>
    </Condition>
  </Rule>
  <Rule RuleId="kate-cancel" Effect="Permit">
    <Target>
      <Subjects><Subject>/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Kate Keahey</Subject></Subjects>
      <Actions><Action>cancel</Action></Actions>
    </Target>
    <Condition><Match AttributeId="jobtag" MatchId="equal">NFC</Match></Condition>
  </Rule>
</Policy>|}

let start ~who ~rsl =
  Types.start_request ~subject:(dn who) ~job:(Grid_rsl.Parser.parse_clause_exn rsl)

let manage ~who ~action ~owner ~tag =
  Types.management_request ~subject:(dn who) ~action ~jobowner:(dn owner) ~jobtag:tag

(* The probes used to compare syntaxes decision-for-decision. *)
let probes =
  [ start ~who:Figure3.bo_liu
      ~rsl:"&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=3)";
    start ~who:Figure3.bo_liu
      ~rsl:"&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=4)";
    start ~who:Figure3.bo_liu
      ~rsl:"&(executable=test2)(directory=/sandbox/test)(jobtag=NFC)(count=2)";
    start ~who:Figure3.bo_liu ~rsl:"&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)";
    start ~who:Figure3.bo_liu ~rsl:"&(executable=test1)(directory=/sandbox/test)";
    start ~who:Figure3.kate_keahey
      ~rsl:"&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)";
    start ~who:Figure3.kate_keahey ~rsl:"&(executable=TRANSP)(directory=/sandbox/test)";
    manage ~who:Figure3.kate_keahey ~action:Types.Action.Cancel ~owner:Figure3.bo_liu
      ~tag:(Some "NFC");
    manage ~who:Figure3.kate_keahey ~action:Types.Action.Cancel ~owner:Figure3.bo_liu
      ~tag:(Some "ADS");
    manage ~who:Figure3.bo_liu ~action:Types.Action.Cancel ~owner:Figure3.kate_keahey
      ~tag:(Some "NFC");
    start ~who:"/O=Elsewhere/CN=X" ~rsl:"&(executable=test1)(jobtag=ADS)" ]

let parse_ok text =
  match Xacml.parse text with Ok policy -> policy | Error m -> Alcotest.failf "xacml: %s" m

let test_xacml_figure3_equivalent () =
  (* The XACML rendering of Figure 3 makes the same decisions as the
     RSL-syntax original on every probe. *)
  let xacml_policy = parse_ok figure3_xacml in
  let rsl_policy = Figure3.get () in
  List.iteri
    (fun i probe ->
      Alcotest.(check bool)
        (Printf.sprintf "probe %d" i)
        (Eval.is_permit (Eval.evaluate rsl_policy probe))
        (Eval.is_permit (Eval.evaluate xacml_policy probe)))
    probes

let test_xacml_parse_structure () =
  let policy = parse_ok figure3_xacml in
  Alcotest.(check int) "five statements" 5 (List.length policy);
  match policy with
  | req :: _ ->
    Alcotest.(check bool) "obligation becomes requirement" true
      (req.Types.kind = Types.Requirement)
  | [] -> Alcotest.fail "empty"

let test_xacml_value_sets_and_self () =
  let policy =
    parse_ok
      {|<Policy>
          <Rule RuleId="r" Effect="Permit">
            <Target>
              <Subjects><Subject>/O=G</Subject></Subjects>
              <Actions><Action>start</Action></Actions>
            </Target>
            <Condition>
              <Match AttributeId="executable" MatchId="equal">
                <Value>a</Value><Value>b</Value>
              </Match>
            </Condition>
          </Rule>
          <Rule RuleId="own" Effect="Permit">
            <Target>
              <Subjects><Subject>/O=G</Subject></Subjects>
              <Actions><Action>cancel</Action></Actions>
            </Target>
            <Condition>
              <Match AttributeId="jobowner" MatchId="equal">self</Match>
            </Condition>
          </Rule>
        </Policy>|}
  in
  Alcotest.(check bool) "value set member" true
    (Eval.is_permit (Eval.evaluate policy (start ~who:"/O=G/CN=U" ~rsl:"&(executable=b)")));
  Alcotest.(check bool) "value set non-member" false
    (Eval.is_permit (Eval.evaluate policy (start ~who:"/O=G/CN=U" ~rsl:"&(executable=c)")));
  Alcotest.(check bool) "self works" true
    (Eval.is_permit
       (Eval.evaluate policy
          (manage ~who:"/O=G/CN=U" ~action:Types.Action.Cancel ~owner:"/O=G/CN=U" ~tag:None)));
  Alcotest.(check bool) "self rejects others" false
    (Eval.is_permit
       (Eval.evaluate policy
          (manage ~who:"/O=G/CN=U" ~action:Types.Action.Cancel ~owner:"/O=G/CN=V" ~tag:None)))

let test_xacml_errors () =
  let bad text =
    match Xacml.parse text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %s" text
  in
  bad "<NotPolicy/>";
  bad "<Policy><Rule RuleId=\"r\"><Target/></Rule></Policy>";
  bad
    {|<Policy><Rule RuleId="r" Effect="Permit"><Target><Subjects><Subject>/O=G</Subject></Subjects></Target></Rule></Policy>|};
  bad
    {|<Policy><Rule RuleId="r" Effect="Permit"><Target><Subjects><Subject>bad-dn</Subject></Subjects><Actions><Action>start</Action></Actions></Target></Rule></Policy>|};
  bad
    {|<Policy><Rule RuleId="r" Effect="Permit"><Target><Subjects><Subject>/O=G</Subject></Subjects><Actions><Action>fly</Action></Actions></Target></Rule></Policy>|};
  bad
    {|<Policy><Rule RuleId="r" Effect="Deny"><Target><Subjects><Subject>/O=G</Subject></Subjects><Actions><Action>start</Action></Actions></Target></Rule></Policy>|}

let test_xacml_export_roundtrip_figure3 () =
  let policy = Figure3.get () in
  let exported = Xacml.to_string ~policy_id:"figure3" policy in
  let reimported = parse_ok exported in
  List.iteri
    (fun i probe ->
      Alcotest.(check bool)
        (Printf.sprintf "probe %d survives export/import" i)
        (Eval.is_permit (Eval.evaluate policy probe))
        (Eval.is_permit (Eval.evaluate reimported probe)))
    probes

(* Generator of random policies over a small vocabulary, for the
   round-trip property. *)
let gen_policy : Types.t QCheck.Gen.t =
  QCheck.Gen.(
    let subject =
      oneofl
        [ "/O=Grid/O=T"; "/O=Grid/O=T/CN=Alice"; "/O=Grid/O=T/CN=Bob"; "/O=Other/CN=Eve" ]
    in
    let attr = oneofl [ "executable"; "directory"; "count"; "jobtag"; "queue"; "jobowner" ] in
    let value =
      oneof
        [ map (fun s -> Types.Str s) (oneofl [ "a"; "b"; "/x/y"; "3"; "7" ]);
          return Types.Self ]
    in
    let constr =
      let* attribute = attr in
      let* op = oneofl Grid_rsl.Ast.[ Eq; Neq; Lt; Gt; Le; Ge ] in
      match op with
      | Grid_rsl.Ast.Lt | Grid_rsl.Ast.Gt | Grid_rsl.Ast.Le | Grid_rsl.Ast.Ge ->
        (* keep numeric bounds well-formed *)
        let* bound = oneofl [ "2"; "5"; "10" ] in
        return { Types.attribute; op; values = [ Types.Str bound ] }
      | Grid_rsl.Ast.Eq | Grid_rsl.Ast.Neq ->
        let* null = frequency [ (4, return false); (1, return true) ] in
        if null then return { Types.attribute; op; values = [ Types.Null ] }
        else
          let* values = list_size (int_range 1 3) value in
          return { Types.attribute; op; values }
    in
    let action_constr =
      let* actions =
        list_size (int_range 1 2) (oneofl [ "start"; "cancel"; "information"; "signal" ])
      in
      return
        { Types.attribute = "action";
          op = Grid_rsl.Ast.Eq;
          values = List.map (fun a -> Types.Str a) (List.sort_uniq compare actions) }
    in
    let clause =
      let* head = action_constr in
      let* rest = list_size (int_range 0 4) constr in
      return (head :: rest)
    in
    let statement =
      let* kind = frequency [ (4, return Types.Grant); (1, return Types.Requirement) ] in
      let* subject = subject in
      let* clauses = list_size (int_range 1 3) clause in
      return { Types.kind; subject_pattern = Grid_gsi.Dn.parse subject; clauses }
    in
    list_size (int_range 1 6) statement)

let gen_probe : Types.request QCheck.Gen.t =
  QCheck.Gen.(
    let subject =
      oneofl
        [ "/O=Grid/O=T/CN=Alice"; "/O=Grid/O=T/CN=Bob"; "/O=Other/CN=Eve"; "/O=Grid/O=T/CN=Carol" ]
    in
    let* who = subject in
    let* kind = oneofl [ `Start; `Manage ] in
    match kind with
    | `Start ->
      let* exe = oneofl [ "a"; "b"; "c" ] in
      let* count = oneofl [ 1; 3; 7 ] in
      let* tag = oneofl [ None; Some "a"; Some "b" ] in
      let tag_text = match tag with None -> "" | Some t -> Printf.sprintf "(jobtag=%s)" t in
      return (start ~who ~rsl:(Printf.sprintf "&(executable=%s)(count=%d)%s" exe count tag_text))
    | `Manage ->
      let* owner = subject in
      let* action = oneofl Types.Action.[ Cancel; Information; Signal ] in
      let* tag = oneofl [ None; Some "a" ] in
      return (manage ~who ~action ~owner ~tag))

let qcheck_export_import_decision_equivalent =
  QCheck.Test.make ~name:"XACML export/import preserves decisions" ~count:200
    (QCheck.make
       QCheck.Gen.(pair gen_policy (list_size (int_range 1 8) gen_probe))
       ~print:(fun (p, _) -> Types.to_string p))
    (fun (policy, probes) ->
      match Xacml.parse (Xacml.to_string policy) with
      | Error _ -> false
      | Ok policy' ->
        List.for_all
          (fun probe ->
            Eval.is_permit (Eval.evaluate policy probe)
            = Eval.is_permit (Eval.evaluate policy' probe))
          probes)

let qcheck_xml_fuzz_no_crash =
  QCheck.Test.make ~name:"XML parser never crashes" ~count:500
    QCheck.(string_gen QCheck.Gen.printable)
    (fun s ->
      match Xml_lite.parse s with
      | _ -> true
      | exception Xml_lite.Parse_error _ -> true)

let qcheck_xacml_fuzz_no_crash =
  QCheck.Test.make ~name:"XACML parser never crashes" ~count:500
    QCheck.(string_gen QCheck.Gen.printable)
    (fun s ->
      match Xacml.parse s with
      | Ok _ | Error _ -> true)

let () =
  Alcotest.run "grid_policy_xacml"
    [ ( "xml",
        [ Alcotest.test_case "basic" `Quick test_xml_basic;
          Alcotest.test_case "entities" `Quick test_xml_entities;
          Alcotest.test_case "comments" `Quick test_xml_comments_and_ws;
          Alcotest.test_case "errors" `Quick test_xml_errors;
          Alcotest.test_case "roundtrip" `Quick test_xml_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_xml_fuzz_no_crash ] );
      ( "xacml",
        [ Alcotest.test_case "figure3 equivalent" `Quick test_xacml_figure3_equivalent;
          Alcotest.test_case "structure" `Quick test_xacml_parse_structure;
          Alcotest.test_case "value sets + self" `Quick test_xacml_value_sets_and_self;
          Alcotest.test_case "errors" `Quick test_xacml_errors;
          Alcotest.test_case "figure3 export round-trip" `Quick
            test_xacml_export_roundtrip_figure3;
          QCheck_alcotest.to_alcotest qcheck_export_import_decision_equivalent;
          QCheck_alcotest.to_alcotest qcheck_xacml_fuzz_no_crash ] ) ]

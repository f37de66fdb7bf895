(* Policy administration workflows: the tooling Section 6.3 says the
   administrator community needs — linting policy before deployment,
   answering "what did I grant?", and moving between the RSL-based and
   XACML-style syntaxes without changing semantics.

   Run with: dune exec examples/policy_administration.exe *)

open Core

let say fmt = Printf.printf fmt

let () =
  say "== 1. Lint a draft policy before deployment ==\n";
  let draft =
    {|# draft VO policy, with mistakes
/O=Grid/O=Fusion/CN=Alice: &(action = start)(executable = sim)(count > 8)(count < 4)
/O=Grid/O=Fusion/CN=Bob: &(executable = sim)
/O=Grid/O=Fusion/CN=Bob: &(executable = sim)
|}
  in
  let policy = Policy.Parse.parse draft in
  List.iter
    (fun f -> say "  %s\n" (Policy.Lint.finding_to_string f))
    (Policy.Lint.lint policy);

  say "\n== 2. The corrected policy is clean ==\n";
  let fixed =
    Policy.Parse.parse
      {|/O=Grid/O=Fusion/CN=Alice: &(action = start)(executable = sim)(count < 4)
/O=Grid/O=Fusion/CN=Bob: &(action = start)(executable = sim)
/O=Grid/O=Fusion/CN=Bob: &(action = cancel)(jobowner = self)|}
  in
  (match Policy.Lint.lint fixed with
  | [] -> say "  no findings\n"
  | fs -> List.iter (fun f -> say "  %s\n" (Policy.Lint.finding_to_string f)) fs);

  say "\n== 3. What did we actually grant? ==\n";
  List.iter
    (fun who ->
      Fmt.pr "%a@." Policy.Query.pp_rights (fixed, Gsi.Dn.parse who))
    [ "/O=Grid/O=Fusion/CN=Alice"; "/O=Grid/O=Fusion/CN=Bob" ];
  say "  Who can cancel jobs? %s\n"
    (String.concat ", "
       (List.map Gsi.Dn.to_string
          (Policy.Query.who_can fixed ~action:Policy.Types.Action.Cancel ())));
  say "  Alice's executables: %s\n"
    (String.concat ", "
       (Policy.Query.allowed_values fixed ~subject:(Gsi.Dn.parse "/O=Grid/O=Fusion/CN=Alice")
          ~attribute:"executable"));

  say "\n== 4. Export to the XACML-style syntax (Section 6.3) ==\n";
  let xml = Policy.Xacml.to_string ~policy_id:"fusion-draft" fixed in
  print_string xml;

  say "\n== 5. Round-trip: the XML re-imports to the same decisions ==\n";
  let reimported =
    match Policy.Xacml.parse xml with Ok policy -> policy | Error m -> failwith m
  in
  let probe =
    Policy.Types.start_request
      ~subject:(Gsi.Dn.parse "/O=Grid/O=Fusion/CN=Alice")
      ~job:(Rsl.Parser.parse_clause_exn "&(executable=sim)(count=2)")
  in
  say "  RSL-syntax decision:  %s\n"
    (Policy.Eval.decision_to_string (Policy.Eval.evaluate fixed probe));
  say "  XML-syntax decision:  %s\n"
    (Policy.Eval.decision_to_string (Policy.Eval.evaluate reimported probe))

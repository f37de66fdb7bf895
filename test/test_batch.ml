(* Batch decision pipeline oracle suite.

   Every layer of the decision stack implements one lane — [many] — and
   a single consultation is a batch of one. The contract is that batching
   is an *optimization*, never a semantic fork: for every backend, each
   answer must equal the uncompiled reference evaluator's
   ([File_pep.reference]) element-wise — the decision AND the reason
   (the structural compare covers the full error payload) — whether the
   query arrives in a batch ([evaluate_many]) or alone ([check], the
   batch-of-one path), and the answers must come back in request order.

   The property runs for every backend that ships a native lane
   (flat-file compiled, compiled behind the decision cache, ReBAC) plus
   a plain callout lifted with [Batch.of_callout], under three pinned
   seed sets so a failure reproduces byte-for-byte. Generated batches
   mix start and management intents, owners, jobtags, duplicates, and
   missing/live/expired credentials; the cached backend is exercised
   cold (misses) and warm (hits), and on one shared cache under two
   scopes. A deterministic regression case pins request-order
   preservation with asymmetric outcomes and duplicated slots. *)

module Callout = Grid_callout.Callout
module File_pep = Grid_callout.File_pep
module Cache = Grid_callout.Cache
module Pep = Grid_rebac.Pep
module Types = Grid_policy.Types

let dn = Grid_gsi.Dn.parse

(* --- Seed / count overrides (same contract as test_rebac) -------------- *)

let env_int name =
  match Sys.getenv_opt name with
  | None | Some "" -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n -> Some n
    | None -> Printf.ksprintf failwith "%s must be an integer, got %S" name s)

let override_seed = env_int "QCHECK_SEED"
let override_count = env_int "QCHECK_COUNT"
let count ~default = match override_count with Some n -> n | None -> default

let pinned_with seeds test =
  let seeds = match override_seed with Some s -> [| s |] | None -> seeds in
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make seeds) test

(* The pinned-seed matrix: the whole suite replays under each. *)
let seed_matrix = [ ("1", [| 1; 9973 |]); ("7", [| 7; 1103 |]); ("42", [| 42; 2741 |]) ]

(* --- The world ---------------------------------------------------------- *)

(* The fusion policy sources (resource owner + VO): two sources, so the
   conjunctive source-major batch path is on the hook, with the
   developer count cap supplying real denials. *)
let sources = Core.Fusion.policy_sources (Core.Fusion.build_vo ())
let compiled_pep = File_pep.Compiled.create sources
let compiled = File_pep.Compiled.batch compiled_pep
let rebac = Pep.batch (Pep.create sources)
let fallback = Callout.Batch.of_callout (File_pep.Compiled.callout compiled_pep)
let reference = File_pep.reference sources

(* All cache clocks sit at [now]; the 50-second identities below are
   long dead by then, the 1000-second ones comfortably live. *)
let now = 100.0
let ca = Grid_gsi.Ca.create ~now:0.0 "/O=Grid/CN=Batch CA"

let credential ~lifetime dn_string =
  Grid_gsi.Credential.of_identity
    (Grid_gsi.Identity.create ~ca ~now:0.0 ~lifetime dn_string)
    ~challenge:"c"

let bo = Core.Fusion.bo_liu
let kate = Core.Fusion.kate_keahey
let admin = Core.Fusion.admin
let stranger = "/O=Elsewhere/CN=stranger"
let subjects = [ bo; kate; admin; stranger ]
let credentials = List.map (fun s -> (s, (credential ~lifetime:1000.0 s, credential ~lifetime:50.0 s))) subjects
let live_credential s = fst (List.assoc s credentials)
let expired_credential s = snd (List.assoc s credentials)

let clauses =
  Array.map Grid_rsl.Parser.parse_clause_exn
    [| "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=2)";
       "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=6)";
       "&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)(count=4)";
       "&(executable=test1)(directory=/sandbox/test)" |]

(* --- Generators --------------------------------------------------------- *)

let gen_query : Callout.query QCheck.Gen.t =
  QCheck.Gen.(
    let* who = oneofl subjects in
    let* credential =
      frequency
        [ (3, return None);
          (2, return (Some (live_credential who)));
          (2, return (Some (expired_credential who))) ]
    in
    let* is_start = frequency [ (1, return true); (2, return false) ] in
    if is_start then
      let* i = int_range 0 (Array.length clauses - 1) in
      return
        (Callout.Query.make ~requester:(dn who) ?credential
           (Callout.Query.Start clauses.(i)))
    else
      let* action = oneofl [ Types.Action.Information; Cancel; Signal ] in
      let* owner = oneofl [ bo; kate ] in
      let* jobtag = oneofl [ None; Some "ADS"; Some "NFC" ] in
      let* job = int_range 0 3 in
      return
        (Callout.Query.make ~requester:(dn who) ?credential
           ~job_id:(Printf.sprintf "job-%d" job)
           (Callout.Query.Management { action; job_owner = dn owner; jobtag })))

let credential_live (c : Grid_gsi.Credential.t) =
  c.chain <> [] && List.for_all (fun cert -> Grid_gsi.Cert.valid_at cert ~now) c.chain

let query_to_string (q : Callout.query) =
  Printf.sprintf "{%s %s%s%s%s%s}"
    (Grid_gsi.Dn.to_string q.Callout.requester)
    (Types.Action.to_string q.Callout.action)
    (match q.Callout.job_owner with
    | Some o -> " owner=" ^ Grid_gsi.Dn.to_string o
    | None -> "")
    (match q.Callout.jobtag with Some t -> " tag=" ^ t | None -> "")
    (match q.Callout.rsl with Some _ -> " +rsl" | None -> "")
    (match q.Callout.requester_credential with
    | None -> ""
    | Some c -> if credential_live c then " cred:live" else " cred:EXPIRED")

let arb_batch =
  QCheck.make
    ~print:(fun qs -> String.concat "; " (List.map query_to_string qs))
    QCheck.Gen.(list_size (int_range 0 40) gen_query)

(* --- The oracle property ----------------------------------------------- *)

(* Two passes: against a stateful backend the first is all cold misses,
   the second all warm hits — both must still match the reference. The
   batched and the one-at-a-time consultations get *separate* backend
   instances, so each one's cache state evolves exactly as its own call
   sequence dictates. *)
let agrees_with_reference make qs =
  let expect = Array.map reference qs in
  let batched = make () and single = Callout.Batch.check (make ()) in
  let ok = ref true in
  for _pass = 1 to 2 do
    if Callout.Batch.evaluate_many batched qs <> expect then ok := false;
    if Array.map single qs <> expect then ok := false
  done;
  !ok

let fresh_cache () =
  Cache.create ~capacity:512 ~ttl:1e6
    ~epoch:(fun () -> File_pep.Compiled.epoch compiled_pep)
    ~now:(fun () -> now) ()

let backends =
  [ ("flat-file compiled", fun () -> compiled);
    ("derived fallback", fun () -> fallback);
    ("rebac", fun () -> rebac);
    ("compiled+cache", fun () -> Cache.with_cache (fresh_cache ()) compiled) ]

let oracle (name, make) =
  QCheck.Test.make
    ~name:(name ^ ": evaluate_many = map single = reference (decision and reason)")
    ~count:(count ~default:150) arb_batch
    (fun qs -> agrees_with_reference make (Array.of_list qs))

(* One shared cache serving two scopes: neither scope may leak the
   other's entries, so both must keep matching the reference while both
   scopes run hot on the same store. *)
let mixed_scopes =
  QCheck.Test.make ~name:"one cache, two scopes: both lanes match the reference"
    ~count:(count ~default:100) arb_batch
    (fun qs ->
      let qs = Array.of_list qs in
      let cache = fresh_cache () in
      let authz = Cache.with_cache cache ~scope:"authz" compiled in
      let gatekeeper = Cache.with_cache cache ~scope:"gatekeeper" compiled in
      let truth = Array.map reference qs in
      let ok = ref true in
      for _pass = 1 to 2 do
        if Callout.Batch.evaluate_many authz qs <> truth then ok := false;
        if Callout.Batch.evaluate_many gatekeeper qs <> truth then ok := false
      done;
      !ok)

(* --- Order preservation (deterministic regression) ---------------------- *)

(* Asymmetric outcomes in fixed slots, with slot 3 duplicating slot 0:
   any reordering, mis-scatter, or duplicate-collapse bug flips at
   least one index. *)
let test_order_preserved () =
  let q_kate =
    Callout.Query.make ~requester:(dn kate) (Callout.Query.Start clauses.(2))
  in
  let qs =
    [| q_kate;
       Callout.Query.make ~requester:(dn stranger) (Callout.Query.Start clauses.(2));
       Callout.Query.make ~requester:(dn bo) (Callout.Query.Start clauses.(1));
       q_kate;
       Callout.Query.make ~requester:(dn bo) (Callout.Query.Start clauses.(0)) |]
  in
  let expect_permit = [| true; false; false; true; true |] in
  let expect = Array.map reference qs in
  List.iter
    (fun (name, make) ->
      let got = Callout.Batch.evaluate_many (make ()) qs in
      Array.iteri
        (fun i d ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: slot %d permitted?" name i)
            expect_permit.(i)
            (d = Ok ());
          Alcotest.(check bool)
            (Printf.sprintf "%s: slot %d equals the reference" name i)
            true
            (d = expect.(i)))
        got)
    backends

let () =
  Alcotest.run "grid_batch"
    (( "order",
       [ Alcotest.test_case "request order preserved" `Quick test_order_preserved ] )
    :: List.map
         (fun (label, seeds) ->
           ( "equivalence-seed-" ^ label,
             List.map (fun b -> pinned_with seeds (oracle b)) backends
             @ [ pinned_with seeds mixed_scopes ] ))
         seed_matrix)

(* gridctl: command-line front end for the fine-grain authorization
   library.

     gridctl check  POLICY_FILE...            validate policy files
     gridctl eval   --subject DN --action A [--rsl R] [--jobowner DN]
                    [--jobtag T] POLICY_FILE...
                                              evaluate a request
     gridctl show   POLICY_FILE               parse and pretty-print
     gridctl figure3                          the paper's decision matrix

   Policies are in the paper's Figure 3 concrete syntax; multiple files
   are combined conjunctively (resource owner AND VO), each file being
   one source named after its path. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Policies come in two syntaxes (paper Section 5.1 and the Section 6.3
   XACML replacement); files are dispatched on their first character. *)
let parse_policy_text text =
  if Grid_util.Strings.starts_with ~prefix:"<" (Grid_util.Strings.strip text) then
    Grid_policy.Xacml.parse text
  else Grid_policy.Parse.parse_result text

let load_sources paths =
  List.map
    (fun path ->
      let text = read_file path in
      match parse_policy_text text with
      | Error m -> Printf.ksprintf failwith "%s: %s" path m
      | Ok policy -> begin
        match Grid_policy.Eval.validate policy with
        | Error m -> Printf.ksprintf failwith "%s: %s" path m
        | Ok () -> Grid_policy.Combine.source ~name:(Filename.basename path) policy
      end)
    paths

(* --- arguments ------------------------------------------------------- *)

let policy_files =
  Arg.(non_empty & pos_all file [] & info [] ~docv:"POLICY" ~doc:"Policy file(s).")

let subject =
  Arg.(
    required
    & opt (some string) None
    & info [ "s"; "subject" ] ~docv:"DN" ~doc:"Grid identity making the request.")

let action =
  let parse s =
    match Grid_policy.Types.Action.of_string s with
    | Some a -> Ok a
    | None -> Error (`Msg "expected start, cancel, information or signal")
  in
  let print ppf a = Fmt.string ppf (Grid_policy.Types.Action.to_string a) in
  Arg.(
    required
    & opt (some (conv (parse, print))) None
    & info [ "a"; "action" ] ~docv:"ACTION" ~doc:"start, cancel, information or signal.")

let rsl =
  Arg.(
    value
    & opt (some string) None
    & info [ "r"; "rsl" ] ~docv:"RSL" ~doc:"Job description (start requests).")

let jobowner =
  Arg.(
    value
    & opt (some string) None
    & info [ "jobowner" ] ~docv:"DN" ~doc:"Owner of the target job (management requests).")

let jobtag =
  Arg.(
    value
    & opt (some string) None
    & info [ "jobtag" ] ~docv:"TAG" ~doc:"Jobtag of the target job (management requests).")

let explain =
  Arg.(value & flag & info [ "explain" ] ~doc:"Show per-source decisions.")

(* Named network fault profiles for the simulation commands. *)
let faults_arg =
  Arg.(
    value
    & opt (enum [ ("none", `None); ("light", `Light); ("heavy", `Heavy) ]) `None
    & info [ "faults" ] ~docv:"PROFILE"
        ~doc:
          "Network fault profile: none, light (1% drop, 0.5% duplicate, 5% extra delay) \
           or heavy (5% drop, 2% duplicate, 20% extra delay). Enables 250ms request \
           timeouts and client retries.")

let fault_seed_arg =
  Arg.(
    value
    & opt int 1299709
    & info [ "fault-seed" ] ~docv:"SEED"
        ~doc:"Seed for the fault-injection stream (independent of the latency stream).")

let faults_of = function
  | `None -> None
  | `Light ->
    Some
      (Core.Sim.Network.Faults.profile ~drop:0.01 ~duplicate:0.005 ~delay_probability:0.05
         ~max_extra_delay:0.02 ())
  | `Heavy ->
    Some
      (Core.Sim.Network.Faults.profile ~drop:0.05 ~duplicate:0.02 ~delay_probability:0.2
         ~max_extra_delay:0.1 ())

let pp_network_counters resource =
  let network = Core.Gram.Resource.network resource in
  Printf.printf "network: %d sent, %d dropped, %d duplicated, %d delayed\n"
    (Core.Sim.Network.messages_sent network)
    (Core.Sim.Network.messages_dropped network)
    (Core.Sim.Network.messages_duplicated network)
    (Core.Sim.Network.messages_delayed network)

(* --- commands --------------------------------------------------------- *)

let check_cmd =
  let run paths =
    try
      List.iter
        (fun path ->
          let text = read_file path in
          match parse_policy_text text with
          | Error m ->
            Printf.printf "%s: PARSE ERROR: %s\n" path m;
            exit 1
          | Ok policy -> begin
            match Grid_policy.Eval.validate policy with
            | Error m ->
              Printf.printf "%s: INVALID: %s\n" path m;
              exit 1
            | Ok () ->
              Printf.printf "%s: ok (%d statements)\n" path (List.length policy)
          end)
        paths
    with Failure m ->
      prerr_endline m;
      exit 1
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Parse and validate policy files.")
    Term.(const run $ policy_files)

let show_cmd =
  let run paths =
    try
      List.iter
        (fun path ->
          let sources = load_sources [ path ] in
          List.iter
            (fun (s : Grid_policy.Combine.source) ->
              Printf.printf "# %s\n%s\n" s.Grid_policy.Combine.name
                (Grid_policy.Types.to_string s.Grid_policy.Combine.policy))
            sources)
        paths
    with Failure m ->
      prerr_endline m;
      exit 1
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Parse and pretty-print policy files.")
    Term.(const run $ policy_files)

let eval_cmd =
  let run subject action rsl jobowner jobtag explain paths =
    try
      let sources = load_sources paths in
      let subject = Grid_gsi.Dn.parse subject in
      let request =
        match (action, rsl) with
        | Grid_policy.Types.Action.Start, Some rsl ->
          Grid_policy.Types.start_request ~subject
            ~job:(Grid_rsl.Parser.parse_clause_exn rsl)
        | Grid_policy.Types.Action.Start, None ->
          failwith "start requests need --rsl"
        | action, _ ->
          let jobowner =
            match jobowner with
            | Some o -> Grid_gsi.Dn.parse o
            | None -> failwith "management requests need --jobowner"
          in
          Grid_policy.Types.management_request ~subject ~action ~jobowner ~jobtag
      in
      if explain then
        List.iter
          (fun (name, decision) ->
            Printf.printf "%-30s %s\n" name (Grid_policy.Eval.decision_to_string decision))
          (Grid_policy.Combine.evaluate_all sources request);
      let combined = Grid_policy.Combine.evaluate sources request in
      Printf.printf "%s\n" (Grid_policy.Combine.decision_to_string combined);
      exit (if Grid_policy.Combine.is_permit combined then 0 else 1)
    with
    | Failure m | Grid_rsl.Parser.Error m ->
      prerr_endline m;
      exit 2
    | Grid_gsi.Dn.Parse_error m ->
      prerr_endline ("bad DN: " ^ m);
      exit 2
  in
  Cmd.v
    (Cmd.info "eval" ~doc:"Evaluate a request against one or more policy files.")
    Term.(const run $ subject $ action $ rsl $ jobowner $ jobtag $ explain $ policy_files)

let rights_cmd =
  let run subject paths =
    try
      let sources = load_sources paths in
      let subject = Grid_gsi.Dn.parse subject in
      List.iter
        (fun (s : Grid_policy.Combine.source) ->
          Printf.printf "# source: %s\n" s.Grid_policy.Combine.name;
          Fmt.pr "%a@." Grid_policy.Query.pp_rights
            (s.Grid_policy.Combine.policy, subject))
        sources
    with
    | Failure m ->
      prerr_endline m;
      exit 2
    | Grid_gsi.Dn.Parse_error m ->
      prerr_endline ("bad DN: " ^ m);
      exit 2
  in
  Cmd.v
    (Cmd.info "rights" ~doc:"Report what a subject may do under each policy source.")
    Term.(const run $ subject $ policy_files)

let lint_cmd =
  let run paths =
    try
      let any_errors = ref false in
      List.iter
        (fun path ->
          let text = read_file path in
          match parse_policy_text text with
          | Error m ->
            Printf.printf "%s: PARSE ERROR: %s\n" path m;
            any_errors := true
          | Ok policy -> begin
            match Grid_policy.Lint.lint policy with
            | [] -> Printf.printf "%s: clean (%d statements)\n" path (List.length policy)
            | findings ->
              List.iter
                (fun f ->
                  Printf.printf "%s: %s\n" path (Grid_policy.Lint.finding_to_string f))
                findings;
              if Grid_policy.Lint.has_errors findings then any_errors := true
          end)
        paths;
      exit (if !any_errors then 1 else 0)
    with Failure m ->
      prerr_endline m;
      exit 2
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Diagnose unsatisfiable, dead or over-broad policy (exit 1 on errors, 0 on \
          clean/warnings).")
    Term.(const run $ policy_files)

(* Shared by simulate and journal: durable-store options. *)
let snapshot_every_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "snapshot-every" ] ~docv:"N"
        ~doc:
          "Compact the job-manager journal into a snapshot after every $(docv) appends \
           (implies a durable store).")

let crash_at_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "crash-at" ] ~docv:"SECONDS"
        ~doc:
          "Kill the job manager at simulated time $(docv) and restart it from snapshot + \
           journal (implies a durable store).")

let print_recovery (r : Core.Gram.Resource.recovery_summary) =
  Printf.printf
    "recovery: %d jobs restored from %d records (%d tail bytes dropped, %d stale-epoch \
     jobs, %d undecodable)\n"
    r.Core.Gram.Resource.jobs_restored r.Core.Gram.Resource.records_replayed
    r.Core.Gram.Resource.dropped_bytes r.Core.Gram.Resource.stale_epoch_jobs
    r.Core.Gram.Resource.decode_failures

let print_store_summary resource =
  match Core.Gram.Resource.store resource with
  | None -> ()
  | Some store ->
    Printf.printf "store: %d journal appends, %d snapshots, %d journal bytes\n"
      (Core.Store.Store.appends store)
      (Core.Store.Store.snapshots_taken store)
      (Core.Store.Store.journal_bytes store)

(* Shared by simulate and soak: the batch decision pipeline knob. *)
let batch_arg =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg "expected a batch size >= 1")
  in
  let print ppf n = Fmt.int ppf n in
  Arg.(
    value
    & opt (conv (parse, print)) 1
    & info [ "batch" ] ~docv:"N"
        ~doc:
          "Coalesce management follow-ups and authorize them $(docv) at a time through \
           the batch decision pipeline; 1 (the default) keeps the per-request path.")

(* Shared by simulate and soak: the STS token layer. *)
let tokens_arg =
  let parse s =
    match Core.Sts.Validator.mode_of_string s with
    | Some m -> Ok m
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown token revocation mode %S (expected one of: %s)" s
             (String.concat ", "
                (List.map Core.Sts.Validator.mode_to_string
                   Core.Sts.Validator.all_modes))))
  in
  let print ppf m = Fmt.string ppf (Core.Sts.Validator.mode_to_string m) in
  Arg.(
    value
    & opt (some (conv (parse, print))) None
    & info [ "tokens" ] ~docv:"MODE"
        ~doc:
          "Route every request through STS capability tokens, with revocation \
           distributed per $(docv): short-ttl (stateless, expiry is the \
           enforcement), push (in-band deltas over the network) or pull \
           (periodic CRL fetch from disk).")

(* Shared by simulate and soak: federation size. *)
let resources_arg =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg "expected a resource count >= 1")
  in
  Arg.(
    value
    & opt (conv (parse, Fmt.int)) 1
    & info [ "resources" ] ~docv:"N"
        ~doc:
          "Federate $(docv) gatekeeper-fronted resources behind one MDS directory and \
           broker; 1 (the default) keeps the single-site path.")

let simulate_cmd =
  let jobs =
    Arg.(value & opt int 200 & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Jobs to generate.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed.") in
  let population =
    Arg.(
      value
      & opt int 0
      & info [ "population" ] ~docv:"M"
          ~doc:
            "Draw subjects zipfian from a synthesized population of $(docv) distinct \
             DNs (policy via per-group DN-prefix grants, dynamic account leases) \
             instead of the Figure 3 cast. Implies the fleet path.")
  in
  let baseline =
    Arg.(value & flag & info [ "baseline" ] ~doc:"Run unmodified GT2 instead of extended GRAM.")
  in
  let pep =
    Arg.(
      value
      & opt
          (enum [ ("flat-file", `Flat_file); ("baseline", `Baseline); ("rebac", `Rebac) ])
          `Flat_file
      & info [ "pep" ] ~docv:"BACKEND"
          ~doc:
            "Authorization backend: flat-file (the compiled policy index), rebac (the \
             relationship-based tuple graph over the same policies) or baseline \
             (unmodified GT2; same as --baseline).")
  in
  let run jobs seed baseline pep faults fault_seed snapshot_every crash_at batch
      resources population tokens =
    let backend = if baseline then `Baseline else pep in
    let baseline = backend = `Baseline in
    if baseline && Option.is_some tokens then
      failwith "simulate: --tokens needs the extended backends";
    let faults = faults_of faults in
    (* Faulty networks need bounded requests: without a timeout a dropped
       reply would leave the workload hanging forever. *)
    let request_timeout = Option.map (fun _ -> 0.25) faults in
    let store = Option.is_some snapshot_every || Option.is_some crash_at in
    if resources > 1 || population > 0 then begin
      (* The federated path: a fleet of full members behind one MDS, the
         population synthesizer as subject source, placement through the
         broker's asynchronous lane. *)
      if baseline then
        failwith "simulate: --resources/--population need the extended backends";
      if Option.is_some snapshot_every || Option.is_some crash_at then
        failwith "simulate: --snapshot-every/--crash-at apply to the single-site path";
      let population = if population > 0 then population else 100_000 in
      let pop = Core.Population.create ~seed:(seed + 7) ~size:population in
      let w =
        Core.Fusion.build ~backend ~nodes:8 ~cpus_per_node:8 ?faults ~fault_seed
          ?request_timeout ~fleet:resources ~population:pop ~broker_seed:seed
          ?sts:tokens ()
      in
      let fleet = Option.get w.Core.Fusion.fleet in
      Printf.printf
        "Simulating %d jobs across %d resources, population %d (%s mode, seed %d)...\n"
        jobs resources population
        (match backend with `Rebac -> "extended, rebac PEP" | _ -> "extended")
        seed;
      let stats =
        Core.Workload.run_population ?sts:w.Core.Fusion.sts ~fleet ~population:pop
          ~ca:(Core.Testbed.ca w.Core.Fusion.testbed)
          { Core.Workload.default_population_config with
            Core.Workload.pop_job_count = jobs;
            pop_seed = seed;
            pop_management_batch = batch }
      in
      Fmt.pr "%a@." Core.Workload.pp_population_stats stats;
      (match
         ( Core.Workload.latency_percentile stats 0.5,
           Core.Workload.latency_percentile stats 0.99 )
       with
      | Some p50, Some p99 ->
        Printf.printf "placement latency: p50 %.3fs, p99 %.3fs (simulated)\n" p50 p99
      | _ -> ());
      List.iter
        (fun m ->
          let name = Core.Fleet.member_name m in
          let accepted =
            Option.value
              (Hashtbl.find_opt stats.Core.Workload.per_resource_accepted name)
              ~default:0
          in
          Printf.printf "  %s: accepted %d, policy epoch %d\n" name accepted
            (Core.Fleet.member_epoch m))
        (Core.Fleet.members fleet)
    end
    else begin
    let w =
      Core.Fusion.build ~backend ~nodes:8 ~cpus_per_node:8 ?faults ~fault_seed
        ?request_timeout ~store ?snapshot_every ?sts:tokens ()
    in
    (* A crash mid-workload: the job manager dies (in-memory JMIs lost,
       unsynced journal tail lost per the disk fault profile) and restarts
       immediately, replaying snapshot + journal before the next request
       arrives. *)
    (match crash_at with
    | None -> ()
    | Some at ->
      Core.Sim.Engine.schedule_at
        (Core.Testbed.engine w.Core.Fusion.testbed)
        at
        (fun () ->
          Printf.printf "t=%.3fs: job manager crash + restart\n" at;
          Core.Gram.Resource.crash w.Core.Fusion.resource;
          print_recovery (Core.Gram.Resource.recover w.Core.Fusion.resource)));
    let templates_bo =
      if baseline then
        [ "&(executable=test1)(directory=/sandbox/test)(count=2)(simduration=40)" ]
      else
        [ "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=2)(simduration=40)";
          "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=4)";
          "&(executable=test1)(directory=/sandbox/test)" ]
    in
    let templates_kate =
      if baseline then
        [ "&(executable=TRANSP)(directory=/sandbox/test)(simduration=120)" ]
      else
        [ "&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)(count=4)(simduration=120)" ]
    in
    let profiles =
      [ { Core.Workload.identity = Core.Gram.Client.identity w.Core.Fusion.bo;
          rsl_templates = templates_bo;
          weight = 3 };
        { Core.Workload.identity = Core.Gram.Client.identity w.Core.Fusion.kate;
          rsl_templates = templates_kate;
          weight = 2 } ]
    in
    Printf.printf "Simulating %d jobs on the fusion testbed (%s mode, seed %d)...\n" jobs
      (match backend with
      | `Baseline -> "GT2 baseline"
      | `Rebac -> "extended, rebac PEP"
      | _ -> "extended")
      seed;
    let stats =
      Core.Workload.run ?sts:w.Core.Fusion.sts
        ~engine:(Core.Testbed.engine w.Core.Fusion.testbed)
        ~resource:w.Core.Fusion.resource ~profiles
        { Core.Workload.default_config with
          Core.Workload.job_count = jobs;
          seed;
          management_batch = batch }
    in
    Fmt.pr "%a@." Core.Workload.pp_stats stats;
    if Option.is_some faults then pp_network_counters w.Core.Fusion.resource;
    print_store_summary w.Core.Fusion.resource;
    let audit = Core.Gram.Resource.audit w.Core.Fusion.resource in
    Printf.printf "audit records: %d (%d failures)\n\n"
      (Core.Audit.Audit.count audit)
      (Core.Audit.Audit.failure_count audit);
    Fmt.pr "%a@." Core.Audit.Reports.pp audit
    end
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Run a synthetic workload against the National Fusion Collaboratory testbed.")
    Term.(
      const run $ jobs $ seed $ baseline $ pep $ faults_arg $ fault_seed_arg
      $ snapshot_every_arg $ crash_at_arg $ batch_arg $ resources_arg $ population
      $ tokens_arg)

(* A short deterministic scenario on the fusion testbed so every decision
   point fires: permitted and denied submissions, a third-party cancel,
   and jobs running to completion. With --faults, requests run under
   250ms timeouts and management goes through the retrying client path,
   so retry/timeout/fault counters light up. Shared by `metrics` (which
   renders counters) and `trace export` (which renders spans). *)
let fusion_scenario ?authz_cache ~faults ~fault_seed () =
  let faults = faults_of faults in
  let request_timeout = Option.map (fun _ -> 0.25) faults in
  let w =
    Core.Fusion.build ~nodes:4 ~cpus_per_node:8 ?faults ~fault_seed ?request_timeout
      ?authz_cache ()
  in
  let submit client rsl = Core.Gram.Client.submit_sync client ~rsl in
  (* With a decision cache, poll each job's status a few times: the
     repeated identical queries are what the cache exists to absorb. *)
  let poll_status client contact =
    if Option.is_some authz_cache && Option.is_none faults then
      for _ = 1 to 3 do
        ignore (Core.Gram.Client.manage_sync client ~contact Core.Gram.Protocol.Status)
      done
  in
  let cancel client contact =
    match faults with
    | None -> ignore (Core.Gram.Client.manage_sync client ~contact Core.Gram.Protocol.Cancel)
    | Some _ ->
      ignore
        (Core.Gram.Client.manage_with_retry_sync ~deadline:30.0 client ~contact
           Core.Gram.Protocol.Cancel)
  in
  let status_with_retry client contact =
    if Option.is_some faults then
      ignore
        (Core.Gram.Client.manage_with_retry_sync ~deadline:30.0 client ~contact
           Core.Gram.Protocol.Status)
  in
  (match
     submit w.Core.Fusion.bo
       "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=2)(simduration=40)"
   with
  | Ok reply ->
    status_with_retry w.Core.Fusion.bo reply.Core.Gram.Protocol.job_contact;
    poll_status w.Core.Fusion.bo reply.Core.Gram.Protocol.job_contact
  | Error _ -> ());
  (* denied: developers are capped at count <= 4 *)
  ignore
    (submit w.Core.Fusion.bo
       "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=6)");
  (* denied: analysts may not run test1 *)
  ignore
    (submit w.Core.Fusion.kate
       "&(executable=test1)(directory=/sandbox/test)(jobtag=NFC)");
  (match
     submit w.Core.Fusion.kate
       "&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)(count=4)(simduration=120)"
   with
  | Ok reply ->
    status_with_retry w.Core.Fusion.kate reply.Core.Gram.Protocol.job_contact;
    poll_status w.Core.Fusion.kate reply.Core.Gram.Protocol.job_contact;
    (* third-party management: the VO admin cancels Kate's job *)
    cancel w.Core.Fusion.vo_admin reply.Core.Gram.Protocol.job_contact
  | Error _ -> ());
  Core.Testbed.run w.Core.Fusion.testbed;
  (w, faults)

let metrics_cmd =
  let format =
    Arg.(
      value
      & opt (enum [ ("summary", `Summary); ("prom", `Prom); ("json", `Json) ]) `Summary
      & info [ "f"; "format" ] ~docv:"FORMAT"
          ~doc:"Output format: summary (human), prom (Prometheus text) or json.")
  in
  let spans =
    Arg.(value & flag & info [ "spans" ] ~doc:"Also print the span forest.")
  in
  let authz_cache_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "authz-cache" ] ~docv:"CAPACITY"
          ~doc:
            "Memoize authorization decisions in an LRU cache of $(docv) entries \
             (invalidated on policy reload and credential expiry); the scenario's \
             repeated status polls then surface as cache hits.")
  in
  let run format spans faults fault_seed authz_cache =
    let w, _faults = fusion_scenario ?authz_cache ~faults ~fault_seed () in
    let obs = Core.Gram.Resource.obs w.Core.Fusion.resource in
    (match format with
    | `Summary ->
      Fmt.pr "%a@." Core.Obs.Obs.pp_summary obs;
      (match Core.Gram.Resource.authz_cache w.Core.Fusion.resource with
      | Some cache -> Fmt.pr "@.%a@." Core.Callout.Cache.pp cache
      | None -> ())
    | `Prom -> print_string (Core.Obs.Metrics.to_prometheus (Core.Obs.Obs.metrics obs))
    | `Json -> print_endline (Core.Obs.Metrics.to_json (Core.Obs.Obs.metrics obs)));
    if spans then begin
      print_newline ();
      Fmt.pr "%a@." Core.Obs.Span.pp (Core.Obs.Obs.tracer obs)
    end
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run a short scenario on the fusion testbed and expose the collected metrics \
          (authorization decisions, per-stage latencies, LRM activity; with --faults, \
          retries/timeouts/fault counters).")
    Term.(const run $ format $ spans $ faults_arg $ fault_seed_arg $ authz_cache_arg)

let convert_cmd =
  let syntax =
    Arg.(
      required
      & opt (some (enum [ ("rsl", `Rsl); ("xml", `Xml) ])) None
      & info [ "t"; "to" ] ~docv:"SYNTAX" ~doc:"Target syntax: rsl or xml.")
  in
  let run target paths =
    try
      List.iter
        (fun path ->
          let text = read_file path in
          match parse_policy_text text with
          | Error m -> failwith (path ^ ": " ^ m)
          | Ok policy -> begin
            match target with
            | `Rsl -> print_endline (Grid_policy.Types.to_string policy)
            | `Xml ->
              print_string
                (Grid_policy.Xacml.to_string
                   ~policy_id:(Filename.remove_extension (Filename.basename path))
                   policy)
          end)
        paths
    with Failure m ->
      prerr_endline m;
      exit 1
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:"Convert policies between the RSL-based and XACML-style syntaxes.")
    Term.(const run $ syntax $ policy_files)

(* The journal commands run a small deterministic fusion workload against
   a durable job manager, then inspect what landed on the simulated disk.
   Everything is seed-driven, so the output is reproducible. *)
let journal_scenario ~jobs ~seed ~snapshot_every ~crash_at () =
  let w = Core.Fusion.build ~store:true ?snapshot_every () in
  (match crash_at with
  | None -> ()
  | Some at ->
    Core.Sim.Engine.schedule_at
      (Core.Testbed.engine w.Core.Fusion.testbed)
      at
      (fun () ->
        Core.Gram.Resource.crash w.Core.Fusion.resource;
        ignore (Core.Gram.Resource.recover w.Core.Fusion.resource)));
  let profiles =
    [ { Core.Workload.identity = Core.Gram.Client.identity w.Core.Fusion.bo;
        rsl_templates =
          [ "&(executable=test1)(directory=/sandbox/test)(jobtag=ADS)(count=2)(simduration=40)";
            "&(executable=test1)(directory=/sandbox/test)" ];
        weight = 3 };
      { Core.Workload.identity = Core.Gram.Client.identity w.Core.Fusion.kate;
        rsl_templates =
          [ "&(executable=TRANSP)(directory=/sandbox/test)(jobtag=NFC)(count=4)(simduration=120)" ];
        weight = 2 } ]
  in
  ignore
    (Core.Workload.run
       ~engine:(Core.Testbed.engine w.Core.Fusion.testbed)
       ~resource:w.Core.Fusion.resource ~profiles
       { Core.Workload.default_config with Core.Workload.job_count = jobs; seed });
  w

let journal_jobs_arg =
  Arg.(value & opt int 12 & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Jobs to generate.")

let journal_seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed.")

let journal_show_cmd =
  let run jobs seed snapshot_every crash_at =
    let w = journal_scenario ~jobs ~seed ~snapshot_every ~crash_at () in
    match Core.Gram.Resource.store w.Core.Fusion.resource with
    | None -> ()
    | Some store ->
      let disk = Core.Store.Store.disk store in
      let show file =
        let r = Core.Store.Journal.replay ~disk ~file in
        Printf.printf "# %s: %d records\n" file (List.length r.Core.Store.Journal.records);
        List.iter
          (fun frame ->
            let payload = Core.Store.Journal.payload frame in
            match Core.Gram.Persist.decode payload with
            | Ok event -> Fmt.pr "%a@." Core.Gram.Persist.pp_event event
            | Error _ -> Printf.printf "  (meta) %s\n" payload)
          r.Core.Store.Journal.records
      in
      show (Core.Store.Store.snapshot_file store);
      show (Core.Store.Store.journal_file store);
      print_store_summary w.Core.Fusion.resource
  in
  Cmd.v
    (Cmd.info "show"
       ~doc:"Run a deterministic durable workload and print the decoded journal/snapshot.")
    Term.(
      const run $ journal_jobs_arg $ journal_seed_arg $ snapshot_every_arg $ crash_at_arg)

let journal_verify_cmd =
  let run jobs seed snapshot_every crash_at =
    let w = journal_scenario ~jobs ~seed ~snapshot_every ~crash_at () in
    match Core.Gram.Resource.store w.Core.Fusion.resource with
    | None -> ()
    | Some store ->
      let checks = Core.Store.Store.verify store in
      List.iter (fun check -> Fmt.pr "%a@." Core.Store.Store.pp_check check) checks;
      let corrupt =
        List.exists
          (fun c -> Option.is_some c.Core.Store.Store.check_corruption)
          checks
      in
      exit (if corrupt then 1 else 0)
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Run a deterministic durable workload and scan the store's files end to end, \
          exiting 1 on any framing/checksum corruption.")
    Term.(
      const run $ journal_jobs_arg $ journal_seed_arg $ snapshot_every_arg $ crash_at_arg)

let journal_cmd =
  Cmd.group
    (Cmd.info "journal" ~doc:"Inspect the durable job-manager journal and snapshot.")
    [ journal_show_cmd; journal_verify_cmd ]

let soak_cmd =
  let days_arg =
    Arg.(
      value & opt float 3.0
      & info [ "days" ] ~docv:"DAYS" ~doc:"Campaign length in simulated days.")
  in
  let jobs_per_day_arg =
    Arg.(
      value & opt int 400
      & info [ "jobs-per-day" ] ~docv:"N" ~doc:"Baseline Poisson arrival volume per day.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Campaign seed.")
  in
  let soak_faults_arg =
    Arg.(
      value
      & opt
          (enum
             [ ("none", Core.Soak.No_faults); ("light", Core.Soak.Light);
               ("heavy", Core.Soak.Heavy) ])
          Core.Soak.Light
      & info [ "faults" ] ~docv:"PROFILE"
          ~doc:
            "Chaos level: none, light (1% drops, mild delays) or heavy (5% drops, heavy \
             delays, torn writes on the store's disk).")
  in
  let inject_arg =
    let parse s =
      match Core.Obs.Monitor.class_of_string s with
      | Some c -> Ok c
      | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown violation class %S (expected one of: %s)" s
               (String.concat ", "
                  (List.map Core.Obs.Monitor.class_to_string Core.Obs.Monitor.all_classes))))
    in
    let print ppf c = Fmt.string ppf (Core.Obs.Monitor.class_to_string c) in
    Arg.(
      value
      & opt (some (conv (parse, print))) None
      & info [ "inject-violation" ] ~docv:"CLASS"
          ~doc:
            "Self-test mode: provoke exactly this violation class (default_deny, \
             stale_epoch, expired_credential, recovery_divergence, fail_open_upgrade, \
             token_revocation) and require the monitor to report it — and nothing \
             else.")
  in
  let no_monitor_arg =
    Arg.(
      value & flag
      & info [ "no-monitor" ]
          ~doc:"Run without the safety monitor (overhead baselines only).")
  in
  let window_arg =
    Arg.(
      value & opt float 300.0
      & info [ "propagation-window" ] ~docv:"SECONDS"
          ~doc:
            "Grace period after a revocation or policy-epoch change before decisions \
             against the old state count as violations.")
  in
  let pep_arg =
    Arg.(
      value
      & opt
          (enum
             [ ("flat-file", Core.Soak.Flat_file_pep); ("rebac", Core.Soak.Rebac_pep) ])
          Core.Soak.Flat_file_pep
      & info [ "pep" ] ~docv:"BACKEND"
          ~doc:
            "Authorization backend under soak: flat-file (compiled policy index) or \
             rebac (relationship-based tuple graph). The monitor's oracle re-derives \
             decisions through the matching engine either way.")
  in
  let run days jobs_per_day seed faults inject no_monitor window pep batch resources
      tokens =
    let report =
      Core.Soak.run
        { Core.Soak.days; jobs_per_day; seed; faults; monitor = not no_monitor;
          inject; propagation_window = window; pep; batch; resources; tokens }
    in
    Fmt.pr "%a@." Core.Soak.pp_report report;
    match inject with
    | None ->
      if report.Core.Soak.violations <> [] then begin
        Fmt.epr "soak: %d unexpected safety violation(s)@."
          (List.length report.Core.Soak.violations);
        exit 1
      end
    | Some expected -> begin
      match Core.Soak.violation_classes report with
      | [ actual ] when actual = expected ->
        Fmt.pr "self-test: injected %s detected@."
          (Core.Obs.Monitor.class_to_string expected)
      | classes ->
        Fmt.epr "self-test FAILED: injected %s, monitor reported [%s]@."
          (Core.Obs.Monitor.class_to_string expected)
          (String.concat "; " (List.map Core.Obs.Monitor.class_to_string classes));
        exit 1
    end
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Run a multi-day chaos campaign — credential renewal/revocation, policy churn, \
          job-manager crashes, network/disk faults — under the online safety monitor. \
          Exits 1 on any safety violation (or, with --inject-violation, unless exactly \
          the injected class is detected).")
    Term.(
      const run $ days_arg $ jobs_per_day_arg $ seed_arg $ soak_faults_arg $ inject_arg
      $ no_monitor_arg $ window_arg $ pep_arg $ batch_arg $ resources_arg $ tokens_arg)

let trace_export_cmd =
  let output_arg =
    Arg.(
      value
      & opt string "trace.json"
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Output path for the Chrome trace_event JSON ('-' for stdout).")
  in
  let run output faults fault_seed authz_cache =
    let w, _ = fusion_scenario ?authz_cache ~faults ~fault_seed () in
    let obs = Core.Gram.Resource.obs w.Core.Fusion.resource in
    let json = Core.Obs.Span.to_chrome_json (Core.Obs.Obs.tracer obs) in
    if output = "-" then print_string json
    else begin
      let oc = open_out output in
      output_string oc json;
      close_out oc;
      Printf.printf "wrote %s (%d spans); open in chrome://tracing or Perfetto\n" output
        (List.length (Core.Obs.Span.spans (Core.Obs.Obs.tracer obs)))
    end
  in
  let authz_cache_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "authz-cache" ] ~docv:"CAPACITY"
          ~doc:"Enable the authorization decision cache for the traced scenario.")
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:
         "Run the short fusion scenario and export its span tree as Chrome trace_event \
          JSON (chrome://tracing / Perfetto; ts/dur in microseconds of simulated time).")
    Term.(const run $ output_arg $ faults_arg $ fault_seed_arg $ authz_cache_arg)

let trace_cmd =
  Cmd.group
    (Cmd.info "trace" ~doc:"Export request traces for external viewers.")
    [ trace_export_cmd ]

let figure3_cmd =
  let run () =
    print_endline Grid_policy.Figure3.text;
    let policy = Grid_policy.Figure3.get () in
    Printf.printf "(%d statements, validates: %b)\n" (List.length policy)
      (Result.is_ok (Grid_policy.Eval.validate policy))
  in
  Cmd.v
    (Cmd.info "figure3" ~doc:"Print the paper's Figure 3 example policy.")
    Term.(const run $ const ())

let () =
  let info =
    Cmd.info "gridctl" ~version:Core.version
      ~doc:"Fine-grain authorization policies for grid resource management."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ check_cmd; show_cmd; eval_cmd; convert_cmd; lint_cmd; rights_cmd;
            simulate_cmd; metrics_cmd; journal_cmd; soak_cmd; trace_cmd; figure3_cmd ]))

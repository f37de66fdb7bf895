(* The repository benchmark: three host-timed GRAM workloads.

     perfbench --workload site_days|manage_storm|fleet_population
               --seed N --seconds S --trace 0|1
     perfbench --self-test

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics. With --trace 0 the metrics
   are the end-to-end metrics, measured untraced; with --trace 1 they
   are the per-layer metrics of a traced run, and the raw spans are
   written under _perfbench_out/. Every reply is checked against the
   reference evaluator; any mismatch, or a request not accounted for,
   exits with code 1 after naming the request on standard error. *)

let workloads =
  [ ("site_days", Site_days.episode ?days:None ?plant:None);
    ("manage_storm", Manage_storm.episode);
    ("fleet_population", Fleet_population.episode) ]

let usage () =
  prerr_endline
    "usage: perfbench --workload <site_days|manage_storm|fleet_population> --seed N \
     --seconds S --trace 0|1\n       perfbench --self-test";
  exit 2

let m = Harness.m
let us x = x *. 1e6

let end_to_end () =
  let across = Harness.across in
  [ ("setup_s", across (fun e -> e.setup_s), "s");
    ("req_per_s", across (fun e -> e.req_per_s), "req/s");
    ("submit_p50_us", us (across (fun e -> e.submit_p50)), "us");
    ("submit_p90_us", us (across (fun e -> e.submit_p90)), "us");
    ("manage_p50_us", us (across (fun e -> e.manage_p50)), "us");
    ("manage_p90_us", us (across (fun e -> e.manage_p90)), "us");
    ("answered_ratio", float_of_int m.answered /. float_of_int m.attempted, "ratio");
    ("live_heap_mb", across (fun e -> e.live_heap_mb), "MB");
    ("cost_growth", across (fun e -> e.growth), "ratio") ]

(* Counts are per episode, and an episode is a fixed amount of work, so
   they do not depend on how many episodes a run fits. *)
let per_layer () =
  let get = Harness.Counters.get in
  let spans = Harness.Trace.summaries () in
  let span = Harness.Trace.find spans in
  let requests = float_of_int (max 1 m.attempted) in
  let episodes = float_of_int (List.length m.episodes) in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let per_episode name = ratio (get name) episodes in
  let calls_per_episode name = ratio (float_of_int (span name).calls) episodes in
  let mean_us name = let s = span name in us (ratio s.total_s (float_of_int s.calls)) in
  let self_us name = let s = span name in us (ratio s.self_s (float_of_int s.calls)) in
  let gram_words =
    (span "gram.submit").minor_words +. (span "gram.manage").minor_words
    +. (span "gram.manage_batch").minor_words
  in
  let program_words, program_majors = Harness.Trace.program_gc () in
  let decisions = get "callout.decisions" in
  let hits = get "cache.hits" and misses = get "cache.misses" in
  [ ("gsi.mint_calls", calls_per_episode "gsi.mint", "count");
    ("gsi.mint_us", mean_us "gsi.mint", "us");
    ("sts.exchange_calls", calls_per_episode "sts.exchange", "count");
    ("sts.exchange_us", mean_us "sts.exchange", "us");
    ("sts.revoked_entries", per_episode "sts.revoked_entries", "count");
    ("sts.state_bytes", per_episode "sts.state_bytes", "bytes");
    ("sts.deliveries", per_episode "sts.deliveries", "count");
    ("sts.revocation_p99_s", Harness.quantile_of_list !Harness.revocation_latencies 0.99, "sim_s");
    ("callout.calls", per_episode "callout.calls", "count");
    ("callout.decisions", per_episode "callout.decisions", "count");
    ("callout.batch_mean", ratio decisions (get "callout.calls"), "count");
    ("callout.us_per_decision", us (ratio (span "callout").total_s decisions), "us");
    ("callout.share", ratio (span "callout").total_s m.program_s, "ratio");
    ("callout.permit_share", ratio (get "callout.permits") decisions, "ratio");
    ("cache.hit_rate", ratio hits (hits +. misses), "ratio");
    ("cache.hits", per_episode "cache.hits", "count");
    ("cache.misses", per_episode "cache.misses", "count");
    ("cache.invalidations", per_episode "cache.invalidations", "count");
    ("cache.evictions", per_episode "cache.evictions", "count");
    ("rebac.tuples", per_episode "rebac.tuples", "count");
    ("rebac.revision", per_episode "rebac.revision", "count");
    ("policy.reloads", per_episode "policy.reloads", "count");
    ("policy.reload_ms", 1e3 *. ratio (get "policy.reload_s") (get "policy.reloads"), "ms");
    ("gram.submit_self_us", self_us "gram.submit", "us");
    ("gram.manage_self_us",
      us
        (ratio
           ((span "gram.manage").self_s +. (span "gram.manage_batch").self_s)
           (float_of_int ((span "gram.manage").calls + (span "gram.manage_batch").calls))),
      "us");
    ("gram.jobs_resident", per_episode "gram.jobs_resident", "count");
    ("gram.words_per_req", ratio gram_words requests, "words");
    ("store.appends_per_req", ratio (get "store.appends") requests, "count");
    ("store.journal_bytes", per_episode "store.journal_bytes", "bytes");
    ("store.snapshots", per_episode "store.snapshots", "count");
    ("store.recover_records", per_episode "store.recover_records", "count");
    ("store.recover_p50_ms", 1e3 *. Harness.quantile_of_list !Harness.recoveries 0.5, "ms");
    ("sim.advance_share", ratio (span "sim.advance").total_s m.program_s, "ratio");
    ("sim.events_per_req", ratio (get "sim.events") requests, "count");
    ("sim.messages_per_req", ratio (get "sim.messages") requests, "count");
    ("lrm.jobs", per_episode "lrm.jobs", "count");
    ("mds.publications", per_episode "mds.publications", "count");
    ("fleet.routed_jobs", per_episode "fleet.routed_jobs", "count");
    ("fleet.unplaceable", per_episode "fleet.unplaceable", "count");
    ("audit.records", per_episode "audit.records", "count");
    ("audit.records_per_req", ratio (get "audit.records") requests, "count");
    ("gc.minor_words_per_req", ratio program_words requests, "words");
    ("gc.major_collections", ratio (float_of_int program_majors) episodes, "count");
    ("error_rate", ratio (float_of_int m.failed) requests, "ratio");
    ("trace.req_per_s", Harness.across (fun e -> e.req_per_s), "req/s") ]

let report_mismatches () =
  Harness.check_accounting ~context:"measured episodes";
  List.iter prerr_endline (List.rev m.mismatch_notes);
  m.mismatches = 0

let run ~workload ~seed ~seconds ~trace =
  let episode =
    match List.assoc_opt workload workloads with Some e -> e | None -> usage ()
  in
  Harness.Trace.enabled := trace;
  Harness.run_episodes ~seconds (episode ~seed ~trace);
  let correct = report_mismatches () in
  Printf.eprintf "%s seed %d: %d episodes, %d requests (%d failed), %d mismatches\n" workload
    seed (List.length m.episodes) m.attempted m.failed m.mismatches;
  let metrics =
    if trace then begin
      (try Sys.mkdir "_perfbench_out" 0o755 with Sys_error _ -> ());
      Harness.Trace.write
        ~path:(Printf.sprintf "_perfbench_out/spans-%s-%d.tsv" workload seed)
        ~limit:200_000;
      per_layer ()
    end
    else end_to_end ()
  in
  Harness.print_result ~correct metrics;
  if not correct then exit 1

(* The gate must not be vacuous: a short clean run has no mismatch, and
   the same run with a PEP that flips one denial into a permit must be
   caught. *)
let self_test () =
  Site_days.episode ~days:1.0 ~seed:7 ~trace:false 0;
  Harness.check_accounting ~context:"clean run";
  let clean = m.mismatches in
  let flipped = ref false in
  let plant (c : Core.Callout.Callout.t) : Core.Callout.Callout.t =
   fun q ->
    match c q with
    | Error (Core.Callout.Callout.Denied _) when not !flipped ->
      flipped := true;
      Core.Callout.Callout.permitted
    | d -> d
  in
  Site_days.episode ~days:1.0 ~plant ~seed:7 ~trace:false 1;
  let caught = m.mismatches - clean in
  let accounted = m.issued = m.attempted in
  Printf.printf
    "self-test: clean run %d mismatches; planted denial flip %s (%d mismatches); %d requests \
     sent, %d counted\n"
    clean
    (if !flipped && caught > 0 then "detected" else "MISSED")
    caught m.issued m.attempted;
  if clean <> 0 || not (!flipped && caught > 0) || not accounted then exit 1

let () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let self = ref false in
  let rec parse = function
    | [] -> ()
    | "--self-test" :: rest ->
      self := true;
      parse rest
    | "--workload" :: v :: rest ->
      workload := Some v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      parse rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_string_opt v;
      parse rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
      trace := Some (v = "1");
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !self then self_test ()
  else
    match (!workload, !seed, !seconds, !trace) with
    | Some workload, Some seed, Some seconds, Some trace -> run ~workload ~seed ~seconds ~trace
    | _ -> usage ()

(* Tests for grid_lrm: scheduling, lifecycle, suspension, walltime,
   priorities, invariants. *)

open Grid_sim

let make ?(nodes = 2) ?(cpus = 4) ?queues () =
  Grid_util.Ids.reset ();
  let engine = Engine.create () in
  let lrm = Grid_lrm.Lrm.create ?queues ~nodes ~cpus_per_node:cpus engine in
  (engine, lrm)

let spec ?(account = "user1") ?(cpus = 1) ?(duration = 10.0) ?walltime ?queue () =
  { Grid_lrm.Lrm.account; cpus; duration; walltime_limit = walltime; queue }

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected LRM error: %s" (Grid_lrm.Lrm.error_to_string e)

let state_of lrm id = (ok (Grid_lrm.Lrm.query lrm id)).Grid_lrm.Lrm.job_state

let check_state msg lrm id expected =
  Alcotest.(check string) msg
    (Grid_lrm.Lrm.state_to_string expected)
    (Grid_lrm.Lrm.state_to_string (state_of lrm id))

let test_submit_runs_and_completes () =
  let engine, lrm = make () in
  let id = ok (Grid_lrm.Lrm.submit lrm (spec ~duration:10.0 ())) in
  check_state "starts immediately" lrm id Grid_lrm.Lrm.Running;
  Engine.run_until engine 5.0;
  check_state "still running" lrm id Grid_lrm.Lrm.Running;
  Engine.run_until engine 10.5;
  check_state "completed" lrm id Grid_lrm.Lrm.Completed;
  Alcotest.(check int) "cpus freed" 0 (Grid_lrm.Lrm.cpus_in_use lrm)

let test_queueing_when_full () =
  let engine, lrm = make ~nodes:1 ~cpus:2 () in
  let a = ok (Grid_lrm.Lrm.submit lrm (spec ~cpus:2 ~duration:10.0 ())) in
  let b = ok (Grid_lrm.Lrm.submit lrm (spec ~cpus:2 ~duration:5.0 ())) in
  check_state "a running" lrm a Grid_lrm.Lrm.Running;
  check_state "b pending" lrm b Grid_lrm.Lrm.Pending;
  Engine.run_until engine 10.5;
  check_state "a done" lrm a Grid_lrm.Lrm.Completed;
  check_state "b now running" lrm b Grid_lrm.Lrm.Running;
  Engine.run engine;
  check_state "b done" lrm b Grid_lrm.Lrm.Completed

let test_jobs_span_nodes () =
  let _, lrm = make ~nodes:2 ~cpus:4 () in
  let id = ok (Grid_lrm.Lrm.submit lrm (spec ~cpus:6 ~duration:5.0 ())) in
  check_state "6-cpu job spans two 4-cpu nodes" lrm id Grid_lrm.Lrm.Running;
  Alcotest.(check int) "six in use" 6 (Grid_lrm.Lrm.cpus_in_use lrm);
  Alcotest.(check bool) "invariant" true (Grid_lrm.Lrm.invariant_holds lrm)

let test_too_many_cpus_rejected () =
  let _, lrm = make ~nodes:1 ~cpus:2 () in
  match Grid_lrm.Lrm.submit lrm (spec ~cpus:3 ()) with
  | Error (Grid_lrm.Lrm.Too_many_cpus _) -> ()
  | _ -> Alcotest.fail "oversized job accepted"

let test_unknown_queue_rejected () =
  let _, lrm = make () in
  match Grid_lrm.Lrm.submit lrm (spec ~queue:"nope" ()) with
  | Error (Grid_lrm.Lrm.Unknown_queue "nope") -> ()
  | _ -> Alcotest.fail "unknown queue accepted"

let test_cancel_pending_and_running () =
  let engine, lrm = make ~nodes:1 ~cpus:1 () in
  let a = ok (Grid_lrm.Lrm.submit lrm (spec ~duration:10.0 ())) in
  let b = ok (Grid_lrm.Lrm.submit lrm (spec ~duration:10.0 ())) in
  ignore (ok (Grid_lrm.Lrm.cancel lrm b));
  check_state "pending job cancelled" lrm b Grid_lrm.Lrm.Cancelled;
  ignore (ok (Grid_lrm.Lrm.cancel lrm a));
  check_state "running job cancelled" lrm a Grid_lrm.Lrm.Cancelled;
  Alcotest.(check int) "cpus freed" 0 (Grid_lrm.Lrm.cpus_in_use lrm);
  Engine.run engine;
  check_state "stays cancelled" lrm a Grid_lrm.Lrm.Cancelled;
  (* Cancelling again is an invalid transition. *)
  match Grid_lrm.Lrm.cancel lrm a with
  | Error (Grid_lrm.Lrm.Invalid_transition _) -> ()
  | _ -> Alcotest.fail "double cancel accepted"

let test_suspend_resume_preserves_progress () =
  let engine, lrm = make ~nodes:1 ~cpus:1 () in
  let id = ok (Grid_lrm.Lrm.submit lrm (spec ~duration:10.0 ())) in
  Engine.run_until engine 4.0;
  ignore (ok (Grid_lrm.Lrm.suspend lrm id));
  check_state "suspended" lrm id Grid_lrm.Lrm.Suspended;
  Alcotest.(check (float 1e-6)) "6s of compute left" 6.0
    (ok (Grid_lrm.Lrm.query lrm id)).Grid_lrm.Lrm.job_remaining;
  Alcotest.(check int) "cpus freed while suspended" 0 (Grid_lrm.Lrm.cpus_in_use lrm);
  Engine.run_until engine 100.0;
  check_state "stays suspended" lrm id Grid_lrm.Lrm.Suspended;
  ignore (ok (Grid_lrm.Lrm.resume lrm id));
  check_state "running again" lrm id Grid_lrm.Lrm.Running;
  Engine.run_until engine 105.9;
  check_state "not yet done" lrm id Grid_lrm.Lrm.Running;
  Engine.run_until engine 106.1;
  check_state "completed after remaining 6s" lrm id Grid_lrm.Lrm.Completed

let test_suspend_frees_capacity_for_other_jobs () =
  (* The SC02 scenario mechanics: suspending a long job lets a
     high-priority job run immediately. *)
  let engine, lrm = make ~nodes:1 ~cpus:2 () in
  let long = ok (Grid_lrm.Lrm.submit lrm (spec ~cpus:2 ~duration:1000.0 ())) in
  let urgent = ok (Grid_lrm.Lrm.submit lrm (spec ~cpus:2 ~duration:5.0 ())) in
  check_state "urgent waits" lrm urgent Grid_lrm.Lrm.Pending;
  ignore (ok (Grid_lrm.Lrm.suspend lrm long));
  check_state "urgent runs after suspension" lrm urgent Grid_lrm.Lrm.Running;
  Engine.run_until engine 6.0;
  check_state "urgent done" lrm urgent Grid_lrm.Lrm.Completed;
  ignore (ok (Grid_lrm.Lrm.resume lrm long));
  check_state "long resumes" lrm long Grid_lrm.Lrm.Running

let test_stale_completion_event_ignored () =
  (* Suspend before the original completion event fires: the stale event
     must not complete the job. *)
  let engine, lrm = make ~nodes:1 ~cpus:1 () in
  let id = ok (Grid_lrm.Lrm.submit lrm (spec ~duration:10.0 ())) in
  Engine.run_until engine 2.0;
  ignore (ok (Grid_lrm.Lrm.suspend lrm id));
  Engine.run_until engine 50.0;
  check_state "stale event did not complete the job" lrm id Grid_lrm.Lrm.Suspended

let test_walltime_kill () =
  let engine, lrm = make () in
  let id = ok (Grid_lrm.Lrm.submit lrm (spec ~duration:100.0 ~walltime:30.0 ())) in
  Engine.run_until engine 29.0;
  check_state "running before limit" lrm id Grid_lrm.Lrm.Running;
  Engine.run_until engine 31.0;
  match state_of lrm id with
  | Grid_lrm.Lrm.Killed _ -> ()
  | s -> Alcotest.failf "expected kill, got %s" (Grid_lrm.Lrm.state_to_string s)

let test_walltime_survives_suspension () =
  let engine, lrm = make () in
  let id = ok (Grid_lrm.Lrm.submit lrm (spec ~duration:100.0 ~walltime:30.0 ())) in
  Engine.run_until engine 20.0;
  ignore (ok (Grid_lrm.Lrm.suspend lrm id));
  Engine.run_until engine 500.0;
  ignore (ok (Grid_lrm.Lrm.resume lrm id));
  (* 20 s of the 30 s budget consumed; 10 left. *)
  Engine.run_until engine 509.0;
  check_state "within remaining budget" lrm id Grid_lrm.Lrm.Running;
  Engine.run_until engine 511.0;
  (match state_of lrm id with
  | Grid_lrm.Lrm.Killed _ -> ()
  | s -> Alcotest.failf "expected kill, got %s" (Grid_lrm.Lrm.state_to_string s))

let test_queue_walltime_cap () =
  let engine, lrm = make () in
  let id = ok (Grid_lrm.Lrm.submit lrm (spec ~duration:1e6 ~queue:"priority" ())) in
  (* default "priority" queue caps walltime at 7200 s *)
  Engine.run_until engine 7300.0;
  match state_of lrm id with
  | Grid_lrm.Lrm.Killed _ -> ()
  | s -> Alcotest.failf "expected queue-cap kill, got %s" (Grid_lrm.Lrm.state_to_string s)

let test_priority_queue_scheduled_first () =
  let engine, lrm = make ~nodes:1 ~cpus:1 () in
  let _running = ok (Grid_lrm.Lrm.submit lrm (spec ~duration:10.0 ())) in
  let batch = ok (Grid_lrm.Lrm.submit lrm (spec ~duration:5.0 ())) in
  let urgent = ok (Grid_lrm.Lrm.submit lrm (spec ~duration:5.0 ~queue:"priority" ())) in
  Engine.run_until engine 10.5;
  check_state "priority queue preempts batch in queue order" lrm urgent Grid_lrm.Lrm.Running;
  check_state "batch still waits" lrm batch Grid_lrm.Lrm.Pending

let test_set_priority_reorders () =
  let engine, lrm = make ~nodes:1 ~cpus:1 () in
  let _running = ok (Grid_lrm.Lrm.submit lrm (spec ~duration:10.0 ())) in
  let first = ok (Grid_lrm.Lrm.submit lrm (spec ~duration:5.0 ())) in
  let second = ok (Grid_lrm.Lrm.submit lrm (spec ~duration:5.0 ())) in
  ignore (ok (Grid_lrm.Lrm.set_priority lrm second 5));
  Engine.run_until engine 10.5;
  check_state "boosted job overtakes" lrm second Grid_lrm.Lrm.Running;
  check_state "first-come job waits" lrm first Grid_lrm.Lrm.Pending

let test_events_observed () =
  let engine, lrm = make () in
  let transitions = ref [] in
  Grid_lrm.Lrm.on_event lrm (fun (Grid_lrm.Lrm.State_changed { job; _ }) ->
      transitions := Grid_lrm.Lrm.state_to_string job.Grid_lrm.Lrm.state :: !transitions);
  let _id = ok (Grid_lrm.Lrm.submit lrm (spec ~duration:5.0 ())) in
  Engine.run engine;
  Alcotest.(check (list string)) "observed lifecycle" [ "pending"; "running"; "completed" ]
    (List.rev !transitions)

let test_zero_duration_job () =
  let engine, lrm = make () in
  let id = ok (Grid_lrm.Lrm.submit lrm (spec ~duration:0.0 ())) in
  Engine.run engine;
  check_state "zero-duration job completes" lrm id Grid_lrm.Lrm.Completed

let qcheck_no_oversubscription =
  QCheck.Test.make ~name:"scheduler never oversubscribes cpus" ~count:60
    QCheck.(pair (int_range 1 50) small_int)
    (fun (njobs, seed) ->
      Grid_util.Ids.reset ();
      let engine = Engine.create () in
      let lrm = Grid_lrm.Lrm.create ~nodes:3 ~cpus_per_node:4 engine in
      let rng = Grid_util.Rng.create ~seed in
      let ok = ref true in
      Grid_lrm.Lrm.on_event lrm (fun _ ->
          if not (Grid_lrm.Lrm.invariant_holds lrm) then ok := false);
      for _ = 1 to njobs do
        let cpus = 1 + Grid_util.Rng.int rng 12 in
        let duration = Grid_util.Rng.float rng 50.0 in
        ignore
          (Grid_lrm.Lrm.submit lrm
             { Grid_lrm.Lrm.account = "acct"; cpus; duration; walltime_limit = None;
               queue = None })
      done;
      Engine.run engine;
      !ok && Grid_lrm.Lrm.invariant_holds lrm && Grid_lrm.Lrm.cpus_in_use lrm = 0)

let qcheck_all_jobs_terminate =
  QCheck.Test.make ~name:"every accepted job reaches a terminal state" ~count:60
    QCheck.(pair (int_range 1 40) small_int)
    (fun (njobs, seed) ->
      Grid_util.Ids.reset ();
      let engine = Engine.create () in
      let lrm = Grid_lrm.Lrm.create ~nodes:2 ~cpus_per_node:4 engine in
      let rng = Grid_util.Rng.create ~seed in
      let ids = ref [] in
      for _ = 1 to njobs do
        let cpus = 1 + Grid_util.Rng.int rng 8 in
        let duration = Grid_util.Rng.float rng 20.0 in
        let walltime = if Grid_util.Rng.bool rng then Some (Grid_util.Rng.float rng 25.0) else None in
        match
          Grid_lrm.Lrm.submit lrm
            { Grid_lrm.Lrm.account = "acct"; cpus; duration; walltime_limit = walltime;
              queue = None }
        with
        | Ok id -> ids := id :: !ids
        | Error _ -> ()
      done;
      Engine.run engine;
      List.for_all
        (fun id ->
          match Grid_lrm.Lrm.query lrm id with
          | Ok { Grid_lrm.Lrm.job_state = Completed | Killed _; _ } -> true
          | _ -> false)
        !ids)

(* --- Scheduler against the list model -------------------------------- *)

(* The scheduler before it kept its totals, kept as the reference:
   pending is an insertion-ordered list sorted and scanned in full at
   every pass, and free capacity is a fold over the nodes. *)
module List_lrm = struct
  module L = Grid_lrm.Lrm

  type node = { cpus : int; mutable free : int }

  type job = {
    id : string;
    spec : L.spec;
    queue : L.queue_config;
    mutable priority : int;
    mutable state : L.state;
    mutable remaining : float;
    mutable walltime_used : float;
    mutable started_at : float;
    mutable allocation : (node * int) list;
    mutable generation : int;
    arrival : int;
  }

  type t = {
    engine : Engine.t;
    nodes : node list;
    jobs : (string, job) Hashtbl.t;
    mutable pending : job list;
    mutable arrivals : int;
    on_change : job -> L.state -> unit;
  }

  let create ~nodes ~cpus_per_node ~on_change engine =
    { engine;
      nodes = List.init nodes (fun _ -> { cpus = cpus_per_node; free = cpus_per_node });
      jobs = Hashtbl.create 16;
      pending = [];
      arrivals = 0;
      on_change }

  let capacity t = List.fold_left (fun acc (n : node) -> acc + n.cpus) 0 t.nodes
  let free_cpus t = List.fold_left (fun acc n -> acc + n.free) 0 t.nodes

  let set_state t job state =
    let from_state = job.state in
    if from_state <> state then begin
      job.state <- state;
      t.on_change job from_state
    end

  let try_allocate t cpus =
    if free_cpus t < cpus then None
    else begin
      let needed = ref cpus and taken = ref [] in
      List.iter
        (fun node ->
          if !needed > 0 && node.free > 0 then begin
            let take = min node.free !needed in
            node.free <- node.free - take;
            needed := !needed - take;
            taken := (node, take) :: !taken
          end)
        t.nodes;
      Some !taken
    end

  let release allocation = List.iter (fun (node, n) -> node.free <- node.free + n) allocation

  let job_order a b =
    let by_queue = compare b.queue.L.priority a.queue.L.priority in
    if by_queue <> 0 then by_queue
    else
      let by_prio = compare b.priority a.priority in
      if by_prio <> 0 then by_prio else compare a.arrival b.arrival

  let walltime_left job =
    match List.filter_map Fun.id [ job.spec.L.walltime_limit; job.queue.L.max_walltime ] with
    | [] -> infinity
    | caps -> List.fold_left min infinity caps -. job.walltime_used

  let rec schedule_pass t =
    let now = Engine.now t.engine in
    List.iter
      (fun job ->
        if job.state = L.Pending then
          match try_allocate t job.spec.L.cpus with
          | None -> ()
          | Some allocation ->
            t.pending <- List.filter (fun j -> j != job) t.pending;
            job.allocation <- allocation;
            job.started_at <- now;
            job.generation <- job.generation + 1;
            set_state t job L.Running;
            let budget = walltime_left job in
            let generation = job.generation and timeout = job.remaining > budget in
            Engine.schedule_after t.engine (min job.remaining budget) (fun () ->
                complete t job ~generation ~timeout))
      (List.sort job_order t.pending)

  and complete t job ~generation ~timeout =
    if job.generation = generation && job.state = L.Running then begin
      let ran = Engine.now t.engine -. job.started_at in
      job.walltime_used <- job.walltime_used +. ran;
      job.remaining <- Float.max 0.0 (job.remaining -. ran);
      release job.allocation;
      job.allocation <- [];
      set_state t job (if timeout then L.Killed "walltime exceeded" else L.Completed);
      schedule_pass t
    end

  let submit t (spec : L.spec) =
    let queue =
      match spec.queue with
      | None -> Ok (List.hd L.default_queues)
      | Some name -> (
        match List.find_opt (fun q -> q.L.queue_name = name) L.default_queues with
        | Some q -> Ok q
        | None -> Error (L.Unknown_queue name))
    in
    match queue with
    | Error _ as e -> e
    | Ok _ when spec.cpus > capacity t ->
      Error (L.Too_many_cpus { requested = spec.cpus; capacity = capacity t })
    | Ok queue ->
      t.arrivals <- t.arrivals + 1;
      let job =
        { id = Grid_util.Ids.job ();
          spec;
          queue;
          priority = 0;
          state = L.Pending;
          remaining = spec.duration;
          walltime_used = 0.0;
          started_at = Engine.now t.engine;
          allocation = [];
          generation = 0;
          arrival = t.arrivals }
      in
      Hashtbl.replace t.jobs job.id job;
      t.pending <- t.pending @ [ job ];
      t.on_change job L.Pending;
      schedule_pass t;
      Ok job.id

  let checkpoint_run t job =
    let ran = Engine.now t.engine -. job.started_at in
    job.walltime_used <- job.walltime_used +. ran;
    job.remaining <- Float.max 0.0 (job.remaining -. ran);
    release job.allocation;
    job.allocation <- [];
    job.generation <- job.generation + 1

  let with_job t id f =
    match Hashtbl.find_opt t.jobs id with
    | None -> Error (L.Unknown_job id)
    | Some job -> f job

  let invalid job operation =
    Error (L.Invalid_transition { job = job.id; state = job.state; operation })

  let cancel t id =
    with_job t id (fun job ->
        match job.state with
        | L.Pending ->
          t.pending <- List.filter (fun j -> j != job) t.pending;
          set_state t job L.Cancelled;
          Ok id
        | L.Running ->
          checkpoint_run t job;
          set_state t job L.Cancelled;
          schedule_pass t;
          Ok id
        | L.Suspended ->
          set_state t job L.Cancelled;
          Ok id
        | L.Completed | L.Cancelled | L.Killed _ -> invalid job "cancel")

  let suspend t id =
    with_job t id (fun job ->
        match job.state with
        | L.Running ->
          checkpoint_run t job;
          set_state t job L.Suspended;
          schedule_pass t;
          Ok id
        | _ -> invalid job "suspend")

  let resume t id =
    with_job t id (fun job ->
        match job.state with
        | L.Suspended ->
          set_state t job L.Pending;
          t.pending <- job :: t.pending;
          schedule_pass t;
          Ok id
        | _ -> invalid job "resume")

  let set_priority t id priority =
    with_job t id (fun job ->
        job.priority <- priority;
        schedule_pass t;
        Ok id)

  let count t state = Hashtbl.fold (fun _ j n -> if j.state = state then n + 1 else n) t.jobs 0
end

type lrm_op =
  | Submit of int * int * int option * string option  (* cpus, duration, walltime, queue *)
  | Cancel of int                                      (* nth submission *)
  | Suspend of int
  | Resume of int
  | Set_priority of int * int
  | Advance of int

let show_lrm_op = function
  | Submit (cpus, d, w, q) ->
    Printf.sprintf "submit %d cpus %ds%s%s" cpus d
      (Option.fold ~none:"" ~some:(Printf.sprintf " wall %ds") w)
      (Option.fold ~none:"" ~some:(( ^ ) " queue ") q)
  | Cancel n -> Printf.sprintf "cancel #%d" n
  | Suspend n -> Printf.sprintf "suspend #%d" n
  | Resume n -> Printf.sprintf "resume #%d" n
  | Set_priority (n, p) -> Printf.sprintf "priority #%d %d" n p
  | Advance s -> Printf.sprintf "advance %ds" s

let gen_lrm_script =
  let open QCheck.Gen in
  let job = int_range 0 30 in
  let op =
    frequency
      [ ( 5,
          map
            (fun (cpus, d, w, q) -> Submit (cpus, d, w, q))
            (quad (int_range 1 13) (int_range 0 40)
               (opt ~ratio:0.3 (int_range 1 30))
               (frequencyl [ (6, None); (3, Some "priority"); (1, Some "nope") ])) );
        (1, map (fun n -> Cancel n) job);
        (2, map (fun n -> Suspend n) job);
        (2, map (fun n -> Resume n) job);
        (2, map2 (fun n p -> Set_priority (n, p)) job (int_range (-3) 3));
        (3, map (fun s -> Advance s) (int_range 0 15)) ]
  in
  list_size (int_range 1 80) op

let arb_lrm_script =
  QCheck.make gen_lrm_script ~print:(fun ops -> String.concat "; " (List.map show_lrm_op ops))

(* One script against one scheduler: every state change as it happens,
   every operation's result, and the free CPUs and state counts after it.
   Job ids come from the global counter, reset before each run. *)
let run_lrm_script ~create ~submit ~cancel ~suspend ~resume ~set_priority ~free ~counts ops =
  Grid_util.Ids.reset ();
  let engine = Engine.create () in
  let log = ref [] in
  let say fmt = Printf.ksprintf (fun line -> log := line :: !log) fmt in
  let on_change id ~from_state ~state =
    say "  %s: %s -> %s" id (Grid_lrm.Lrm.state_to_string from_state)
      (Grid_lrm.Lrm.state_to_string state)
  in
  let lrm = create engine on_change in
  let ids = ref [||] in
  let nth n = if Array.length !ids = 0 then "job-none" else !ids.(n mod Array.length !ids) in
  let show = function
    | Ok id -> "ok " ^ id
    | Error e -> "error " ^ Grid_lrm.Lrm.error_to_string e
  in
  List.iter
    (fun op ->
      say "%s" (show_lrm_op op);
      let result =
        match op with
        | Submit (cpus, duration, walltime, queue) ->
          let r =
            submit lrm
              { Grid_lrm.Lrm.account = "acct";
                cpus;
                duration = float_of_int duration;
                walltime_limit = Option.map float_of_int walltime;
                queue }
          in
          Result.iter (fun id -> ids := Array.append !ids [| id |]) r;
          show r
        | Cancel n -> show (cancel lrm (nth n))
        | Suspend n -> show (suspend lrm (nth n))
        | Resume n -> show (resume lrm (nth n))
        | Set_priority (n, p) -> show (set_priority lrm (nth n) p)
        | Advance s ->
          Engine.run_until engine (Engine.now engine +. float_of_int s);
          "ok"
      in
      let running, pending = counts lrm in
      say "%s; %d free, %d running, %d pending" result (free lrm) running pending)
    ops;
  Engine.run engine;
  say "drained; %d free" (free lrm);
  List.rev !log

let qcheck_lrm_matches_list_model =
  QCheck.Test.make ~name:"scheduler matches the list model" ~count:200 arb_lrm_script
    (fun ops ->
      let model =
        run_lrm_script ops
          ~create:(fun engine on_change ->
            List_lrm.create ~nodes:3 ~cpus_per_node:4 engine
              ~on_change:(fun (job : List_lrm.job) from_state ->
                on_change job.id ~from_state ~state:job.state))
          ~submit:List_lrm.submit ~cancel:List_lrm.cancel ~suspend:List_lrm.suspend
          ~resume:List_lrm.resume ~set_priority:List_lrm.set_priority
          ~free:List_lrm.free_cpus
          ~counts:(fun t ->
            (List_lrm.count t Grid_lrm.Lrm.Running, List_lrm.count t Grid_lrm.Lrm.Pending))
      in
      let invariant_broken = ref [] in
      let queued =
        run_lrm_script ops
          ~create:(fun engine on_change ->
            let lrm = Grid_lrm.Lrm.create ~nodes:3 ~cpus_per_node:4 engine in
            Grid_lrm.Lrm.on_event lrm (fun (Grid_lrm.Lrm.State_changed { job; from_state }) ->
                if not (Grid_lrm.Lrm.invariant_holds lrm) then
                  invariant_broken := job.Grid_lrm.Lrm.id :: !invariant_broken;
                on_change job.Grid_lrm.Lrm.id ~from_state ~state:job.Grid_lrm.Lrm.state);
            lrm)
          ~submit:Grid_lrm.Lrm.submit ~cancel:Grid_lrm.Lrm.cancel ~suspend:Grid_lrm.Lrm.suspend
          ~resume:Grid_lrm.Lrm.resume ~set_priority:Grid_lrm.Lrm.set_priority
          ~free:Grid_lrm.Lrm.free_cpus
          ~counts:(fun t -> (Grid_lrm.Lrm.running_count t, Grid_lrm.Lrm.pending_count t))
      in
      if !invariant_broken <> [] then
        QCheck.Test.fail_reportf "invariant broken at a transition of %s"
          (List.hd !invariant_broken);
      let rec first_difference = function
        | [], [] -> true
        | m :: model, q :: queued when m = q -> first_difference (model, queued)
        | m, q ->
          let head = function [] -> "(end)" | line :: _ -> line in
          QCheck.Test.fail_reportf "model:  %s\nqueued: %s" (head m) (head q)
      in
      first_difference (model, queued))

let pinned test = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5EED; 1207 |]) test

(* --- Per-job listeners ---------------------------------------------- *)

let job_of (Grid_lrm.Lrm.State_changed { job; _ }) = job

let terminal = function
  | Grid_lrm.Lrm.Completed | Grid_lrm.Lrm.Cancelled | Grid_lrm.Lrm.Killed _ -> true
  | Grid_lrm.Lrm.Pending | Grid_lrm.Lrm.Running | Grid_lrm.Lrm.Suspended -> false

let test_job_listener_own_job_only () =
  let engine, lrm = make ~nodes:1 ~cpus:1 () in
  let a = ok (Grid_lrm.Lrm.submit lrm (spec ~duration:5.0 ())) in
  let b = ok (Grid_lrm.Lrm.submit lrm (spec ~duration:5.0 ())) in
  let seen = ref [] in
  Grid_lrm.Lrm.on_job lrm b (fun ev ->
      let job = job_of ev in
      seen := (job.Grid_lrm.Lrm.id, Grid_lrm.Lrm.state_to_string job.Grid_lrm.Lrm.state) :: !seen);
  ignore (ok (Grid_lrm.Lrm.cancel lrm a));
  Engine.run engine;
  Alcotest.(check (list (pair string string)))
    "only b's transitions after registration"
    [ (b, "running"); (b, "completed") ]
    (List.rev !seen)

let test_job_listener_before_global () =
  let engine, lrm = make () in
  let log = ref [] in
  (* The cluster-wide listener is registered first, yet runs second. *)
  Grid_lrm.Lrm.on_event lrm (fun ev ->
      log := ("global", (job_of ev).Grid_lrm.Lrm.id) :: !log);
  let id = ok (Grid_lrm.Lrm.submit lrm (spec ~duration:5.0 ())) in
  Grid_lrm.Lrm.on_job lrm id (fun ev -> log := ("older", (job_of ev).Grid_lrm.Lrm.id) :: !log);
  Grid_lrm.Lrm.on_job lrm id (fun ev -> log := ("newer", (job_of ev).Grid_lrm.Lrm.id) :: !log);
  log := [];
  ignore (ok (Grid_lrm.Lrm.suspend lrm id));
  ignore (ok (Grid_lrm.Lrm.resume lrm id));
  Engine.run engine;
  (* suspended, pending, running, completed *)
  Alcotest.(check (list string)) "job listeners newest first, then global"
    (List.concat (List.init 4 (fun _ -> [ "newer"; "older"; "global" ])))
    (List.rev_map fst !log)

let test_job_listener_retired_at_terminal () =
  let engine, lrm = make ~nodes:1 ~cpus:1 () in
  let id = ok (Grid_lrm.Lrm.submit lrm (spec ~duration:5.0 ())) in
  let states = ref [] in
  let record ev = states := (job_of ev).Grid_lrm.Lrm.state :: !states in
  Grid_lrm.Lrm.on_job lrm id record;
  ignore (ok (Grid_lrm.Lrm.suspend lrm id));
  ignore (ok (Grid_lrm.Lrm.resume lrm id));
  Engine.run engine;
  Alcotest.(check (list string)) "every transition up to the terminal one"
    [ "suspended"; "pending"; "running"; "completed" ]
    (List.rev_map Grid_lrm.Lrm.state_to_string !states);
  (* Nothing the job or the cluster does afterwards reaches it, and a
     listener registered on a finished job is never called. *)
  Grid_lrm.Lrm.on_job lrm id record;
  ignore (Grid_lrm.Lrm.set_priority lrm id 5);
  (match Grid_lrm.Lrm.cancel lrm id with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "cancelling a completed job must fail");
  let other = ok (Grid_lrm.Lrm.submit lrm (spec ~duration:1.0 ())) in
  Engine.run engine;
  check_state "other job ran" lrm other Grid_lrm.Lrm.Completed;
  Alcotest.(check int) "no call after the terminal transition" 4 (List.length !states);
  Alcotest.(check int) "nothing retained" 0 (Grid_lrm.Lrm.job_listeners lrm)

(* Completed, cancelled (pending, running and suspended) and
   walltime-killed jobs all drop their listeners: the retained count
   returns to 0 once every job has finished. *)
let test_job_listeners_drain () =
  let engine, lrm = make ~nodes:2 ~cpus:2 () in
  let calls_after_terminal = ref 0 in
  let ids =
    List.init 12 (fun i ->
        let walltime = if i mod 4 = 3 then Some 2.0 else None in
        let id =
          ok (Grid_lrm.Lrm.submit lrm (spec ~duration:(float_of_int (3 + i)) ?walltime ()))
        in
        let finished = ref false in
        Grid_lrm.Lrm.on_job lrm id (fun ev ->
            if !finished then incr calls_after_terminal;
            if terminal (job_of ev).Grid_lrm.Lrm.state then finished := true);
        id)
  in
  Alcotest.(check int) "one listener per live job" 12 (Grid_lrm.Lrm.job_listeners lrm);
  ignore (ok (Grid_lrm.Lrm.cancel lrm (List.nth ids 0)));
  ignore (ok (Grid_lrm.Lrm.cancel lrm (List.nth ids 11)));
  ignore (ok (Grid_lrm.Lrm.suspend lrm (List.nth ids 1)));
  Engine.run_until engine 1.0;
  ignore (ok (Grid_lrm.Lrm.cancel lrm (List.nth ids 1)));
  Alcotest.(check int) "cancelled jobs dropped theirs" 9 (Grid_lrm.Lrm.job_listeners lrm);
  Engine.run engine;
  List.iter
    (fun id -> Alcotest.(check bool) ("terminal " ^ id) true (terminal (state_of lrm id)))
    ids;
  Alcotest.(check int) "none retained once every job finished" 0
    (Grid_lrm.Lrm.job_listeners lrm);
  Alcotest.(check int) "never called after the terminal transition" 0 !calls_after_terminal

let () =
  Alcotest.run "grid_lrm"
    [ ( "lifecycle",
        [ Alcotest.test_case "submit/run/complete" `Quick test_submit_runs_and_completes;
          Alcotest.test_case "queueing when full" `Quick test_queueing_when_full;
          Alcotest.test_case "spans nodes" `Quick test_jobs_span_nodes;
          Alcotest.test_case "too many cpus" `Quick test_too_many_cpus_rejected;
          Alcotest.test_case "unknown queue" `Quick test_unknown_queue_rejected;
          Alcotest.test_case "cancel" `Quick test_cancel_pending_and_running;
          Alcotest.test_case "zero duration" `Quick test_zero_duration_job;
          Alcotest.test_case "events" `Quick test_events_observed ] );
      ( "suspension",
        [ Alcotest.test_case "suspend/resume progress" `Quick
            test_suspend_resume_preserves_progress;
          Alcotest.test_case "frees capacity" `Quick test_suspend_frees_capacity_for_other_jobs;
          Alcotest.test_case "stale completion" `Quick test_stale_completion_event_ignored ] );
      ( "walltime",
        [ Alcotest.test_case "kill at limit" `Quick test_walltime_kill;
          Alcotest.test_case "budget survives suspension" `Quick
            test_walltime_survives_suspension;
          Alcotest.test_case "queue cap" `Quick test_queue_walltime_cap ] );
      ( "priorities",
        [ Alcotest.test_case "priority queue first" `Quick test_priority_queue_scheduled_first;
          Alcotest.test_case "set_priority reorders" `Quick test_set_priority_reorders ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest qcheck_no_oversubscription;
          QCheck_alcotest.to_alcotest qcheck_all_jobs_terminate;
          pinned qcheck_lrm_matches_list_model ] );
      ( "listeners",
        [ Alcotest.test_case "own job only" `Quick test_job_listener_own_job_only;
          Alcotest.test_case "before global listeners" `Quick test_job_listener_before_global;
          Alcotest.test_case "retired at terminal" `Quick test_job_listener_retired_at_terminal;
          Alcotest.test_case "retained count drains to 0" `Quick test_job_listeners_drain ] ) ]

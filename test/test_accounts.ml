(* Tests for grid_accounts: dynamic account pool, sandbox limits, the
   gatekeeper-side account mapper. *)

open Grid_accounts

let dn = Grid_gsi.Dn.parse

let setup () = Grid_util.Ids.reset ()

(* --- Pool ----------------------------------------------------------------- *)

let test_pool_acquire_release () =
  setup ();
  let pool = Pool.create ~size:2 ~lease_lifetime:100.0 () in
  let a = Result.get_ok (Pool.acquire pool ~now:0.0 ~holder:(dn "/O=Grid/CN=A")) in
  let b = Result.get_ok (Pool.acquire pool ~now:0.0 ~holder:(dn "/O=Grid/CN=B")) in
  Alcotest.(check bool) "distinct accounts" false (a.Pool.account = b.Pool.account);
  Alcotest.(check int) "both leased" 2 (Pool.in_use pool ~now:0.0);
  (match Pool.acquire pool ~now:0.0 ~holder:(dn "/O=Grid/CN=C") with
  | Error (Pool.Pool_exhausted { size = 2 }) -> ()
  | _ -> Alcotest.fail "exhaustion not reported");
  ignore (Result.get_ok (Pool.release pool ~lease_id:a.Pool.lease_id));
  match Pool.acquire pool ~now:0.0 ~holder:(dn "/O=Grid/CN=C") with
  | Ok lease -> Alcotest.(check string) "recycled" a.Pool.account lease.Pool.account
  | Error _ -> Alcotest.fail "released account not reusable"

let test_pool_same_holder_same_account () =
  setup ();
  let pool = Pool.create ~size:4 ~lease_lifetime:100.0 () in
  let holder = dn "/O=Grid/CN=A" in
  let l1 = Result.get_ok (Pool.acquire pool ~now:0.0 ~holder) in
  let l2 = Result.get_ok (Pool.acquire pool ~now:10.0 ~holder) in
  Alcotest.(check string) "same account on reuse" l1.Pool.account l2.Pool.account;
  Alcotest.(check int) "one lease only" 1 (Pool.in_use pool ~now:10.0);
  let stats = Pool.stats pool in
  Alcotest.(check int) "grants" 1 stats.Pool.total_grants;
  Alcotest.(check int) "reuses" 1 stats.Pool.total_reuses

let test_pool_lease_renewal_extends () =
  setup ();
  let pool = Pool.create ~size:1 ~lease_lifetime:100.0 () in
  let holder = dn "/O=Grid/CN=A" in
  ignore (Result.get_ok (Pool.acquire pool ~now:0.0 ~holder));
  (* Renew at t=90: lease now runs to 190. *)
  ignore (Result.get_ok (Pool.acquire pool ~now:90.0 ~holder));
  Alcotest.(check int) "still live at 150" 1 (Pool.in_use pool ~now:150.0);
  Alcotest.(check int) "expired at 200" 0 (Pool.in_use pool ~now:200.0)

let test_pool_expiry_reclaims () =
  setup ();
  let pool = Pool.create ~size:1 ~lease_lifetime:50.0 () in
  ignore (Result.get_ok (Pool.acquire pool ~now:0.0 ~holder:(dn "/O=Grid/CN=A")));
  (match Pool.acquire pool ~now:10.0 ~holder:(dn "/O=Grid/CN=B") with
  | Error (Pool.Pool_exhausted _) -> ()
  | _ -> Alcotest.fail "pool should be exhausted");
  (* After expiry, B can lease the reclaimed account. *)
  match Pool.acquire pool ~now:60.0 ~holder:(dn "/O=Grid/CN=B") with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "expired lease not reclaimed"

let test_pool_holder_of () =
  setup ();
  let pool = Pool.create ~prefix:"nfc" ~size:2 ~lease_lifetime:100.0 () in
  let lease = Result.get_ok (Pool.acquire pool ~now:0.0 ~holder:(dn "/O=Grid/CN=A")) in
  (match Pool.holder_of pool ~account:lease.Pool.account ~now:1.0 with
  | Some h -> Alcotest.(check string) "holder" "/O=Grid/CN=A" (Grid_gsi.Dn.to_string h)
  | None -> Alcotest.fail "holder not found");
  Alcotest.(check (option string)) "free account has no holder" None
    (Option.map Grid_gsi.Dn.to_string (Pool.holder_of pool ~account:"nfc001" ~now:1.0))

let test_pool_release_unknown () =
  setup ();
  let pool = Pool.create ~size:1 ~lease_lifetime:10.0 () in
  match Pool.release pool ~lease_id:"lease-999999" with
  | Error (Pool.Unknown_lease _) -> ()
  | _ -> Alcotest.fail "unknown lease released"

let qcheck_pool_never_double_allocates =
  QCheck.Test.make ~name:"pool never double-allocates an account" ~count:100
    QCheck.(pair (int_range 1 8) (small_list (int_range 0 20)))
    (fun (size, holders) ->
      Grid_util.Ids.reset ();
      let pool = Pool.create ~size ~lease_lifetime:1000.0 () in
      let leases =
        List.filter_map
          (fun i ->
            match
              Pool.acquire pool ~now:0.0 ~holder:(dn (Printf.sprintf "/O=G/CN=u%d" i))
            with
            | Ok l -> Some l
            | Error _ -> None)
          holders
      in
      (* distinct holders must hold distinct accounts *)
      let by_holder = List.sort_uniq compare
          (List.map (fun l -> (Grid_gsi.Dn.to_string l.Pool.holder, l.Pool.account)) leases) in
      let accounts = List.map snd by_holder in
      List.length (List.sort_uniq compare accounts) = List.length accounts)

(* --- Pool against the list model --------------------------------------------- *)

(* The list implementation the indexed pool replaced, kept as the
   reference: every lease scan and the first-free-account search are
   linear, so its answers are easy to trust. *)
module List_pool = struct
  type lease = {
    lease_id : string;
    account : string;
    holder : Grid_gsi.Dn.t;
    granted_at : float;
    mutable expires_at : float;
  }

  type t = {
    accounts : string list;
    lease_lifetime : float;
    mutable leases : lease list;
    mutable grants : int;
    mutable reuses : int;
    mutable exhaustions : int;
  }

  let create ~size ~lease_lifetime =
    { accounts = List.init size (fun i -> Printf.sprintf "grid%03d" i);
      lease_lifetime;
      leases = [];
      grants = 0;
      reuses = 0;
      exhaustions = 0 }

  let live_leases t ~now = List.filter (fun l -> now <= l.expires_at) t.leases

  let expire t ~now =
    let before = List.length t.leases in
    t.leases <- live_leases t ~now;
    before - List.length t.leases

  let acquire t ~now ~holder =
    ignore (expire t ~now);
    match List.find_opt (fun l -> Grid_gsi.Dn.equal l.holder holder) t.leases with
    | Some lease ->
      lease.expires_at <- now +. t.lease_lifetime;
      t.reuses <- t.reuses + 1;
      Ok lease
    | None -> begin
      let in_use = List.map (fun l -> l.account) t.leases in
      match List.find_opt (fun a -> not (List.mem a in_use)) t.accounts with
      | None ->
        t.exhaustions <- t.exhaustions + 1;
        Error (Pool.Pool_exhausted { size = List.length t.accounts })
      | Some account ->
        let lease =
          { lease_id = Grid_util.Ids.lease ();
            account;
            holder;
            granted_at = now;
            expires_at = now +. t.lease_lifetime }
        in
        t.grants <- t.grants + 1;
        t.leases <- lease :: t.leases;
        Ok lease
    end

  let release t ~lease_id =
    if List.exists (fun l -> l.lease_id = lease_id) t.leases then begin
      t.leases <- List.filter (fun l -> l.lease_id <> lease_id) t.leases;
      Ok ()
    end
    else Error (Pool.Unknown_lease lease_id)

  let holder_of t ~account ~now =
    List.find_opt (fun l -> l.account = account) (live_leases t ~now)
    |> Option.map (fun l -> l.holder)

  let in_use t ~now = List.length (live_leases t ~now)
  let available t ~now = List.length t.accounts - in_use t ~now
end

type pool_op =
  | Acquire of int * float               (* holder index, now *)
  | Release of int                       (* nth grant so far; negative: unknown id *)
  | Expire of float
  | Holder_of of int * float             (* account index *)
  | Count of float                       (* in_use and available *)

let show_pool_op = function
  | Acquire (h, now) -> Printf.sprintf "acquire u%d @%g" h now
  | Release n -> Printf.sprintf "release #%d" n
  | Expire now -> Printf.sprintf "expire @%g" now
  | Holder_of (a, now) -> Printf.sprintf "holder_of grid%03d @%g" a now
  | Count now -> Printf.sprintf "count @%g" now

(* A clock that mostly moves forward but sometimes looks back or ahead:
   [now] is not monotonic, and queries land on both sides of deadlines. *)
let gen_pool_script =
  let open QCheck.Gen in
  let* size = oneof [ return 1; int_range 2 6; return 12 ] in
  let* steps = list_size (int_range 1 60) (pair (int_range 0 15) (int_range (-60) 60)) in
  let* kinds = list_repeat (List.length steps) (pair (int_range 0 9) (int_range (-1) 20)) in
  let clock = ref 0 in
  let ops =
    List.map2
      (fun (advance, jitter) (kind, pick) ->
        clock := !clock + advance;
        (* One operation in three reads the clock off by up to a minute. *)
        let now = float_of_int (max 0 (if jitter mod 3 = 0 then !clock + jitter else !clock)) in
        match kind with
        | 0 | 1 | 2 | 3 | 4 -> Acquire (abs pick mod 14, now)
        | 5 | 6 -> Release pick
        | 7 -> Expire now
        | 8 -> Holder_of (abs pick mod (size + 1), now)
        | _ -> Count now)
      steps kinds
  in
  return (size, ops)

let arb_pool_script =
  QCheck.make gen_pool_script ~print:(fun (size, ops) ->
      Printf.sprintf "size %d: %s" size (String.concat "; " (List.map show_pool_op ops)))

let holder_dn i = dn (Printf.sprintf "/O=Grid/OU=Pool/CN=user %d" i)

let show_result show = function
  | Ok v -> "ok " ^ show v
  | Error e -> "error " ^ Pool.error_to_string e

let show_lease ~id ~account ~holder ~granted_at ~expires_at =
  Printf.sprintf "%s %s %s granted %g expires %g" id account (Grid_gsi.Dn.to_string holder)
    granted_at expires_at

(* One script against one implementation: a line per operation, then the
   stats. Lease ids come from the global counter, so both runs start from
   a reset and the nth grant gets the same id in each. *)
let run_pool_script (type p l) ~(create : unit -> p) ~acquire ~release ~expire ~holder_of
    ~in_use ~available ~(lease_id : l -> string) ~(show : l -> string) ~stats ops =
  Grid_util.Ids.reset ();
  let pool = create () in
  let granted = ref [] in
  let line op =
    match op with
    | Acquire (h, now) ->
      let r = acquire pool ~now ~holder:(holder_dn h) in
      (match r with
      | Ok l when not (List.mem (lease_id l) !granted) -> granted := !granted @ [ lease_id l ]
      | Ok _ | Error _ -> ());
      show_result show r
    | Release n ->
      let id =
        if n < 0 || !granted = [] then "lease-unknown"
        else List.nth !granted (n mod List.length !granted)
      in
      show_result (fun () -> id) (release pool ~lease_id:id)
    | Expire now -> string_of_int (expire pool ~now)
    | Holder_of (a, now) ->
      Option.fold ~none:"none" ~some:Grid_gsi.Dn.to_string
        (holder_of pool ~account:(Printf.sprintf "grid%03d" a) ~now)
    | Count now -> Printf.sprintf "%d in use, %d available" (in_use pool ~now) (available pool ~now)
  in
  let lines = List.map (fun op -> show_pool_op op ^ " -> " ^ line op) ops in
  lines @ [ stats pool ]

let qcheck_pool_matches_list_model =
  QCheck.Test.make ~name:"pool matches the list model" ~count:300 arb_pool_script
    (fun (size, ops) ->
      let lifetime = 40.0 in
      let model =
        run_pool_script ops
          ~create:(fun () -> List_pool.create ~size ~lease_lifetime:lifetime)
          ~acquire:List_pool.acquire ~release:List_pool.release ~expire:List_pool.expire
          ~holder_of:List_pool.holder_of ~in_use:List_pool.in_use
          ~available:List_pool.available
          ~lease_id:(fun (l : List_pool.lease) -> l.lease_id)
          ~show:(fun (l : List_pool.lease) ->
            show_lease ~id:l.lease_id ~account:l.account ~holder:l.holder
              ~granted_at:l.granted_at ~expires_at:l.expires_at)
          ~stats:(fun (p : List_pool.t) ->
            Printf.sprintf "stats %d %d %d" p.grants p.reuses p.exhaustions)
      in
      let indexed =
        run_pool_script ops
          ~create:(fun () -> Pool.create ~size ~lease_lifetime:lifetime ())
          ~acquire:Pool.acquire ~release:Pool.release ~expire:Pool.expire
          ~holder_of:Pool.holder_of ~in_use:Pool.in_use ~available:Pool.available
          ~lease_id:(fun (l : Pool.lease) -> l.lease_id)
          ~show:(fun (l : Pool.lease) ->
            show_lease ~id:l.lease_id ~account:l.account ~holder:l.holder
              ~granted_at:l.granted_at ~expires_at:l.expires_at)
          ~stats:(fun p ->
            let s = Pool.stats p in
            Printf.sprintf "stats %d %d %d" s.total_grants s.total_reuses s.total_exhaustions)
      in
      match List.find_opt (fun (m, i) -> m <> i) (List.combine model indexed) with
      | None -> true
      | Some (m, i) -> QCheck.Test.fail_reportf "model:   %s\nindexed: %s" m i)

let pinned test = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5EED; 607 |]) test

(* Exhaustion when every account is leased, then reuse of the lowest freed
   account rather than the next fresh one. *)
let test_pool_full_then_lowest_free () =
  setup ();
  let pool = Pool.create ~size:4 ~lease_lifetime:100.0 () in
  let leases =
    List.init 4 (fun i -> Result.get_ok (Pool.acquire pool ~now:0.0 ~holder:(holder_dn i)))
  in
  (match Pool.acquire pool ~now:0.0 ~holder:(holder_dn 9) with
  | Error (Pool.Pool_exhausted { size = 4 }) -> ()
  | _ -> Alcotest.fail "full pool not reported exhausted");
  List.iter
    (fun i -> ignore (Result.get_ok (Pool.release pool ~lease_id:(List.nth leases i).Pool.lease_id)))
    [ 3; 1 ];
  let again = Result.get_ok (Pool.acquire pool ~now:1.0 ~holder:(holder_dn 9)) in
  Alcotest.(check string) "lowest freed account" "grid001" again.Pool.account;
  let next = Result.get_ok (Pool.acquire pool ~now:1.0 ~holder:(holder_dn 10)) in
  Alcotest.(check string) "then the freed top account" "grid003" next.Pool.account;
  Alcotest.(check int) "full again" 0 (Pool.available pool ~now:1.0)

(* The pool's memory follows its leases, not its size: the same leases in
   a pool of 8 and of 8,192 accounts reach the same number of words. *)
let test_pool_memory_follows_leases () =
  let filled size =
    setup ();
    let pool = Pool.create ~size ~lease_lifetime:100.0 () in
    List.iter
      (fun i -> ignore (Result.get_ok (Pool.acquire pool ~now:0.0 ~holder:(holder_dn i))))
      (List.init 6 Fun.id);
    pool
  in
  let words pool = Obj.reachable_words (Obj.repr pool) in
  Alcotest.(check int) "same leases, same words" (words (filled 8)) (words (filled 8192))

(* --- Sandbox ---------------------------------------------------------------- *)

let job rsl = Result.get_ok (Grid_rsl.Job.of_string rsl)

let test_sandbox_unrestricted () =
  Alcotest.(check bool) "anything goes" true
    (Sandbox.permits Sandbox.unrestricted (job "&(executable=/bin/rm)(count=999)"))

let test_sandbox_cpu_limit () =
  let limits = { Sandbox.unrestricted with Sandbox.max_cpus = Some 4 } in
  Alcotest.(check bool) "within" true (Sandbox.permits limits (job "&(executable=x)(count=4)"));
  match Sandbox.check limits (job "&(executable=x)(count=5)") with
  | [ Sandbox.Cpus_exceeded { requested = 5; limit = 4 } ] -> ()
  | _ -> Alcotest.fail "cpu violation not reported"

let test_sandbox_memory_and_walltime () =
  let limits =
    { Sandbox.unrestricted with
      Sandbox.max_memory_mb = Some 512;
      Sandbox.max_walltime = Some 3600.0 }
  in
  Alcotest.(check bool) "within" true
    (Sandbox.permits limits (job "&(executable=x)(maxmemory=512)(maxwalltime=60)"));
  Alcotest.(check int) "two violations" 2
    (List.length (Sandbox.check limits (job "&(executable=x)(maxmemory=1024)(maxwalltime=61)")))

let test_sandbox_paths () =
  Alcotest.(check bool) "exact" true (Sandbox.path_within ~root:"/sandbox/test" "/sandbox/test");
  Alcotest.(check bool) "child" true
    (Sandbox.path_within ~root:"/sandbox/test" "/sandbox/test/sub");
  Alcotest.(check bool) "sibling prefix is not containment" false
    (Sandbox.path_within ~root:"/sandbox/test" "/sandbox/testing");
  let limits = { Sandbox.unrestricted with Sandbox.allowed_directories = [ "/sandbox/test" ] } in
  Alcotest.(check bool) "inside" true
    (Sandbox.permits limits (job "&(executable=x)(directory=/sandbox/test/run1)"));
  match Sandbox.check limits (job "&(executable=x)(directory=/home)") with
  | [ Sandbox.Directory_forbidden "/home" ] -> ()
  | _ -> Alcotest.fail "directory violation not reported"

let test_sandbox_executables () =
  let limits = { Sandbox.unrestricted with Sandbox.allowed_executables = [ "TRANSP" ] } in
  Alcotest.(check bool) "allowed" true (Sandbox.permits limits (job "&(executable=TRANSP)"));
  match Sandbox.check limits (job "&(executable=sh)") with
  | [ Sandbox.Executable_forbidden "sh" ] -> ()
  | _ -> Alcotest.fail "executable violation not reported"

(* --- Mapper ------------------------------------------------------------------- *)

let gridmap = Grid_gsi.Gridmap.parse "\"/O=Grid/CN=Static User\" statica\n"

let test_mapper_static_first () =
  setup ();
  let pool = Pool.create ~size:2 ~lease_lifetime:100.0 () in
  let mapper = Mapper.create ~pool gridmap in
  match Mapper.resolve mapper ~now:0.0 (dn "/O=Grid/CN=Static User") with
  | Ok { Mapper.account = "statica"; source = `Static; _ } -> ()
  | _ -> Alcotest.fail "static mapping not preferred"

let test_mapper_dynamic_fallback () =
  setup ();
  let pool = Pool.create ~size:2 ~lease_lifetime:100.0 () in
  let mapper = Mapper.create ~pool gridmap in
  match Mapper.resolve mapper ~now:0.0 (dn "/O=Grid/CN=Visitor") with
  | Ok ({ Mapper.source = `Dynamic _; _ } as mapping) ->
    Alcotest.(check bool) "pool account" true
      (Grid_util.Strings.starts_with ~prefix:"grid" mapping.Mapper.account);
    Mapper.release mapper mapping;
    Alcotest.(check int) "released" 0 (Pool.in_use pool ~now:0.0)
  | _ -> Alcotest.fail "dynamic fallback failed"

let test_mapper_no_account () =
  setup ();
  let mapper = Mapper.create gridmap in
  match Mapper.resolve mapper ~now:0.0 (dn "/O=Grid/CN=Visitor") with
  | Error (Mapper.No_local_account _) -> ()
  | _ -> Alcotest.fail "unmapped visitor accepted without pool"

let test_mapper_limits_attached () =
  setup ();
  let static_limits _ = { Sandbox.unrestricted with Sandbox.max_cpus = Some 2 } in
  let dynamic_limits = { Sandbox.unrestricted with Sandbox.max_cpus = Some 1 } in
  let pool = Pool.create ~size:1 ~lease_lifetime:10.0 () in
  let mapper = Mapper.create ~pool ~static_limits ~dynamic_limits gridmap in
  let static_map = Result.get_ok (Mapper.resolve mapper ~now:0.0 (dn "/O=Grid/CN=Static User")) in
  Alcotest.(check (option int)) "static limits" (Some 2)
    static_map.Mapper.limits.Sandbox.max_cpus;
  let dynamic_map = Result.get_ok (Mapper.resolve mapper ~now:0.0 (dn "/O=Grid/CN=Visitor")) in
  Alcotest.(check (option int)) "dynamic limits" (Some 1)
    dynamic_map.Mapper.limits.Sandbox.max_cpus

(* --- Sandbox derivation (policy-derived enforcement) ------------------------- *)

let constraints_of rsl =
  List.map
    (fun (r : Grid_rsl.Ast.relation) ->
      { Grid_policy.Types.attribute = r.attribute;
        op = r.op;
        values =
          List.map
            (function
              | Grid_rsl.Ast.Literal s -> Grid_policy.Types.Str s
              | Grid_rsl.Ast.Variable _ | Grid_rsl.Ast.Binding _ -> assert false)
            r.values })
    (Grid_rsl.Parser.parse_clause_exn rsl)

let test_sandbox_intersect () =
  let a =
    { Sandbox.unrestricted with
      Sandbox.max_cpus = Some 8;
      Sandbox.allowed_executables = [ "a"; "b" ] }
  in
  let b =
    { Sandbox.unrestricted with
      Sandbox.max_cpus = Some 4;
      Sandbox.max_walltime = Some 60.0;
      Sandbox.allowed_executables = [ "b"; "c" ] }
  in
  let i = Sandbox.intersect a b in
  Alcotest.(check (option int)) "min cpus" (Some 4) i.Sandbox.max_cpus;
  Alcotest.(check (option (float 1e-9))) "walltime adopted" (Some 60.0) i.Sandbox.max_walltime;
  Alcotest.(check (list string)) "executables intersected" [ "b" ] i.Sandbox.allowed_executables;
  (* Disjoint allow-lists permit nothing (not everything). *)
  let c = { Sandbox.unrestricted with Sandbox.allowed_executables = [ "x" ] } in
  let d = { Sandbox.unrestricted with Sandbox.allowed_executables = [ "y" ] } in
  let disjoint = Sandbox.intersect c d in
  Alcotest.(check bool) "disjoint permits nothing" false
    (Sandbox.permits disjoint (job "&(executable=x)"));
  (* Unrestricted is the identity. *)
  let id = Sandbox.intersect a Sandbox.unrestricted in
  Alcotest.(check (option int)) "identity cpus" (Some 8) id.Sandbox.max_cpus;
  Alcotest.(check (list string)) "identity exes" [ "a"; "b" ] id.Sandbox.allowed_executables

let test_sandbox_of_policy_clause () =
  let clause =
    constraints_of
      "&(action=start)(executable=test1 test2)(directory=/sandbox/test)(jobtag=ADS)(count < 4)(maxmemory <= 512)(maxwalltime <= 2)"
  in
  let limits = Sandbox.of_policy_clause clause in
  Alcotest.(check (list string)) "executables" [ "test1"; "test2" ]
    limits.Sandbox.allowed_executables;
  Alcotest.(check (list string)) "directories" [ "/sandbox/test" ]
    limits.Sandbox.allowed_directories;
  Alcotest.(check (option int)) "count < 4 gives cap 3" (Some 3) limits.Sandbox.max_cpus;
  Alcotest.(check (option int)) "memory" (Some 512) limits.Sandbox.max_memory_mb;
  Alcotest.(check (option (float 1e-9))) "walltime minutes to seconds" (Some 120.0)
    limits.Sandbox.max_walltime

let test_sandbox_of_policy_clause_ignores_unenforceable () =
  let clause = constraints_of "&(action=start)(jobowner != NULL)(queue != reserved)(count > 2)" in
  let limits = Sandbox.of_policy_clause clause in
  Alcotest.(check (option int)) "lower bounds not enforceable as caps" None
    limits.Sandbox.max_cpus;
  Alcotest.(check (list string)) "no allow-lists" [] limits.Sandbox.allowed_executables

(* --- Allocations ---------------------------------------------------------------- *)

let test_allocation_lifecycle () =
  let bank = Allocation.create () in
  Allocation.open_account bank ~party:"/O=Grid/O=Fusion" ~budget:1000.0;
  Alcotest.(check (option (float 1e-9))) "full budget" (Some 1000.0)
    (Allocation.balance bank ~party:"/O=Grid/O=Fusion");
  let r = Result.get_ok (Allocation.reserve bank ~party:"/O=Grid/O=Fusion" ~amount:600.0) in
  Alcotest.(check (option (float 1e-9))) "reservation held" (Some 400.0)
    (Allocation.balance bank ~party:"/O=Grid/O=Fusion");
  Allocation.settle r ~actual:250.0;
  Alcotest.(check (option (float 1e-9))) "refund after settle" (Some 750.0)
    (Allocation.balance bank ~party:"/O=Grid/O=Fusion");
  Alcotest.(check (option (float 1e-9))) "charge recorded" (Some 250.0)
    (Allocation.charged bank ~party:"/O=Grid/O=Fusion")

let test_allocation_refusal () =
  let bank = Allocation.create () in
  Allocation.open_account bank ~party:"/O=Grid" ~budget:100.0;
  (match Allocation.reserve bank ~party:"/O=Grid" ~amount:101.0 with
  | Error (Allocation.Insufficient_allocation { requested = 101.0; available = 100.0; _ }) -> ()
  | _ -> Alcotest.fail "over-budget reservation accepted");
  (match Allocation.reserve bank ~party:"/O=Nobody" ~amount:1.0 with
  | Error (Allocation.Unknown_party _) -> ()
  | _ -> Alcotest.fail "unknown party accepted");
  Alcotest.(check int) "refusals counted" 2 (Allocation.refusals bank)

let test_allocation_settle_idempotent () =
  let bank = Allocation.create () in
  Allocation.open_account bank ~party:"p" ~budget:100.0;
  let r = Result.get_ok (Allocation.reserve bank ~party:"p" ~amount:50.0) in
  Allocation.settle r ~actual:10.0;
  Allocation.settle r ~actual:10.0;
  Alcotest.(check (option (float 1e-9))) "charged once" (Some 10.0)
    (Allocation.charged bank ~party:"p")

let test_allocation_cancel () =
  let bank = Allocation.create () in
  Allocation.open_account bank ~party:"p" ~budget:100.0;
  let r = Result.get_ok (Allocation.reserve bank ~party:"p" ~amount:50.0) in
  Allocation.cancel r;
  Alcotest.(check (option (float 1e-9))) "nothing charged" (Some 0.0)
    (Allocation.charged bank ~party:"p");
  Alcotest.(check (option (float 1e-9))) "all returned" (Some 100.0)
    (Allocation.balance bank ~party:"p")

let test_allocation_overrun_still_charged () =
  (* Walltime accounting is authoritative: usage beyond the reservation is
     charged anyway (the LRM kill already bounds it). *)
  let bank = Allocation.create () in
  Allocation.open_account bank ~party:"p" ~budget:100.0;
  let r = Result.get_ok (Allocation.reserve bank ~party:"p" ~amount:10.0) in
  Allocation.settle r ~actual:30.0;
  Alcotest.(check (option (float 1e-9))) "overrun charged" (Some 30.0)
    (Allocation.charged bank ~party:"p")

let test_allocation_prefix_party () =
  let bank = Allocation.create () in
  Allocation.open_account bank ~party:"/O=Grid" ~budget:10.0;
  Allocation.open_account bank ~party:"/O=Grid/O=Fusion" ~budget:10.0;
  Alcotest.(check (option string)) "longest prefix wins" (Some "/O=Grid/O=Fusion")
    (Allocation.prefix_party_of bank (dn "/O=Grid/O=Fusion/CN=Kate"));
  Alcotest.(check (option string)) "shorter prefix fallback" (Some "/O=Grid")
    (Allocation.prefix_party_of bank (dn "/O=Grid/O=Other/CN=X"));
  Alcotest.(check (option string)) "no party" None
    (Allocation.prefix_party_of bank (dn "/O=Elsewhere/CN=Y"))

let test_allocation_invalid_args () =
  let bank = Allocation.create () in
  Alcotest.(check bool) "negative budget raises" true
    (try
       Allocation.open_account bank ~party:"p" ~budget:(-1.0);
       false
     with Invalid_argument _ -> true);
  Allocation.open_account bank ~party:"p" ~budget:1.0;
  Alcotest.(check bool) "duplicate raises" true
    (try
       Allocation.open_account bank ~party:"p" ~budget:1.0;
       false
     with Invalid_argument _ -> true)

let qcheck_allocation_never_negative =
  QCheck.Test.make ~name:"allocation balance never exceeds budget nor goes negative"
    ~count:200
    QCheck.(small_list (pair (int_range 1 50) (int_range 0 60)))
    (fun ops ->
      let bank = Allocation.create () in
      Allocation.open_account bank ~party:"p" ~budget:100.0;
      List.iter
        (fun (amount, actual) ->
          match Allocation.reserve bank ~party:"p" ~amount:(float_of_int amount) with
          | Ok r -> Allocation.settle r ~actual:(float_of_int actual)
          | Error _ -> ())
        ops;
      match Allocation.balance bank ~party:"p" with
      | Some b -> b <= 100.0 +. 1e-9
      | None -> false)

let () =
  Alcotest.run "grid_accounts"
    [ ( "pool",
        [ Alcotest.test_case "acquire/release" `Quick test_pool_acquire_release;
          Alcotest.test_case "holder stickiness" `Quick test_pool_same_holder_same_account;
          Alcotest.test_case "renewal extends" `Quick test_pool_lease_renewal_extends;
          Alcotest.test_case "expiry reclaims" `Quick test_pool_expiry_reclaims;
          Alcotest.test_case "holder_of" `Quick test_pool_holder_of;
          Alcotest.test_case "release unknown" `Quick test_pool_release_unknown;
          Alcotest.test_case "full, then lowest free" `Quick test_pool_full_then_lowest_free;
          Alcotest.test_case "memory follows leases" `Quick test_pool_memory_follows_leases;
          QCheck_alcotest.to_alcotest qcheck_pool_never_double_allocates;
          pinned qcheck_pool_matches_list_model ] );
      ( "sandbox",
        [ Alcotest.test_case "unrestricted" `Quick test_sandbox_unrestricted;
          Alcotest.test_case "cpu limit" `Quick test_sandbox_cpu_limit;
          Alcotest.test_case "memory+walltime" `Quick test_sandbox_memory_and_walltime;
          Alcotest.test_case "paths" `Quick test_sandbox_paths;
          Alcotest.test_case "executables" `Quick test_sandbox_executables;
          Alcotest.test_case "intersect" `Quick test_sandbox_intersect;
          Alcotest.test_case "of_policy_clause" `Quick test_sandbox_of_policy_clause;
          Alcotest.test_case "unenforceable ignored" `Quick
            test_sandbox_of_policy_clause_ignores_unenforceable ] );
      ( "mapper",
        [ Alcotest.test_case "static first" `Quick test_mapper_static_first;
          Alcotest.test_case "dynamic fallback" `Quick test_mapper_dynamic_fallback;
          Alcotest.test_case "no account" `Quick test_mapper_no_account;
          Alcotest.test_case "limits attached" `Quick test_mapper_limits_attached ] );
      ( "allocation",
        [ Alcotest.test_case "lifecycle" `Quick test_allocation_lifecycle;
          Alcotest.test_case "refusal" `Quick test_allocation_refusal;
          Alcotest.test_case "settle idempotent" `Quick test_allocation_settle_idempotent;
          Alcotest.test_case "cancel" `Quick test_allocation_cancel;
          Alcotest.test_case "overrun charged" `Quick test_allocation_overrun_still_charged;
          Alcotest.test_case "prefix party" `Quick test_allocation_prefix_party;
          Alcotest.test_case "invalid args" `Quick test_allocation_invalid_args;
          QCheck_alcotest.to_alcotest qcheck_allocation_never_negative ] ) ]

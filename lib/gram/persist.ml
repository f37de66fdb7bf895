(* Codec for the job manager's durable records.

   Payloads are Grid_store.Codec field records (kind=... plus event
   fields), so the journal stays greppable and `gridctl journal show`
   can print them verbatim. Snapshot entries copy the Job_created frame
   byte for byte — one codec covers both files. *)

type job_entry = {
  contact : string;
  owner : Grid_gsi.Dn.t;
  account : string;
  jobtag : string option;
  rsl : string;
  rsl_fingerprint : string;
  policy_epoch : int option;
  limits : Grid_accounts.Sandbox.limits;
  lrm_job : string option;
  created_at : Grid_sim.Clock.time;
}

type event =
  | Job_created of job_entry
  | Job_state of { contact : string; state : string; at : Grid_sim.Clock.time }
  | Management of {
      contact : string;
      requester : Grid_gsi.Dn.t;
      action : string;
      outcome : string;
      at : Grid_sim.Clock.time;
    }

let fingerprint job = Grid_crypto.Sha256.digest_hex (Grid_rsl.Job.to_string job)

(* --- Encoding ----------------------------------------------------------- *)

let float_field f = Printf.sprintf "%.17g" f

let opt_field key = function None -> [] | Some v -> [ (key, v) ]

let limits_fields (l : Grid_accounts.Sandbox.limits) =
  opt_field "max_cpus" (Option.map string_of_int l.Grid_accounts.Sandbox.max_cpus)
  @ opt_field "max_memory_mb" (Option.map string_of_int l.Grid_accounts.Sandbox.max_memory_mb)
  @ opt_field "max_walltime" (Option.map float_field l.Grid_accounts.Sandbox.max_walltime)
  @ [ ("dirs", Grid_store.Codec.encode_list l.Grid_accounts.Sandbox.allowed_directories);
      ("exes", Grid_store.Codec.encode_list l.Grid_accounts.Sandbox.allowed_executables) ]

let encode = function
  | Job_created e ->
    Grid_store.Codec.encode
      ([ ("kind", "job-created");
         ("contact", e.contact);
         ("owner", Grid_gsi.Dn.to_string e.owner);
         ("account", e.account) ]
      @ opt_field "jobtag" e.jobtag
      @ [ ("rsl", e.rsl); ("rsl_sha256", e.rsl_fingerprint) ]
      @ opt_field "policy_epoch" (Option.map string_of_int e.policy_epoch)
      @ limits_fields e.limits
      @ opt_field "lrm_job" e.lrm_job
      @ [ ("at", float_field e.created_at) ])
  | Job_state { contact; state; at } ->
    Grid_store.Codec.encode
      [ ("kind", "job-state"); ("contact", contact); ("state", state);
        ("at", float_field at) ]
  | Management { contact; requester; action; outcome; at } ->
    Grid_store.Codec.encode
      [ ("kind", "management");
        ("contact", contact);
        ("requester", Grid_gsi.Dn.to_string requester);
        ("action", action);
        ("outcome", outcome);
        ("at", float_field at) ]

(* --- Decoding ----------------------------------------------------------- *)

let ( let* ) = Result.bind

let require = Grid_store.Codec.require
let field = Grid_store.Codec.field

let missing key = Error (Printf.sprintf "missing field %s" key)

let parse_dn s =
  match Grid_gsi.Dn.parse s with
  | dn -> Ok dn
  | exception Grid_gsi.Dn.Parse_error m -> Error (Printf.sprintf "bad DN %S: %s" s m)

let parse_float key s =
  match float_of_string_opt s with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "field %s is not a float: %S" key s)

let parse_int_opt key fields =
  match field fields key with
  | None -> Ok None
  | Some s -> begin
    match int_of_string_opt s with
    | Some i -> Ok (Some i)
    | None -> Error (Printf.sprintf "field %s is not an int: %S" key s)
  end

let parse_limits fields =
  let* max_cpus = parse_int_opt "max_cpus" fields in
  let* max_memory_mb = parse_int_opt "max_memory_mb" fields in
  let* max_walltime =
    match field fields "max_walltime" with
    | None -> Ok None
    | Some s -> Result.map Option.some (parse_float "max_walltime" s)
  in
  let list_of key =
    match field fields key with None -> [] | Some s -> Grid_store.Codec.decode_list s
  in
  Ok
    { Grid_accounts.Sandbox.max_cpus;
      max_memory_mb;
      max_walltime;
      allowed_directories = list_of "dirs";
      allowed_executables = list_of "exes" }

let decode payload =
  let fields = Grid_store.Codec.decode payload in
  let* kind = require fields "kind" in
  let* contact = require fields "contact" in
  let at key =
    match field fields key with None -> missing key | Some s -> parse_float key s
  in
  match kind with
  | "job-created" ->
    let* owner = Result.bind (require fields "owner") parse_dn in
    let* account = require fields "account" in
    let* rsl = require fields "rsl" in
    let* rsl_fingerprint = require fields "rsl_sha256" in
    let* policy_epoch = parse_int_opt "policy_epoch" fields in
    let* limits = parse_limits fields in
    let* created_at = at "at" in
    Ok
      (Job_created
         { contact;
           owner;
           account;
           jobtag = field fields "jobtag";
           rsl;
           rsl_fingerprint;
           policy_epoch;
           limits;
           lrm_job = field fields "lrm_job";
           created_at })
  | "job-state" ->
    let* state = require fields "state" in
    let* at = at "at" in
    Ok (Job_state { contact; state; at })
  | "management" ->
    let* requester = Result.bind (require fields "requester") parse_dn in
    let* action = require fields "action" in
    let* outcome = require fields "outcome" in
    let* at = at "at" in
    Ok (Management { contact; requester; action; outcome; at })
  | other -> Error (Printf.sprintf "unknown record kind %S" other)

let pp_event ppf = function
  | Job_created e ->
    Fmt.pf ppf "%8.3fs created  %s owner=%s account=%s%s epoch=%s lrm=%s" e.created_at
      e.contact (Grid_gsi.Dn.to_string e.owner) e.account
      (match e.jobtag with Some t -> " jobtag=" ^ t | None -> "")
      (match e.policy_epoch with Some n -> string_of_int n | None -> "-")
      (Option.value e.lrm_job ~default:"-")
  | Job_state { contact; state; at } -> Fmt.pf ppf "%8.3fs state    %s -> %s" at contact state
  | Management { contact; requester; action; outcome; at } ->
    Fmt.pf ppf "%8.3fs manage   %s %s by %s: %s" at contact action
      (Grid_gsi.Dn.to_string requester) outcome

(* --- Rebuild ------------------------------------------------------------ *)

type rebuild = {
  entries : (job_entry * Grid_store.Journal.frame) list;
  events : int;
  decode_failures : int;
}

let rebuild ~snapshot ~journal =
  let table : (string, job_entry * Grid_store.Journal.frame) Hashtbl.t =
    Hashtbl.create 32
  in
  let order = ref [] in
  let events = ref 0 in
  let failures = ref 0 in
  let absorb frame =
    match decode (Grid_store.Journal.payload frame) with
    | Error _ -> incr failures
    | Ok event ->
      incr events;
      (match event with
      | Job_created e ->
        if not (Hashtbl.mem table e.contact) then order := e.contact :: !order;
        Hashtbl.replace table e.contact (e, frame)
      | Job_state _ | Management _ ->
        (* Only creation records carry state the JMI must be rebuilt
           from; states and management outcomes are history (the LRM
           survives a job-manager crash and remains authoritative). *)
        ())
  in
  List.iter absorb snapshot;
  List.iter absorb journal;
  let entries = List.rev_map (fun contact -> Hashtbl.find table contact) !order in
  { entries; events = !events; decode_failures = !failures }

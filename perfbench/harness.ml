(* Host-time measurement shared by the workloads.

   Everything here runs on one thread. The meter times only the calls the
   workloads make into the program (requests, engine advance, reloads,
   crash/recover, churn, revocation); load generation and oracle work
   between those calls are not counted, and the times are calibrated
   against host speed. Samples live in Bigarrays, outside the OCaml
   heap, so the benchmark's own bookkeeping does not inflate
   [live_heap_mb]. *)

let now_ns () = Monotonic_clock.now ()
let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

(* --- Growable float buffer off the OCaml heap ---------------------------- *)

module Samples = struct
  type t = {
    mutable data : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
    mutable len : int;
  }

  let make n = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n
  let create () = { data = make 4096; len = 0 }
  let clear t = t.len <- 0
  let length t = t.len
  let get t i = Bigarray.Array1.unsafe_get t.data i

  let add t x =
    if t.len = Bigarray.Array1.dim t.data then begin
      let bigger = make (2 * t.len) in
      Bigarray.Array1.blit t.data (Bigarray.Array1.sub bigger 0 t.len);
      t.data <- bigger
    end;
    Bigarray.Array1.unsafe_set t.data t.len x;
    t.len <- t.len + 1

  let sorted t =
    let a = Array.init t.len (get t) in
    Array.sort Float.compare a;
    a
end

(* Nearest-rank quantile of a sorted array; 0 when empty. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let quantile_of_list xs q = quantile (Array.of_list (List.sort Float.compare xs)) q

(* --- Span tracer ------------------------------------------------------------

   Spans are opened by the benchmark around its calls into each layer and
   kept in memory; the summary (count, total and self time, minor words
   per span name) is computed at the end, and the raw spans are written
   out. A layer's self time is its span minus its direct children. *)

module Trace = struct
  let enabled = ref false
  let request = ref 0

  type span = {
    name : string;
    parent : int;
    req : int;
    start : int64;
    mutable stop : int64;
    words0 : float;
    mutable words : float;
    majors0 : int;  (* major collections so far; top-level spans only *)
    mutable majors : int;
  }

  let spans : span array ref = ref [||]
  let len = ref 0
  let current = ref (-1)

  let push s =
    if !len = Array.length !spans then begin
      let bigger = Array.make (max 1024 (2 * !len)) s in
      Array.blit !spans 0 bigger 0 !len;
      spans := bigger
    end;
    !spans.(!len) <- s;
    incr len

  let clear () =
    len := 0;
    current := -1

  let span name f =
    if not !enabled then f ()
    else begin
      let idx = !len in
      let parent = !current in
      let majors0 = if parent < 0 then (Gc.quick_stat ()).Gc.major_collections else 0 in
      let s =
        { name;
          parent;
          req = !request;
          start = now_ns ();
          stop = 0L;
          words0 = Gc.minor_words ();
          words = 0.0;
          majors0;
          majors = 0 }
      in
      push s;
      current := idx;
      let finish () =
        s.stop <- now_ns ();
        s.words <- Gc.minor_words () -. s.words0;
        if parent < 0 then s.majors <- (Gc.quick_stat ()).Gc.major_collections - majors0;
        current := parent
      in
      match f () with
      | r ->
        finish ();
        r
      | exception e ->
        finish ();
        raise e
    end

  type summary = {
    mutable calls : int;
    mutable total_s : float;
    mutable self_s : float;
    mutable minor_words : float;
  }

  let empty () = { calls = 0; total_s = 0.0; self_s = 0.0; minor_words = 0.0 }

  (* Minor words allocated and major collections run inside top-level
     spans, that is inside calls into the program. *)
  let program_gc () =
    let words = ref 0.0 and majors = ref 0 in
    for i = 0 to !len - 1 do
      let s = !spans.(i) in
      if s.parent < 0 then begin
        words := !words +. s.words;
        majors := !majors + s.majors
      end
    done;
    (!words, !majors)

  let summaries () =
    let table : (string, summary) Hashtbl.t = Hashtbl.create 32 in
    let get name =
      match Hashtbl.find_opt table name with
      | Some s -> s
      | None ->
        let s = empty () in
        Hashtbl.add table name s;
        s
    in
    let dur s = Int64.to_float (Int64.sub s.stop s.start) *. 1e-9 in
    for i = 0 to !len - 1 do
      let s = !spans.(i) in
      let e = get s.name in
      e.calls <- e.calls + 1;
      e.total_s <- e.total_s +. dur s;
      e.self_s <- e.self_s +. dur s;
      e.minor_words <- e.minor_words +. s.words;
      if s.parent >= 0 then begin
        let p = get !spans.(s.parent).name in
        p.self_s <- p.self_s -. dur s
      end
    done;
    table

  let find table name = Option.value (Hashtbl.find_opt table name) ~default:(empty ())

  (* One line per span (name, request id, parent index, start and end in
     ns from the first span, minor words), capped at [limit] lines. *)
  let write ~path ~limit =
    let oc = open_out path in
    Printf.fprintf oc "# index\tname\trequest\tparent\tstart_ns\tend_ns\tminor_words\n";
    let base = if !len > 0 then !spans.(0).start else 0L in
    for i = 0 to min !len limit - 1 do
      let s = !spans.(i) in
      Printf.fprintf oc "%d\t%s\t%d\t%d\t%Ld\t%Ld\t%.0f\n" i s.name s.req s.parent
        (Int64.sub s.start base) (Int64.sub s.stop base) s.words
    done;
    close_out oc
end

(* --- Layer counters, read after each episode ------------------------------- *)

module Counters = struct
  let table : (string, float) Hashtbl.t = Hashtbl.create 64
  let get name = Option.value (Hashtbl.find_opt table name) ~default:0.0
  let add name v = Hashtbl.replace table name (get name +. v)
end

(* --- The load generator's agenda ---------------------------------------------

   Arrivals, follow-ups and operator actions due at simulated times, in
   time order (ties in scheduling order). The load generator advances the
   engine to each one before acting, so requests are paced on the
   simulated clock with one outstanding at a time. *)

module Agenda = struct
  module Key = struct
    type t = float * int

    let compare (a, i) (b, j) =
      match Float.compare a b with 0 -> Int.compare i j | c -> c
  end

  module M = Map.Make (Key)

  type t = {
    mutable items : (unit -> unit) M.t;
    mutable seq : int;
  }

  let create () = { items = M.empty; seq = 0 }

  let at t time f =
    t.seq <- t.seq + 1;
    t.items <- M.add (time, t.seq) f t.items

  let pop t =
    match M.min_binding_opt t.items with
    | None -> None
    | Some (((time, _) as key), f) ->
      t.items <- M.remove key t.items;
      Some (time, f)
end

(* --- Host-speed calibration ---------------------------------------------

   On a shared host, other tenants slow allocation-heavy work by up to
   threefold, in bursts from a second to many minutes, while a pure
   arithmetic loop keeps its speed. The program allocates heavily, so
   its wall times follow these bursts. The meter therefore also times a
   fixed kernel that is benchmark code, not program code, and allocates
   the way the program does: it fills a string hash table and probes it
   while growing an integer map. The kernel runs at the start of each
   episode, after set-up, and then between calls into the program
   whenever [segment_ns] of wall time have passed since it last ran, and
   at the end of the episode. The calls between two kernel runs form a
   segment, and their host times are scaled by [reference_s] over the
   median kernel time of the four runs around the segment. A burst slows
   kernel and program alike and cancels out; a change to the program
   leaves the kernel alone. The figures read as times on a host where the
   kernel takes [reference_s]. *)

module Calibration = struct
  (* The kernel's typical time on the 2-vCPU Xeon VM the benchmark was
     tuned on, in a quiet phase. Any constant would do; this one keeps
     the figures close to that host's raw times. *)
  let reference_s = 0.015
  let segment_ns = 300_000_000L
  let keys = 1 lsl 14

  module Int_map = Map.Make (Int)

  let kernel () =
    let table = Hashtbl.create keys in
    for i = 0 to keys - 1 do
      Hashtbl.replace table ("calibration/" ^ string_of_int (i * 7919)) i
    done;
    let map = ref Int_map.empty and x = ref 1 and sum = ref 0 in
    for _ = 1 to keys do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      let k = !x land (keys - 1) in
      sum := !sum + Hashtbl.find table ("calibration/" ^ string_of_int (k * 7919));
      map := Int_map.add k !sum !map
    done;
    ignore (Sys.opaque_identity (!sum, !map))

  (* Kernel seconds at each segment boundary of the current episode. *)
  let times = Samples.create ()
  let last = ref 0L

  let boundary () =
    let t0 = now_ns () in
    kernel ();
    Samples.add times (seconds_since t0);
    last := now_ns ()

  let start_episode () =
    Samples.clear times;
    boundary ()

  (* The segment calls made now belong to. *)
  let segment () = Samples.length times - 1

  (* Between calls into the program: close the segment when it is due. *)
  let tick () = if Int64.sub (now_ns ()) !last > segment_ns then boundary ()

  (* Per segment, reference time over the host's kernel time then: the
     median of the kernel runs from one before the segment to one after. *)
  let scales () =
    let n = Samples.length times in
    Array.init (max 0 (n - 1)) (fun j ->
        let lo = max 0 (j - 1) and hi = min (n - 1) (j + 2) in
        let around = Array.init (hi - lo + 1) (fun i -> Samples.get times (lo + i)) in
        Array.sort Float.compare around;
        let k = Array.length around in
        let median =
          if k mod 2 = 1 then around.(k / 2) else (around.((k / 2) - 1) +. around.(k / 2)) /. 2.0
        in
        reference_s /. median)
end

(* --- The meter ------------------------------------------------------------

   A run is a warm-up episode followed by whole episodes of identical
   shape. Each episode logs every call into the program; when it ends,
   the calls are scaled by their segment's calibration and summarized.
   The run reports, per metric, the median of its episodes. *)

type episode = {
  setup_s : float;
  req_per_s : float;
  submit_p50 : float;
  submit_p90 : float;
  manage_p50 : float;
  manage_p90 : float;
  growth : float;
  live_heap_mb : float;
}

type kind =
  | Other
  | Submit
  | Manage

let kind_code = function Other -> 0.0 | Submit -> 1.0 | Manage -> 2.0

type meter = {
  mutable program_s : float;  (* uncalibrated host seconds inside program calls *)
  mutable issued : int;  (* requests the load generator sent *)
  mutable attempted : int;
  mutable answered : int;
  mutable failed : int;
  mutable episodes : episode list;  (* newest first *)
  (* the current episode *)
  mutable setup_s : float;  (* uncalibrated *)
  mutable answered0 : int;
  mutable live_heap_mb : float;
  (* one entry per call into the program: its segment, uncalibrated
     seconds, kind, and the requests it answered *)
  call_segment : Samples.t;
  call_seconds : Samples.t;
  call_kind : Samples.t;
  call_requests : Samples.t;
  mutable mismatches : int;
  mutable mismatch_notes : string list;  (* the first few, newest first *)
}

let m =
  { program_s = 0.0;
    issued = 0;
    attempted = 0;
    answered = 0;
    failed = 0;
    episodes = [];
    setup_s = 0.0;
    answered0 = 0;
    live_heap_mb = 0.0;
    call_segment = Samples.create ();
    call_seconds = Samples.create ();
    call_kind = Samples.create ();
    call_requests = Samples.create ();
    mismatches = 0;
    mismatch_notes = [] }

(* Host seconds of each [Resource.recover]. *)
let recoveries : float list ref = ref []

(* Simulated seconds from each STS revocation to a validator applying
   it, in the first measured episode only, so the figure depends on the
   seed and not on how many episodes a run fits. *)
let revocation_latencies : float list ref = ref []
let first_measured_episode () = m.episodes = []

(* A call into the program answering [requests] requests (a batch is one
   call answering many): timed, logged, and spanned under [name] in a
   traced run. Returns the result and the uncalibrated seconds. *)
let timed ?(kind = Other) ?(requests = 0) name f =
  Calibration.tick ();
  let t0 = now_ns () in
  let r = Trace.span name f in
  let dt = seconds_since t0 in
  m.program_s <- m.program_s +. dt;
  Samples.add m.call_segment (float_of_int (Calibration.segment ()));
  Samples.add m.call_seconds dt;
  Samples.add m.call_kind (kind_code kind);
  Samples.add m.call_requests (float_of_int requests);
  (r, dt)

let program name f = fst (timed name f)
let request kind ~requests name f = fst (timed ~kind ~requests name f)

(* Number the next [n] requests sent; returns the first number. Spans
   opened from now on carry it. *)
let issue n =
  let first = m.issued + 1 in
  m.issued <- m.issued + n;
  Trace.request := first;
  first

(* A policy reload: program time, spanned and counted. *)
let reload f =
  let (), dt = timed "policy.reload" f in
  Counters.add "policy.reloads" 1.0;
  Counters.add "policy.reload_s" dt

(* Run the agenda to its end, advancing the engine to each item first. *)
let rec drive agenda ~advance =
  match Agenda.pop agenda with
  | None -> ()
  | Some (t, action) ->
    program "sim.advance" (fun () -> advance t);
    action ();
    drive agenda ~advance

type outcome =
  | Answered
  | Failed

let count = function
  | Answered ->
    m.attempted <- m.attempted + 1;
    m.answered <- m.answered + 1
  | Failed ->
    m.attempted <- m.attempted + 1;
    m.failed <- m.failed + 1

let mismatch note =
  m.mismatches <- m.mismatches + 1;
  if m.mismatches <= 20 then m.mismatch_notes <- note :: m.mismatch_notes

(* Every request sent must have been counted exactly once. *)
let check_accounting ~context =
  if m.issued <> m.attempted then
    mismatch
      (Printf.sprintf "accounting (%s): %d requests sent, %d answered + %d failed" context
         m.issued m.answered m.failed)

(* Build an episode's world: timed as set-up, not as program time. It
   is the episode's first segment. *)
let setup f =
  Calibration.start_episode ();
  List.iter Samples.clear [ m.call_segment; m.call_seconds; m.call_kind; m.call_requests ];
  let t0 = now_ns () in
  let r = f () in
  m.setup_s <- seconds_since t0;
  m.answered0 <- m.answered;
  Calibration.boundary ();
  r

(* The live heap once the episode's traffic is done, while its world is
   still reachable: the resident state the program keeps. *)
let mark_live_heap () =
  Gc.full_major ();
  m.live_heap_mb <- float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1048576.0

(* Host seconds per request over the last tenth of the episode's
   requests, over the same in the first tenth, from the requests and
   seconds so far after each request call. Both tenths fall in one
   episode, so the ratio needs no calibration; the seconds are
   uncalibrated, since segment scales would only add their own noise. *)
let growth ~at ~secs =
  let n = Array.length at in
  if n < 20 then 1.0
  else begin
    let total = at.(n - 1) in
    let rec first i = if at.(i) >= total /. 10.0 then i else first (i + 1) in
    let rec last i = if i = 0 || at.(i - 1) <= total *. 0.9 then i else last (i - 1) in
    let i = first 0 and j = last (n - 1) in
    let before a = if j = 0 then 0.0 else a.(j - 1) in
    let tail = (secs.(n - 1) -. before secs) /. (total -. before at) in
    tail /. (secs.(i) /. at.(i))
  end

let end_episode () =
  Calibration.boundary ();
  let scales = Calibration.scales () in
  let submit = ref [] and manage = ref [] and at = ref [] and secs = ref [] in
  let program = ref 0.0 and raw = ref 0.0 and requests = ref 0.0 in
  for i = 0 to Samples.length m.call_seconds - 1 do
    let dt = Samples.get m.call_seconds i in
    let scaled = dt *. scales.(int_of_float (Samples.get m.call_segment i)) in
    raw := !raw +. dt;
    program := !program +. scaled;
    let kind = Samples.get m.call_kind i in
    if kind > 0.0 then begin
      if kind = 1.0 then submit := scaled :: !submit else manage := scaled :: !manage;
      requests := !requests +. Samples.get m.call_requests i;
      at := !requests :: !at;
      secs := !raw :: !secs
    end
  done;
  let sorted l = let a = Array.of_list l in Array.sort Float.compare a; a in
  let submit = sorted !submit and manage = sorted !manage in
  let answered = float_of_int (m.answered - m.answered0) in
  let e =
    { setup_s = m.setup_s *. scales.(0);
      req_per_s = answered /. !program;
      submit_p50 = quantile submit 0.5;
      submit_p90 = quantile submit 0.9;
      manage_p50 = quantile manage 0.5;
      manage_p90 = quantile manage 0.9;
      growth = growth ~at:(Array.of_list (List.rev !at)) ~secs:(Array.of_list (List.rev !secs));
      live_heap_mb = m.live_heap_mb }
  in
  Printf.eprintf
    "episode %d: %d segments, mean scale %.3f; %.1f req/s (uncalibrated %.1f); setup %.6f s; \
     submit p50/p90 %.1f/%.1f us; manage p50/p90 %.1f/%.1f us; growth %.4f\n%!"
    (List.length m.episodes + 1) (Array.length scales)
    (Array.fold_left ( +. ) 0.0 scales /. float_of_int (Array.length scales))
    e.req_per_s (answered /. !raw) e.setup_s (e.submit_p50 *. 1e6) (e.submit_p90 *. 1e6)
    (e.manage_p50 *. 1e6) (e.manage_p90 *. 1e6) e.growth;
  m.episodes <- e :: m.episodes

(* The median across the run's episodes of a per-episode figure. *)
let across f = quantile_of_list (List.map f m.episodes) 0.5

(* Forget everything measured so far except correctness findings: the
   warm-up episode fills the heap and the code paths, and is not
   reported. Its accounting is checked first. *)
let reset () =
  check_accounting ~context:"warm-up episode";
  m.program_s <- 0.0;
  m.issued <- 0;
  m.attempted <- 0;
  m.answered <- 0;
  m.failed <- 0;
  m.episodes <- [];
  recoveries := [];
  revocation_latencies := [];
  Trace.clear ();
  Hashtbl.reset Counters.table

(* One warm-up episode, then whole episodes until [seconds] of wall time
   have passed (at least one). Episodes are numbered from 0 so each
   derives its inputs from (seed, index). *)
let run_episodes ~seconds episode =
  episode 0;
  reset ();
  let t0 = now_ns () in
  let rec loop i =
    episode i;
    end_episode ();
    if seconds_since t0 < seconds then loop (i + 1)
  in
  loop 1

(* --- Result ------------------------------------------------------------- *)

type metric = string * float * string

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let print_result ~correct (metrics : metric list) =
  let body =
    String.concat ", "
      (List.map
         (fun (name, value, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct m.attempted m.failed body

(* Traced-run wrappers around the callouts the benchmark hands to
   [Gram.Mode]: each consultation becomes a ["callout"] span, and calls,
   decisions and permits are counted. The untraced run passes the
   callouts unwrapped. *)

open Core

let tally decisions permits =
  Harness.Counters.add "callout.calls" 1.0;
  Harness.Counters.add "callout.decisions" (float_of_int decisions);
  Harness.Counters.add "callout.permits" (float_of_int permits)

let callout (c : Callout.Callout.t) : Callout.Callout.t =
 fun q ->
  let d = Harness.Trace.span "callout" (fun () -> c q) in
  tally 1 (if Result.is_ok d then 1 else 0);
  d

let batch (b : Callout.Callout.Batch.t) : Callout.Callout.Batch.t =
  Callout.Callout.Batch.make ~single:(callout b.single) ~many:(fun qs ->
      let ds = Harness.Trace.span "callout" (fun () -> b.many qs) in
      tally (Array.length ds)
        (Array.fold_left (fun n d -> if Result.is_ok d then n + 1 else n) 0 ds);
      ds)

(* Read the end state of a resource's layers after an episode. *)
let resource_counters (r : Gram.Resource.t) =
  let open Harness.Counters in
  (match Gram.Resource.authz_cache r with
  | None -> ()
  | Some c ->
    add "cache.hits" (float_of_int (Callout.Cache.hits c));
    add "cache.misses" (float_of_int (Callout.Cache.misses c));
    add "cache.invalidations" (float_of_int (Callout.Cache.invalidations c));
    add "cache.evictions" (float_of_int (Callout.Cache.evictions c)));
  (match Gram.Resource.store r with
  | None -> ()
  | Some s ->
    add "store.appends" (float_of_int (Store.Store.appends s));
    add "store.snapshots" (float_of_int (Store.Store.snapshots_taken s));
    add "store.journal_bytes" (float_of_int (Store.Store.journal_bytes s)));
  add "audit.records" (float_of_int (Audit.Audit.count (Gram.Resource.audit r)));
  add "sim.messages" (float_of_int (Sim.Network.messages_sent (Gram.Resource.network r)));
  add "lrm.jobs" (float_of_int (List.length (Lrm.Lrm.jobs (Gram.Resource.lrm r))));
  add "gram.jobs_resident" (float_of_int (List.length (Gram.Resource.jobs r)))

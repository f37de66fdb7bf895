(* Dynamic accounts (Section 6.1).

   "Dynamic Accounts are accounts created and configured on the fly by a
   resource management facility[, enabling it] to run jobs ... for users
   that do not have an account on that system." The pool hands out leases
   on a fixed set of template accounts; a lease binds an account to one
   grid identity for a limited time, is renewed on reuse, and is reclaimed
   on release or expiry. A holder that already has a live lease gets the
   same account back — account state (files, quotas) stays coherent within
   a session.

   Nothing here is sized by the pool. Leases are indexed by holder and by
   lease id; account [i] is named when it is granted. The free
   accounts are every slot at or above the high-water mark [next] plus the
   [freed] slots below it, so the lowest free slot is [min freed] if any,
   else [next]. [next] only grows when [freed] is empty, so both are
   bounded by the peak number of live leases. Expiry is a map ordered by
   deadline; a renewal re-keys its lease. *)

type lease = {
  lease_id : string;
  account : string;
  holder : Grid_gsi.Dn.t;
  granted_at : Grid_sim.Clock.time;
  mutable expires_at : Grid_sim.Clock.time;
}

type entry = { lease : lease; slot : int }

module Int_set = Set.Make (Int)

(* Slots are unique among outstanding leases, so they break deadline ties. *)
module Deadlines = Map.Make (struct
  type t = Grid_sim.Clock.time * int

  let compare (a, i) (b, j) =
    let c = Grid_sim.Clock.compare a b in
    if c <> 0 then c else Int.compare i j
end)

type t = {
  prefix : string;
  size : int;
  lease_lifetime : Grid_sim.Clock.time;
  by_holder : entry Grid_gsi.Dn.Tbl.t;
  by_id : (string, entry) Hashtbl.t;
  mutable deadlines : entry Deadlines.t;
  mutable next : int;
  mutable freed : Int_set.t;
  mutable grants : int;
  mutable reuses : int;
  mutable exhaustions : int;
}

type error =
  | Pool_exhausted of { size : int }
  | Unknown_lease of string

let error_to_string = function
  | Pool_exhausted { size } ->
    Printf.sprintf "dynamic account pool exhausted (%d accounts, all leased)" size
  | Unknown_lease id -> "unknown lease: " ^ id

let create ?(prefix = "grid") ~size ~lease_lifetime () =
  if size <= 0 then invalid_arg "Pool.create: size must be positive";
  { prefix;
    size;
    lease_lifetime;
    by_holder = Grid_gsi.Dn.Tbl.create 16;
    by_id = Hashtbl.create 16;
    deadlines = Deadlines.empty;
    next = 0;
    freed = Int_set.empty;
    grants = 0;
    reuses = 0;
    exhaustions = 0 }

let deadline e = (e.lease.expires_at, e.slot)

let take_slot t =
  match Int_set.min_elt_opt t.freed with
  | Some slot ->
    t.freed <- Int_set.remove slot t.freed;
    Some slot
  | None when t.next < t.size ->
    t.next <- t.next + 1;
    Some (t.next - 1)
  | None -> None

let forget t e =
  t.deadlines <- Deadlines.remove (deadline e) t.deadlines;
  Grid_gsi.Dn.Tbl.remove t.by_holder e.lease.holder;
  Hashtbl.remove t.by_id e.lease.lease_id;
  t.freed <- Int_set.add e.slot t.freed

(* Reclaim expired leases; returns how many were collected. A lease is
   live while [now <= expires_at]. *)
let expire t ~now =
  let rec go collected =
    match Deadlines.min_binding_opt t.deadlines with
    | Some ((expires_at, _), e) when now > expires_at ->
      forget t e;
      go (collected + 1)
    | Some _ | None -> collected
  in
  go 0

let acquire t ~now ~holder =
  ignore (expire t ~now);
  match Grid_gsi.Dn.Tbl.find_opt t.by_holder holder with
  | Some e ->
    (* Renew rather than double-allocate. *)
    t.deadlines <- Deadlines.remove (deadline e) t.deadlines;
    e.lease.expires_at <- Grid_sim.Clock.add now t.lease_lifetime;
    t.deadlines <- Deadlines.add (deadline e) e t.deadlines;
    t.reuses <- t.reuses + 1;
    Ok e.lease
  | None -> begin
    match take_slot t with
    | None ->
      t.exhaustions <- t.exhaustions + 1;
      Error (Pool_exhausted { size = t.size })
    | Some slot ->
      let lease =
        { lease_id = Grid_util.Ids.lease ();
          account = Printf.sprintf "%s%03d" t.prefix slot;
          holder;
          granted_at = now;
          expires_at = Grid_sim.Clock.add now t.lease_lifetime }
      in
      let e = { lease; slot } in
      Grid_gsi.Dn.Tbl.replace t.by_holder holder e;
      Hashtbl.replace t.by_id lease.lease_id e;
      t.deadlines <- Deadlines.add (deadline e) e t.deadlines;
      t.grants <- t.grants + 1;
      Ok lease
  end

let release t ~lease_id =
  match Hashtbl.find_opt t.by_id lease_id with
  | Some e ->
    forget t e;
    Ok ()
  | None -> Error (Unknown_lease lease_id)

(* The queries below walk every lease held; none is on the request path. *)

let holder_of t ~account ~now =
  Hashtbl.fold
    (fun _ e found ->
      if now <= e.lease.expires_at && String.equal e.lease.account account then
        Some e.lease.holder
      else found)
    t.by_id None

let size t = t.size

let in_use t ~now =
  Hashtbl.fold (fun _ e n -> if now <= e.lease.expires_at then n + 1 else n) t.by_id 0

let available t ~now = size t - in_use t ~now

type stats = { total_grants : int; total_reuses : int; total_exhaustions : int }

let stats t =
  { total_grants = t.grants; total_reuses = t.reuses; total_exhaustions = t.exhaustions }

(** Dynamic account pool: time-limited leases of template accounts to grid
    identities (paper Section 6.1).

    A new holder gets the lowest-numbered free account. {!acquire},
    {!release} and {!expire} cost O(log live leases) per lease touched;
    {!holder_of}, {!in_use} and {!available} walk the live leases. Memory
    is proportional to the peak number of live leases, not to the pool's
    size. *)

type lease = private {
  lease_id : string;
  account : string;
  holder : Grid_gsi.Dn.t;
  granted_at : Grid_sim.Clock.time;
  mutable expires_at : Grid_sim.Clock.time;
}

type t

type error =
  | Pool_exhausted of { size : int }
  | Unknown_lease of string

val error_to_string : error -> string

val create : ?prefix:string -> size:int -> lease_lifetime:Grid_sim.Clock.time -> unit -> t
(** Accounts are named [<prefix>NNN]. Raises [Invalid_argument] when
    [size <= 0]. *)

val acquire : t -> now:Grid_sim.Clock.time -> holder:Grid_gsi.Dn.t -> (lease, error) result
(** Reclaim the leases expired at [now], then grant (or renew) a lease for
    the holder. A holder with a live lease gets the same account back. *)

val release : t -> lease_id:string -> (unit, error) result
(** Also releases a lease that has expired but not been reclaimed yet. *)

val expire : t -> now:Grid_sim.Clock.time -> int
(** Reclaim expired leases; returns the number collected. *)

val holder_of : t -> account:string -> now:Grid_sim.Clock.time -> Grid_gsi.Dn.t option

val size : t -> int
val in_use : t -> now:Grid_sim.Clock.time -> int
val available : t -> now:Grid_sim.Clock.time -> int

type stats = { total_grants : int; total_reuses : int; total_exhaustions : int }

val stats : t -> stats

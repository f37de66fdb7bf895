(** Append-only, checksummed write-ahead journal over {!Grid_sim.Disk}.

    Record framing: a one-byte magic, a 4-byte big-endian payload
    length, the first 8 bytes of the payload's SHA-256, then the
    payload. Replay scans from the start and stops cleanly at the first
    frame that does not verify — a truncated header, a short payload
    (truncated tail), a checksum mismatch (torn write or bit rot) or a
    bad magic byte — dropping that frame and everything after it. A
    record is therefore either replayed bit-exact or not at all. *)

type sync_policy =
  | Every_append  (** fsync after each record: nothing is ever lost *)
  | Every of int  (** fsync every [n] records (and on {!sync}) *)
  | Manual  (** callers fsync explicitly; crashes may lose the tail *)

type t

val create : ?sync:sync_policy -> disk:Grid_sim.Disk.t -> file:string -> unit -> t
(** [sync] defaults to [Every_append]. Creating a journal never touches
    existing bytes — append continues after whatever is already there. *)

val disk : t -> Grid_sim.Disk.t
val file : t -> string

type frame = private string
(** One record's on-disk bytes: header, checksum and payload. *)

val frame : string -> frame
(** Frame and checksum one payload (one SHA-256). Raises
    [Invalid_argument] on payloads over {!max_record_bytes}. *)

val payload : frame -> string
(** The payload a frame carries. *)

val append : t -> frame -> unit
(** Write one frame, fsyncing per the policy. *)

val sync : t -> unit
val appends : t -> int
val bytes : t -> int
(** Current journal size in bytes (durable + unsynced). *)

val max_record_bytes : int
(** Sanity bound (16 MiB) on a single payload; lengths beyond it are
    treated as corruption during replay. *)

(** {1 Replay} *)

type corruption =
  | Truncated_frame of { offset : int }
      (** fewer bytes than a header, or payload shorter than its length *)
  | Checksum_mismatch of { offset : int }
  | Bad_magic of { offset : int }

val corruption_to_string : corruption -> string

type replay = {
  records : frame list;
      (** verified frames, append order, each byte-identical to what
          {!frame} built for it *)
  valid_bytes : int;  (** prefix length that replayed cleanly *)
  dropped_bytes : int;  (** bytes after [valid_bytes] *)
  corruption : corruption option;
      (** why the scan stopped early; [None] on a clean tail *)
}

val replay : disk:Grid_sim.Disk.t -> file:string -> replay
(** Replay a journal file. A missing file replays as empty. Idempotent:
    replaying twice yields identical results. *)

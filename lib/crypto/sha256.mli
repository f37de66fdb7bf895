(** SHA-256 message digest (FIPS 180-4), implemented from scratch.

    Used for certificate fingerprints and as the hash underlying
    {!Hmac.sha256}. Verified against the FIPS test vectors in the test
    suite. *)

type t = string
(** A digest: exactly 32 raw bytes. *)

val digest : string -> t

val digest_sub : string -> off:int -> len:int -> t
(** [digest_sub s ~off ~len = digest (String.sub s off len)], without
    the copy. Raises [Invalid_argument] on a range outside [s]. *)

val to_hex : t -> string

val digest_hex : string -> string
(** [digest_hex msg = to_hex (digest msg)]. *)

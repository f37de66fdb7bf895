(* Checksummed record framing over the simulated disk.

   Frame layout: magic 0xA7, 4-byte big-endian payload length, 8-byte
   checksum (SHA-256 prefix of the payload), payload. 13 bytes of
   header per record. A frame is built once, from its payload, and its
   bytes are what both the journal and every snapshot store. *)

let magic = '\xa7'
let header_bytes = 13
let checksum_bytes = 8
let max_record_bytes = 16 * 1024 * 1024

type sync_policy =
  | Every_append
  | Every of int
  | Manual

type t = {
  disk : Grid_sim.Disk.t;
  file : string;
  sync_policy : sync_policy;
  mutable appends : int;
  mutable unsynced_appends : int;
}

let create ?(sync = Every_append) ~disk ~file () =
  (match sync with
  | Every n when n <= 0 -> invalid_arg "Journal: sync interval must be positive"
  | Every _ | Every_append | Manual -> ());
  { disk; file; sync_policy = sync; appends = 0; unsynced_appends = 0 }

let disk t = t.disk
let file t = t.file
let appends t = t.appends
let bytes t = Grid_sim.Disk.size t.disk ~file:t.file

type frame = string

let frame payload =
  let len = String.length payload in
  if len > max_record_bytes then
    invalid_arg
      (Printf.sprintf "Journal.frame: payload of %d bytes exceeds the %d-byte bound" len
         max_record_bytes);
  let buf = Bytes.create (header_bytes + len) in
  Bytes.set buf 0 magic;
  Bytes.set_int32_be buf 1 (Int32.of_int len);
  Bytes.blit_string (Grid_crypto.Sha256.digest payload) 0 buf 5 checksum_bytes;
  Bytes.blit_string payload 0 buf header_bytes len;
  Bytes.unsafe_to_string buf

let payload frame = String.sub frame header_bytes (String.length frame - header_bytes)

let sync t =
  ignore (Grid_sim.Disk.sync t.disk ~file:t.file);
  t.unsynced_appends <- 0

let append t (frame : frame) =
  Grid_sim.Disk.append t.disk ~file:t.file frame;
  t.appends <- t.appends + 1;
  t.unsynced_appends <- t.unsynced_appends + 1;
  match t.sync_policy with
  | Every_append -> sync t
  | Every n -> if t.unsynced_appends >= n then sync t
  | Manual -> ()

(* --- Replay ------------------------------------------------------------ *)

type corruption =
  | Truncated_frame of { offset : int }
  | Checksum_mismatch of { offset : int }
  | Bad_magic of { offset : int }

let corruption_to_string = function
  | Truncated_frame { offset } -> Printf.sprintf "truncated frame at byte %d" offset
  | Checksum_mismatch { offset } -> Printf.sprintf "checksum mismatch at byte %d" offset
  | Bad_magic { offset } -> Printf.sprintf "bad magic at byte %d" offset

type replay = {
  records : frame list;
  valid_bytes : int;
  dropped_bytes : int;
  corruption : corruption option;
}

let replay ~disk ~file =
  match Grid_sim.Disk.read disk ~file with
  | None -> { records = []; valid_bytes = 0; dropped_bytes = 0; corruption = None }
  | Some data ->
    let total = String.length data in
    let records = ref [] in
    let offset = ref 0 in
    let stop = ref None in
    let finished = ref false in
    while not !finished do
      let at = !offset in
      if at = total then finished := true
      else if total - at < header_bytes then begin
        stop := Some (Truncated_frame { offset = at });
        finished := true
      end
      else if data.[at] <> magic then begin
        stop := Some (Bad_magic { offset = at });
        finished := true
      end
      else begin
        let len =
          (Char.code data.[at + 1] lsl 24)
          lor (Char.code data.[at + 2] lsl 16)
          lor (Char.code data.[at + 3] lsl 8)
          lor Char.code data.[at + 4]
        in
        if len > max_record_bytes then begin
          (* An absurd length is corruption, not a huge record. *)
          stop := Some (Checksum_mismatch { offset = at });
          finished := true
        end
        else if total - at - header_bytes < len then begin
          stop := Some (Truncated_frame { offset = at });
          finished := true
        end
        else begin
          (* The stored checksum is exactly 8 bytes: compare it with the
             digest's prefix as one 64-bit word. *)
          let digest =
            Grid_crypto.Sha256.digest_sub data ~off:(at + header_bytes) ~len
          in
          if
            not
              (Int64.equal (String.get_int64_be data (at + 5))
                 (String.get_int64_be digest 0))
          then begin
            stop := Some (Checksum_mismatch { offset = at });
            finished := true
          end
          else begin
            records := String.sub data at (header_bytes + len) :: !records;
            offset := at + header_bytes + len
          end
        end
      end
    done;
    { records = List.rev !records;
      valid_bytes = !offset;
      dropped_bytes = total - !offset;
      corruption = !stop }

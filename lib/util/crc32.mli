(** CRC-32 checksums (IEEE 802.3 polynomial, as in zlib and gzip).

    Used by the session layer to seal snapshot files and to fingerprint
    write-ahead journal prefixes, and by the serving layer to seal wire
    frames: a CRC mismatch on load means the bytes were torn or corrupted
    and the reader must fall back, never trust the content. Four bytes
    per step (slicing-by-4), no allocation. *)

val string : string -> int
(** CRC-32 of a whole string. [string "123456789" = 0xCBF43926]. *)

val update : int -> string -> int
(** Incremental form: [update (string a) b = string (a ^ b)], with
    [update 0 s = string s]. Lets a writer maintain the checksum of an
    append-only stream without rereading it. *)

val update_sub : int -> Bytes.t -> int -> int -> int
(** [update_sub crc b off len] extends [crc] over the [len] bytes of [b]
    at [off]: [update crc (Bytes.sub_string b off len)] without the copy.
    @raise Invalid_argument when the slice is out of bounds. *)

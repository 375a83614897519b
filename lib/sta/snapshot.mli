(** Versioned binary snapshot container.

    A snapshot file wraps an opaque payload (for sessions: the
    marshalled preprocessed context, caches and override state — see
    [Session.save_snapshot]) in a self-checking frame: magic, format
    version, engine fingerprint (MD5 of the running executable — the
    payload is an OCaml [Marshal] image, only readable by the build
    that wrote it), payload length, and payload MD5. {!read} verifies
    the whole frame before returning the payload, so corrupt or
    mismatched files surface as structured {!Error.t} values, never as
    a segfault inside [Marshal] or a silently wrong answer. *)

(** Current container format version, stored in the header. *)
val format_version : int

(** Byte offsets of the version and fingerprint header fields —
    exposed so tests can corrupt them surgically. *)
val version_offset : int
val fingerprint_offset : int

(** [write ~path payload] frames [payload] and writes it atomically:
    the bytes land in a temp file in [path]'s directory which is then
    renamed over [path].
    @raise Error.Error with [Error.Io] on filesystem failure. *)
val write : path:string -> string -> unit

(** [key ~path] names the payload a snapshot file holds without reading
    the payload: the hex of the 48-byte frame header (magic, format
    version, engine fingerprint, payload length and payload MD5), or of
    the whole file when it is shorter than a header. Two files that
    {!read} accepts have the same key exactly when this build wrote the
    same payload to both; a file {!read} rejects may share a key with
    one it accepts only when the two differ in their payload bytes.
    @raise Sys_error when the file cannot be opened or read. *)
val key : path:string -> string

(** [read ~path] returns the verified payload, or [Error.Io] when the
    file cannot be read, or [Error.Invalid] when it is not a snapshot,
    is truncated or bit-rotted, has a different format version, or was
    written by a different engine build. *)
val read : path:string -> (string, Error.t) result

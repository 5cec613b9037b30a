(** Framed, checksummed binary files.

    The persistence substrate of machine checkpoints
    ({!Ccs_exec.Checkpoint}, which also hold multiprocessor sessions) and
    the serve daemon's plan cache: an 8-byte magic, a format version, the
    payload length and an FNV-1a 64-bit checksum, followed by the payload.
    All scalars are little-endian 64-bit, so files are portable across
    word sizes.  {!read_file} validates the entire frame before returning
    the payload; truncation, bit corruption and version skew come back as
    structured {!Error.t} values ([Checkpoint_corrupt],
    [Checkpoint_version]) instead of garbage state; a file with a foreign
    magic is [Checkpoint_corrupt]. *)

(** Payload writer: scalars and arrays appended to a growing buffer. *)
module W : sig
  type t

  val create : unit -> t
  val int : t -> int -> unit
  val float : t -> float -> unit
  val string : t -> string -> unit
  val int_array : t -> int array -> unit
  val float_array : t -> float array -> unit
  val contents : t -> string
end

(** Payload reader: bounds-checked cursor over a payload string.  Any
    overrun or implausible length raises {!Error.Error} with
    [Checkpoint_corrupt] naming the originating file. *)
module R : sig
  type t

  val of_string : path:string -> string -> t
  val int : t -> int
  val float : t -> float
  val string : t -> string
  val int_array : t -> int array
  val float_array : t -> float array

  val expect_end : t -> unit
  (** Fails with [Checkpoint_corrupt] unless the cursor consumed the whole
      payload — catches writer/reader schema drift. *)
end

val write_atomic : ?binary:bool -> path:string -> string -> unit
(** [write_atomic ~path content] writes [content] to a uniquely named
    temp file in [path]'s directory (pid + per-process counter, opened
    with [O_EXCL]) and renames it into place — the atomic-write
    discipline shared by every writer in the repository (checkpoints,
    metrics/log snapshots, bench JSON, trace exports).  Unlike a fixed
    [path ^ ".tmp"], concurrent writers (daemon workers, parallel bench
    runs) can never open each other's temp file or rename a half-written
    rival into place; the last rename wins with a complete document.  The
    temp file is removed on failure.  [binary] (default [false]) selects
    binary mode for the temp channel.
    @raise Sys_error on I/O failure. *)

val write_file : path:string -> magic:string -> version:int -> string -> unit
(** [write_file ~path ~magic ~version payload] frames the payload and
    writes it with {!write_atomic}, so a crash mid-write never leaves a
    torn frame behind.
    @raise Invalid_argument unless [magic] is exactly 8 bytes.
    @raise Sys_error on I/O failure. *)

val read_file :
  path:string -> magic:string -> version:int -> unit -> (string, Error.t) result
(** Read a framed file back, validating magic, version, declared length and
    checksum.  Errors: [Io] (unreadable), [Checkpoint_corrupt] (framing or
    checksum), [Checkpoint_version] (format skew). *)

val fnv1a64 : string -> int
(** The checksum used by the frame (exposed for tests). *)

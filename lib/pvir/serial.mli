(** Binary serialization of PVIR programs — the bytecode distribution
    format.

    Compact varint-based encoding; annotations are stored as a skippable
    section so readers that do not understand a key can ignore it.
    [decode (encode p)] reproduces [p] exactly (checked by round-trip
    property tests).

    The decoder treats its input as *untrusted*: every malformed stream —
    random bytes, truncation, bit flips, adversarial length fields,
    deeply-nested annotations — is rejected with {!Corrupt} carrying the
    byte offset where decoding stopped.  No other exception escapes, no
    allocation is driven by a length field beyond the size of the input,
    and recursion depth is bounded (checked by the fuzz suite in
    [test_fuzz_serial]). *)

(** Why a stream was rejected: byte offset + reason. *)
type corruption = { offset : int; reason : string }

(** Raised by {!decode} / {!of_file} on malformed input. *)
exception Corrupt of corruption

val corruption_to_string : corruption -> string

(** Decode-time resource bounds (see {!default_limits}). *)
type limits = {
  max_vec_lanes : int;  (** lanes in a vector type or value *)
  max_regs : int;  (** virtual registers per function *)
  max_global_elems : int;  (** elements per global array *)
  max_annot_depth : int;  (** nesting of list-valued annotations *)
}

val default_limits : limits

(** File magic ("PVIR") and format version. *)
val magic : string

val version : int

(** {2 Codec primitives}

    The varint reader/writer core is exposed so sibling codecs (the
    snapshot format in {!Ckpt}) share one hardened implementation — same
    bounds discipline, same {!Corrupt} contract — instead of growing a
    second, subtly different decoder. *)

type writer = Buffer.t

val w_u8 : writer -> int -> unit
val w_varint : writer -> int64 -> unit
val w_int : writer -> int -> unit
val w_svarint : writer -> int64 -> unit
val w_string : writer -> string -> unit
val w_f64 : writer -> float -> unit
val w_bool : writer -> bool -> unit
val w_option : writer -> (writer -> 'a -> unit) -> 'a option -> unit
val w_list : writer -> (writer -> 'a -> unit) -> 'a list -> unit
val w_value : writer -> Value.t -> unit

type reader = { buf : string; mutable pos : int; lim : limits }

(** Raise {!Corrupt} at the reader's current offset. *)
val corrupt : reader -> ('a, unit, string, 'b) format4 -> 'a

val remaining : reader -> int
val r_u8 : reader -> int
val r_varint : reader -> int64
val r_int : reader -> int
val r_svarint : reader -> int64
val r_string : reader -> string
val r_f64 : reader -> float
val r_bool : reader -> bool
val r_option : reader -> (reader -> 'a) -> 'a option

(** Check a claimed element count against the bytes remaining, {i before}
    any allocation it would drive. *)
val r_count : reader -> int -> unit

val r_list : reader -> (reader -> 'a) -> 'a list
val r_value : reader -> Value.t

(** Serialize a program to its binary bytecode form. *)
val encode : Prog.t -> string

(** The program's one identity: MD5 hex of {!encode}.  Snapshots, the
    AOT plugin cache and the compile service all name a program by it.
    [decode (encode p) = p], so equal digests mean equal programs, and
    [encode (decode b) = b] on everything {!encode} produces, so a cache
    keyed on a request's raw bytes loses no hits. *)
val digest : Prog.t -> string

(** Parse binary bytecode back into a program.
    @raise Corrupt on malformed input. *)
val decode : ?limits:limits -> string -> Prog.t

(** Exceptionless {!decode} for callers at the trust boundary. *)
val decode_result : ?limits:limits -> string -> (Prog.t, corruption) result

(** Encode with every annotation stripped — the size baseline of the
    compactness experiment (E5). *)
val encode_stripped : Prog.t -> string

val to_file : string -> Prog.t -> unit
val of_file : string -> Prog.t

(** Content-addressed cache keys for the split-compilation service.

    A compiled artifact is a pure function of the distribution bytes and
    the machine descriptor, so the key is the pair of their digests:

    - the program — MD5 of the request's raw bytecode, which is
      {!Pvir.Serial.digest} of the program it decodes to.  Annotations
      are part of the bytes, so re-annotating a program moves the key;
    - the machine descriptor — {!Pvmach.Machine.descriptor_dump}, i.e.
      register files, SIMD shape, capabilities and the full cost table
      (the name alone would not survive a descriptor edit). *)

type t = {
  prog : string;  (** digest of the distribution bytes *)
  machine : string;  (** digest of the machine descriptor *)
}

let hex s = Digest.to_hex (Digest.string s)

(** Key of untrusted request bytes, derived without decoding them. *)
let of_bytecode ~(machine : Pvmach.Machine.t) (bytecode : string) : t =
  {
    prog = hex bytecode;
    machine = hex (Pvmach.Machine.descriptor_dump machine);
  }

let of_program ~machine (p : Pvir.Prog.t) : t =
  of_bytecode ~machine (Pvir.Serial.encode p)

(** Flat form used as hash-table key and in artifact headers. *)
let to_string k = Printf.sprintf "%s/%s" k.prog k.machine

(** Flat byte-addressed memory of the virtual machine.

    One address space shared by globals (low addresses) and the call stack
    (growing down from the top).  All accesses are bounds-checked; a fault
    raises {!Fault} rather than corrupting the host.

    Host allocation is capped: like the interpreter's fuel budget, the cap
    is a configurable resource limit ({!default_alloc_limit} bytes unless
    overridden), so a hostile module that talks a loader into a huge
    address space raises the structured {!Limit} instead of OOM-ing the
    host device. *)

exception Fault of string

(** Structured resource-limit trap: the requested allocation exceeds the
    configured cap (distinct from {!Fault}, which is an in-bounds error of
    the guest program). *)
exception Limit of string

let fault fmt = Printf.ksprintf (fun s -> raise (Fault s)) fmt

(** 256 MiB — generous for an embedded-device model, far below anything
    that threatens the host. *)
let default_alloc_limit = 256 * 1024 * 1024

type t = {
  bytes : Bytes.t;
  size : int;
  null_guard : int;
  alloc_limit : int;  (** the cap this memory was created under *)
}

(** [create ?null_guard ?alloc_limit size] — the first [null_guard] bytes
    (default 8) are unmapped, so null-pointer dereferences fault.
    @raise Limit if [size] exceeds [alloc_limit]. *)
let create ?(null_guard = 8) ?(alloc_limit = default_alloc_limit) size =
  if size <= 0 then invalid_arg "Memory.create: non-positive size";
  if size > alloc_limit then
    raise
      (Limit
         (Printf.sprintf
            "VM memory of %d bytes exceeds the allocation cap of %d bytes"
            size alloc_limit));
  if null_guard < 0 || null_guard >= size then
    invalid_arg "Memory.create: bad null guard";
  { bytes = Bytes.make size '\000'; size; null_guard; alloc_limit }

let size m = m.size

(** Headroom left under the allocation cap (telemetry). *)
let alloc_headroom m = m.alloc_limit - m.size

let fault_access m ea len =
  fault "access [0x%Lx, +%d) outside memory of %d bytes" ea len m.size

(* [addr > size - len], not [addr + len > size]: the sum wraps for
   addresses near [max_int] and would let the access through. *)
let check m addr len =
  if addr < m.null_guard || len < 0 || addr > m.size - len then
    fault_access m (Int64.of_int addr) len

(** Guest addresses are unsigned 64-bit, and [base + off] wraps modulo
    2{^64}.  [index ea] is [ea] as a host [int] when [ea < 2{^62}], which
    covers every address a memory can map, and negative otherwise (bit 63
    included), so the bounds test alone rejects every larger address: the
    conversion adds no comparison. *)
let index ea = Int64.to_int ea lor Int64.to_int (Int64.shift_right ea 63)

(** [check_at m base off len] is the host index of the [len]-byte guest
    access at [base + off].
    @raise Fault naming the exact 64-bit address when it is unmapped. *)
let[@inline] check_at m base off len =
  let ea = Int64.add base (Int64.of_int off) in
  let a = index ea in
  if a < m.null_guard || a > m.size - len then fault_access m ea len;
  a

(** [load m base off ty] reads a value of type [ty] at guest address
    [base + off]. *)
let[@inline] load m base off (ty : Pvir.Types.t) =
  Pvir.Value.read_bytes m.bytes (check_at m base off (Pvir.Types.size ty)) ty

(** [load_sized m base off size ty] is [load m base off ty] for callers
    that have already computed [size = Types.size ty] (the pre-decoded
    engines do, once per decoded instruction). *)
let[@inline] load_sized m base off size (ty : Pvir.Types.t) =
  Pvir.Value.read_bytes m.bytes (check_at m base off size) ty

(** [store m base off v] writes [v] at guest address [base + off]. *)
let[@inline] store m base off (v : Pvir.Value.t) =
  Pvir.Value.write_bytes m.bytes
    (check_at m base off (Pvir.Types.size (Pvir.Value.ty v)))
    v

(** Whole-image copy-out, for checkpointing: every byte, including the
    null guard (all zero by construction) — so two memories with equal
    contents produce equal snapshots. *)
let contents m = Bytes.to_string m.bytes

(** Whole-image copy-in, for restore.  The caller (snapshot validation)
    guarantees the size matches; a mismatch here is a host bug. *)
let overwrite m s =
  if String.length s <> m.size then
    invalid_arg "Memory.overwrite: image size mismatch";
  Bytes.blit_string s 0 m.bytes 0 m.size

let fill m ~addr ~len byte =
  check m addr len;
  Bytes.fill m.bytes addr len (Char.chr (byte land 0xFF))

(** Read a whole array of [count] elements of scalar type [s] at [addr]
    (convenient in tests and harnesses). *)
let load_array m addr s count =
  let esz = Pvir.Types.scalar_size s in
  check m addr (esz * count);
  Array.init count (fun i ->
      Pvir.Value.read_bytes m.bytes (addr + (i * esz)) (Pvir.Types.Scalar s))

let store_array m addr (vs : Pvir.Value.t array) =
  Array.iteri
    (fun i v ->
      let esz = Pvir.Types.size (Pvir.Value.ty v) in
      store m (Int64.of_int addr) (i * esz) v)
    vs

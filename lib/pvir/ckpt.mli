(** Binary snapshot format for checkpointed executions.

    Target-neutral state of a running PVIR activation captured at a
    safepoint: memory image, stack pointer, counters, fuel, pending
    output, and the virtual-register call stack.  The same bytes restore
    into any host engine (tree-walking, threaded, AOT); the encoding is
    canonical, so engines checkpointing the same abstract state produce
    byte-identical snapshots.

    Decoding treats input as untrusted and shares {!Serial}'s hardening
    contract: every malformed stream raises {!Serial.Corrupt}, nothing
    else, and no claimed length drives an allocation beyond the size of
    the input. *)

val magic : string
val version : int

(** One activation record, innermost first.  [ck_ip] is the next
    instruction index in block [ck_block]; for outer frames the
    instruction at [ck_ip - 1] is the pending [Call] and [ck_dst] its
    destination.  [ck_sp] is the stack pointer restored when the frame
    returns. *)
type frame = {
  ck_fn : string;
  ck_block : int;
  ck_ip : int;
  ck_dst : int option;
  ck_regs : (int * Value.t) list;  (** initialized registers, sorted *)
  ck_sp : int;
}

type t = {
  ck_prog : string;  (** {!Serial.digest} of the program *)
  ck_mem : string;  (** full guest memory image *)
  ck_gsp : int;  (** stack pointer at capture *)
  ck_cycles : int64;
  ck_instrs : int64;
  ck_calls : int;
  ck_fuel : int64;  (** fuel remaining at capture *)
  ck_output : string;  (** host output emitted so far *)
  ck_frames : frame list;  (** call stack, innermost first *)
}

val encode : t -> string

(** @raise Serial.Corrupt on malformed input. *)
val decode : ?limits:Serial.limits -> string -> t

val decode_result :
  ?limits:Serial.limits -> string -> (t, Serial.corruption) result

val to_file : string -> t -> unit
val of_file : string -> t

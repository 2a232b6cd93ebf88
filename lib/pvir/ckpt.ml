(** Binary snapshot format for checkpointed executions.

    A snapshot is the target-neutral state of a running PVIR activation,
    captured at a safepoint (a block boundary): the guest memory image,
    stack pointer, accounting counters, remaining fuel, pending host
    output, and the virtual-register call stack.  It deliberately
    contains no host-engine state — the same bytes restore into the
    tree-walking, threaded or AOT engine — and no program text: programs
    travel through {!Serial}; a snapshot names its program by digest and
    is only valid against a bit-identical bytecode image.

    The codec reuses {!Serial}'s reader/writer core so a snapshot
    received over the migration channel is exactly as adversarially
    hardened as bytecode: every malformed stream is rejected with
    {!Serial.Corrupt}, never another exception, and no length field
    drives an allocation beyond the size of the input.

    Encoding is canonical: register lists are sorted by strictly
    increasing index and only initialized registers appear, so two
    engines checkpointing the same abstract state produce byte-identical
    snapshots (the migration oracle depends on this). *)

let magic = "PVCK"
let version = 1

(** One activation record of the guest call stack, innermost first.
    [ck_ip] is the index of the next instruction to execute in block
    [ck_block]; for every frame but the innermost, the instruction at
    [ck_ip - 1] is the [Call] being waited on and [ck_dst] is its
    destination register (if any). [ck_sp] is the stack pointer to
    restore when this frame returns (callee allocas unwind). *)
type frame = {
  ck_fn : string;
  ck_block : int;  (** block label *)
  ck_ip : int;  (** resume instruction index within the block *)
  ck_dst : int option;  (** pending call destination (outer frames) *)
  ck_regs : (int * Value.t) list;  (** initialized registers, sorted *)
  ck_sp : int;  (** sp to restore on return from this frame *)
}

type t = {
  ck_prog : string;  (** MD5 hex digest of [Serial.encode prog] *)
  ck_mem : string;  (** full guest memory image *)
  ck_gsp : int;  (** stack pointer at capture *)
  ck_cycles : int64;
  ck_instrs : int64;
  ck_calls : int;
  ck_fuel : int64;  (** fuel remaining at capture *)
  ck_output : string;  (** host output emitted so far *)
  ck_frames : frame list;  (** call stack, innermost first *)
}

(* ---------------- encode ---------------- *)

let w_frame b (f : frame) =
  Serial.w_string b f.ck_fn;
  Serial.w_int b f.ck_block;
  Serial.w_int b f.ck_ip;
  Serial.w_option b Serial.w_int f.ck_dst;
  Serial.w_list b
    (fun b (r, v) ->
      Serial.w_int b r;
      Serial.w_value b v)
    f.ck_regs;
  Serial.w_int b f.ck_sp

let encode (s : t) : string =
  let b = Buffer.create (String.length s.ck_mem + 256) in
  Buffer.add_string b magic;
  Serial.w_u8 b version;
  Serial.w_string b s.ck_prog;
  Serial.w_string b s.ck_mem;
  Serial.w_int b s.ck_gsp;
  Serial.w_varint b s.ck_cycles;
  Serial.w_varint b s.ck_instrs;
  Serial.w_int b s.ck_calls;
  Serial.w_varint b s.ck_fuel;
  Serial.w_string b s.ck_output;
  Serial.w_list b w_frame s.ck_frames;
  Buffer.contents b

(* ---------------- decode ---------------- *)

(* Counters travel as unsigned varints; a value with bit 63 set decodes
   to a negative OCaml int64, which no real execution produces. *)
let r_counter r what =
  let v = Serial.r_varint r in
  if Int64.compare v 0L < 0 then Serial.corrupt r "negative %s counter" what;
  v

let r_frame r : frame =
  let ck_fn = Serial.r_string r in
  let ck_block = Serial.r_int r in
  if ck_block < 0 then Serial.corrupt r "bad block label %d" ck_block;
  let ck_ip = Serial.r_int r in
  if ck_ip < 0 then Serial.corrupt r "bad instruction index %d" ck_ip;
  let ck_dst = Serial.r_option r Serial.r_int in
  (match ck_dst with
  | Some d when d < 0 || d >= r.Serial.lim.max_regs ->
    Serial.corrupt r "bad call destination r%d" d
  | _ -> ());
  (* Strictly increasing register indices make the encoding canonical
     (and reject duplicates in one check). *)
  let last = ref (-1) in
  let ck_regs =
    Serial.r_list r (fun r ->
        let reg = Serial.r_int r in
        if reg <= !last then
          Serial.corrupt r "register list not strictly increasing at r%d" reg;
        if reg >= r.Serial.lim.max_regs then
          Serial.corrupt r "register r%d over limit" reg;
        last := reg;
        let v = Serial.r_value r in
        (reg, v))
  in
  let ck_sp = Serial.r_int r in
  if ck_sp < 0 then Serial.corrupt r "bad frame stack pointer %d" ck_sp;
  { ck_fn; ck_block; ck_ip; ck_dst; ck_regs; ck_sp }

let decode ?(limits = Serial.default_limits) (s : string) : t =
  let r = { Serial.buf = s; pos = 0; lim = limits } in
  if String.length s < 5 || not (String.equal (String.sub s 0 4) magic) then
    Serial.corrupt r "bad snapshot magic";
  r.Serial.pos <- 4;
  (* Belt and braces, same as [Serial.decode]: only [Corrupt] may escape
     on any input; anything else slipping through a future reader bug is
     converted at the current offset instead of crashing the restorer. *)
  try
    let v = Serial.r_u8 r in
    if v <> version then Serial.corrupt r "unsupported snapshot version %d" v;
    let ck_prog = Serial.r_string r in
    if String.length ck_prog <> 32 then
      Serial.corrupt r "bad program digest length %d" (String.length ck_prog);
    let ck_mem = Serial.r_string r in
    let ck_gsp = Serial.r_int r in
    if ck_gsp < 0 || ck_gsp > String.length ck_mem then
      Serial.corrupt r "stack pointer %d outside memory image" ck_gsp;
    let ck_cycles = r_counter r "cycle" in
    let ck_instrs = r_counter r "instruction" in
    let ck_calls = Serial.r_int r in
    if ck_calls < 0 then Serial.corrupt r "negative call counter";
    let ck_fuel = r_counter r "fuel" in
    let ck_output = Serial.r_string r in
    let ck_frames = Serial.r_list r r_frame in
    if ck_frames = [] then Serial.corrupt r "snapshot has no frames";
    if Serial.remaining r <> 0 then
      Serial.corrupt r "%d trailing bytes" (Serial.remaining r);
    {
      ck_prog;
      ck_mem;
      ck_gsp;
      ck_cycles;
      ck_instrs;
      ck_calls;
      ck_fuel;
      ck_output;
      ck_frames;
    }
  with
  | Serial.Corrupt _ as e -> raise e
  | Stack_overflow -> Serial.corrupt r "decoder recursion limit"
  | Invalid_argument m | Failure m ->
    Serial.corrupt r "decoder invariant: %s" m

let decode_result ?limits (s : string) : (t, Serial.corruption) result =
  match decode ?limits s with
  | snap -> Ok snap
  | exception Serial.Corrupt c -> Error c

let to_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (encode s))

let of_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      decode (really_input_string ic n))

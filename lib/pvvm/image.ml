(** Loaded program image: the runtime's view of a PVIR program after the
    load step of the program lifetime (§2.2 of the paper).

    Loading verifies the bytecode, lays out globals in low memory and runs
    their initializers.  Global addresses become load-time constants, which
    is what lets the online compiler burn them into the generated code. *)

(** Where the globals live: everything the online compiler needs to know
    about an image, without its memory. *)
type layout = {
  prog : Pvir.Prog.t;
  global_addr : (string, int) Hashtbl.t;
  globals_end : int;  (** first free byte after the globals *)
  inits : (int * Pvir.Value.t array) list;
      (** initial contents and their addresses, in declaration order *)
}

type t = {
  prog : Pvir.Prog.t;
  mem : Memory.t;
  global_addr : (string, int) Hashtbl.t;
  globals_end : int;  (** first free byte after the globals *)
}

let align8 n = (n + 7) land lnot 7

(** [layout ?mem_size prog] verifies [prog], checks that it is linked and
    assigns every global its address in low memory, allocating nothing
    the size of the address space.
    @raise Pvir.Verify.Error if the bytecode does not verify.
    @raise Memory.Fault if the globals do not fit in [mem_size] bytes. *)
let layout ?(mem_size = 1 lsl 20) (prog : Pvir.Prog.t) : layout =
  Pvir.Verify.program prog;
  (* a module with unresolved externs must be linked before it can run *)
  List.iter
    (fun (e : Pvir.Prog.extern) ->
      if
        Pvir.Prog.find_func prog e.Pvir.Prog.ename = None
        && Pvir.Prog.intrinsic_sig e.Pvir.Prog.ename = None
      then
        raise
          (Pvir.Verify.Error
             (Printf.sprintf "unresolved extern @%s: link the module first"
                e.Pvir.Prog.ename)))
    prog.Pvir.Prog.externs;
  let global_addr = Hashtbl.create 16 in
  let cursor = ref 8 (* keep address 0 as an unmapped null *) in
  let inits =
    List.filter_map
      (fun (g : Pvir.Prog.global) ->
        let addr = !cursor in
        Hashtbl.replace global_addr g.gname addr;
        cursor := align8 (addr + Pvir.Prog.global_size g);
        Option.map (fun init -> (addr, init)) g.ginit)
      prog.globals
  in
  if !cursor >= mem_size then
    Memory.fault "globals (%d bytes) exceed memory (%d bytes)" !cursor mem_size;
  { prog; global_addr; globals_end = !cursor; inits }

(** [load ?mem_size ?alloc_limit prog] is {!layout} plus a fresh memory
    holding the globals' initial values.
    @raise Pvir.Verify.Error if the bytecode does not verify.
    @raise Memory.Limit if [mem_size] exceeds [alloc_limit]
    (default {!Memory.default_alloc_limit}). *)
let load ?(mem_size = 1 lsl 20) ?alloc_limit (prog : Pvir.Prog.t) : t =
  let l = layout ~mem_size prog in
  let mem = Memory.create ?alloc_limit mem_size in
  List.iter (fun (addr, init) -> Memory.store_array mem addr init) l.inits;
  { prog; mem; global_addr = l.global_addr; globals_end = l.globals_end }

let find_global tbl name =
  match Hashtbl.find_opt tbl name with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Image.global_address: no global %s" name)

let layout_address (l : layout) name = find_global l.global_addr name
let global_address (img : t) name = find_global img.global_addr name

(** Initial stack pointer: the top of memory (the stack grows down). *)
let initial_sp img = Memory.size img.mem

let find_func img name = Pvir.Prog.find_func img.prog name

(** Read back a global array (test/bench helper). *)
let read_global img name =
  match Pvir.Prog.find_global img.prog name with
  | None -> invalid_arg (Printf.sprintf "Image.read_global: no global %s" name)
  | Some g ->
    Memory.load_array img.mem (global_address img name) g.gelem g.gcount

(** Overwrite a global array (test/bench helper for setting up inputs). *)
let write_global img name (vs : Pvir.Value.t array) =
  Memory.store_array img.mem (global_address img name) vs

(** Seeded generator of well-formed PVIR programs.

    Every program this module emits passes [Pvir.Verify.program] *by
    construction* and — the harder property — is observationally
    deterministic across every execution path of the toolchain, so that a
    differential oracle can compare engines without false alarms:

    - {b trap-free}: integer divisors are forced odd ([or rhs, 1] through a
      never-redefined constant-one register), shifts are masked by the
      semantics, and every memory access is a static in-bounds offset off a
      never-redefined base pointer;
    - {b init-before-use}: every pooled register is defined in the entry
      block, before any branching, so no path reads an uninitialized
      register;
    - {b bounded}: loops run a small constant trip count through dedicated
      counter registers no random instruction may clobber, and calls form a
      DAG (a function only calls later ones), so fuel is never a worry;
    - {b address-opaque}: pointer values are only ever used as load/store
      bases.  Allocas appear only in the entry block (the JIT assigns one
      static frame slot per alloca).  Stack addresses differ between the
      interpreter and a compiled target, so they must never flow into
      results, stores, or prints — globals' *contents* are the observable,
      not their addresses.

    Randomness is an explicit splitmix64 stream ({!Pvinject.Inject.rng}),
    so every program is a pure function of its seed. *)

open Pvir
module R = Pvinject.Inject

type t = {
  r : R.rng;
  prog : Prog.t;
  scalars : Types.scalar list;  (** scalar types in play this program *)
  vecs : Types.t list;  (** vector types in play this program *)
}

let pick g xs = List.nth xs (R.rand_int g.r (List.length xs))
let chance g pct = R.rand_int g.r 100 < pct

(* -- interesting constants ------------------------------------------ *)

let int_const g (s : Types.scalar) : Value.t =
  let v =
    match R.rand_int g.r 6 with
    | 0 -> Int64.of_int (R.rand_int g.r 17)
    | 1 -> Int64.of_int (R.rand_int g.r 256)
    | 2 -> Int64.neg (Int64.of_int (1 + R.rand_int g.r 128))
    | 3 -> Int64.shift_left 1L (R.rand_int g.r 63)
    | 4 -> R.next_int64 g.r
    | _ -> [ 0L; 1L; -1L; 127L; 128L; 255L; 32767L; 65535L ] |> fun l ->
           List.nth l (R.rand_int g.r (List.length l))
  in
  Value.int s v

let float_pool = [ 0.; 1.; -1.; 0.5; 2.5; 3.25; 1000.; -7.75; 0.125; 42. ]

let float_const g (s : Types.scalar) : Value.t =
  Value.float s (List.nth float_pool (R.rand_int g.r (List.length float_pool)))

let scalar_const g (s : Types.scalar) : Value.t =
  if Types.is_float_scalar s then float_const g s else int_const g s

(* -- per-function generation context -------------------------------- *)

(** A global the function may address: name, element scalar, element
    count, and the (immutable) pointer register holding its address. *)
type gslot = { gl_name : string; gl_elem : Types.scalar; gl_count : int; gl_ptr : Instr.reg }

(** A frame slot from an entry-block alloca. *)
type aslot = { al_elem : Types.scalar; al_count : int; al_ptr : Instr.reg }

type fctx = {
  g : t;
  fn : Func.t;
  pool : (Types.t * Instr.reg list) list;  (** readable registers, per type *)
  mut : (Types.t * Instr.reg list) list;  (** redefinable registers *)
  ones : (Types.t * Instr.reg) list;  (** constant-one, never redefined *)
  gslots : gslot list;
  aslots : aslot list;
  callees : (string * Types.t list * Types.t option) list;
      (** later functions only: keeps the call graph a DAG *)
  calls_ok : bool;
      (** false for KPN node bodies: no calls, not even prints — the
          kernel must be a pure function of its arguments *)
}

let pool_of c ty = List.assoc ty c.pool
let mut_of c ty = List.assoc ty c.mut
let use c ty = pick c.g (pool_of c ty)
let def c ty = pick c.g (mut_of c ty)

let all_types c = List.map fst c.pool
let int_scalar_types c =
  List.filter
    (fun ty -> match ty with Types.Scalar s -> not (Types.is_float_scalar s) | _ -> false)
    (all_types c)
let scalar_types c =
  List.filter (fun ty -> match ty with Types.Scalar _ -> true | _ -> false) (all_types c)
let vector_types c = List.filter Types.is_vector (all_types c)

(* -- single random instructions ------------------------------------- *)

(** Binops that cannot trap given odd divisors; division-family ops are
    rewritten to read an [or rhs, 1] temporary. *)
let gen_binop c (emit : Instr.t -> unit) =
  let ty = pick c.g (all_types c) in
  let s = Types.elem ty in
  let ops =
    List.filter (fun op -> Instr.binop_valid_on op s) Instr.all_binops
  in
  let op = pick c.g ops in
  let d = def c ty and a = use c ty and b = use c ty in
  match op with
  | Instr.Div | Instr.Udiv | Instr.Rem | Instr.Urem
    when not (Types.is_float_scalar s) ->
    (* force the divisor odd: [b | 1] can never be zero *)
    let one = List.assoc ty c.ones in
    let t = Func.fresh_reg c.fn ty in
    emit (Instr.Binop (Instr.Or, t, b, one));
    emit (Instr.Binop (op, d, a, t))
  | _ -> emit (Instr.Binop (op, d, a, b))

let gen_unop c emit =
  let ty = pick c.g (all_types c) in
  let op =
    if Types.is_float ty then Instr.Neg
    else if chance c.g 50 then Instr.Neg
    else Instr.Not
  in
  emit (Instr.Unop (op, def c ty, use c ty))

let gen_conv c emit =
  let stys = scalar_types c in
  let dty = pick c.g stys and aty = pick c.g stys in
  let kind =
    match (Types.is_float dty, Types.is_float aty) with
    | false, false ->
      pick c.g [ Instr.Zext; Instr.Sext; Instr.Trunc ]
    | true, false -> if chance c.g 50 then Instr.Sitofp else Instr.Uitofp
    | false, true -> if chance c.g 50 then Instr.Fptosi else Instr.Fptoui
    | true, true -> Instr.Fpconv
  in
  emit (Instr.Conv (kind, def c dty, use c aty))

let gen_cmp c emit =
  let ty = pick c.g (scalar_types c) in
  let rels =
    if Types.is_float ty then
      [ Instr.Eq; Instr.Ne; Instr.Slt; Instr.Sle; Instr.Sgt; Instr.Sge ]
    else Instr.all_relops
  in
  emit (Instr.Cmp (pick c.g rels, def c Types.i32, use c ty, use c ty))

let gen_select c emit =
  let ty = pick c.g (all_types c) in
  emit (Instr.Select (def c ty, use c Types.i32, use c ty, use c ty))

let gen_mov c emit =
  let ty = pick c.g (all_types c) in
  emit (Instr.Mov (def c ty, use c ty))

let gen_const c emit =
  let ty = pick c.g (scalar_types c) in
  emit (Instr.Const (def c ty, scalar_const c.g (Types.elem ty)))

(** An in-bounds access to a global or frame slot: (base, elem, offset
    choices are always multiples of the element size that fit). *)
let gen_mem_access c ~(lanes : int) :
    (Instr.reg * Types.scalar * int) option =
  let cands =
    List.filter_map
      (fun gs ->
        if gs.gl_count >= lanes then Some (gs.gl_ptr, gs.gl_elem, gs.gl_count)
        else None)
      c.gslots
    @ List.filter_map
        (fun al ->
          if al.al_count >= lanes then Some (al.al_ptr, al.al_elem, al.al_count)
          else None)
        c.aslots
  in
  match cands with
  | [] -> None
  | _ ->
    let base, elem, count = pick c.g cands in
    let k = R.rand_int c.g.r (count - lanes + 1) in
    Some (base, elem, k * Types.scalar_size elem)

let gen_load c emit =
  (* scalar or, when a matching vector type is pooled, vector access *)
  let vec_choices =
    List.filter_map
      (fun ty ->
        match ty with Types.Vector (s, n) -> Some (ty, s, n) | _ -> None)
      (vector_types c)
  in
  if vec_choices <> [] && chance c.g 35 then begin
    let ty, s, n = pick c.g vec_choices in
    match gen_mem_access c ~lanes:n with
    | Some (base, elem, off) when elem = s ->
      emit (Instr.Load (ty, def c ty, base, off))
    | _ -> ()
  end
  else
    match gen_mem_access c ~lanes:1 with
    | Some (base, elem, off) ->
      let ty = Types.Scalar elem in
      if List.mem_assoc ty c.mut then
        emit (Instr.Load (ty, def c ty, base, off))
    | None -> ()

let gen_store c emit =
  let vec_choices =
    List.filter_map
      (fun ty ->
        match ty with Types.Vector (s, n) -> Some (ty, s, n) | _ -> None)
      (vector_types c)
  in
  if vec_choices <> [] && chance c.g 35 then begin
    let ty, s, n = pick c.g vec_choices in
    match gen_mem_access c ~lanes:n with
    | Some (base, elem, off) when elem = s ->
      emit (Instr.Store (ty, use c ty, base, off))
    | _ -> ()
  end
  else
    match gen_mem_access c ~lanes:1 with
    | Some (base, elem, off) ->
      let ty = Types.Scalar elem in
      if List.mem_assoc ty c.pool then
        emit (Instr.Store (ty, use c ty, base, off))
    | None -> ()

let gen_vec c emit =
  match vector_types c with
  | [] -> ()
  | vtys -> (
    let ty = pick c.g vtys in
    let s = Types.elem ty and n = Types.lanes ty in
    let sty = Types.Scalar s in
    match R.rand_int c.g.r 3 with
    | 0 -> emit (Instr.Splat (def c ty, use c sty))
    | 1 ->
      emit (Instr.Extract (def c sty, use c ty, R.rand_int c.g.r n))
    | _ ->
      let reds =
        if Types.is_float_scalar s then [ Instr.Radd; Instr.Rmin; Instr.Rmax ]
        else Instr.all_redops
      in
      emit (Instr.Reduce (pick c.g reds, def c sty, use c ty)))

let gen_call c emit =
  if not c.calls_ok then gen_binop c emit
  else
  let printable =
    (if List.mem_assoc Types.i64 c.pool then
       [ (None, "print_i64", [ Types.i64 ]) ]
     else [])
    @
    if List.mem_assoc Types.f64 c.pool then
      [ (None, "print_f64", [ Types.f64 ]) ]
    else []
  in
  let defined =
    List.filter_map
      (fun (name, params, ret) ->
        (* only call when we can supply every argument and land the result *)
        let have ty = List.mem_assoc ty c.pool in
        let land_ok =
          match ret with None -> true | Some ty -> List.mem_assoc ty c.mut
        in
        if List.for_all have params && land_ok then Some (ret, name, params)
        else None)
      c.callees
  in
  let cands = printable @ defined in
  if cands <> [] then begin
    let ret, name, params = pick c.g cands in
    let args = List.map (fun ty -> use c ty) params in
    let dst = Option.map (fun ty -> def c ty) ret in
    emit (Instr.Call (dst, name, args))
  end

let gen_instr c emit =
  match R.rand_int c.g.r 100 with
  | n when n < 28 -> gen_binop c emit
  | n when n < 36 -> gen_cmp c emit
  | n when n < 43 -> gen_select c emit
  | n when n < 48 -> gen_mov c emit
  | n when n < 56 -> gen_conv c emit
  | n when n < 61 -> gen_unop c emit
  | n when n < 68 -> gen_const c emit
  | n when n < 77 -> gen_load c emit
  | n when n < 85 -> gen_store c emit
  | n when n < 93 -> gen_vec c emit
  | _ -> gen_call c emit

let emit_instrs c (blk : Func.block) n =
  let buf = ref [] in
  let emit i = buf := i :: !buf in
  for _ = 1 to n do
    gen_instr c emit
  done;
  blk.instrs <- blk.instrs @ List.rev !buf

(* -- CFG regions ----------------------------------------------------- *)

(** Append a diamond: cond in [cur], two arms, returns the join block. *)
let region_diamond c cur =
  let ty = pick c.g (scalar_types c) in
  let rels =
    if Types.is_float ty then [ Instr.Eq; Instr.Ne; Instr.Slt; Instr.Sgt ]
    else Instr.all_relops
  in
  let cond = Func.fresh_reg c.fn Types.i32 in
  cur.Func.instrs <-
    cur.Func.instrs @ [ Instr.Cmp (pick c.g rels, cond, use c ty, use c ty) ];
  let t = Func.add_block c.fn and f = Func.add_block c.fn in
  let join = Func.add_block c.fn in
  cur.Func.term <- Instr.Cbr (cond, t.Func.label, f.Func.label);
  emit_instrs c t (1 + R.rand_int c.g.r 4);
  emit_instrs c f (1 + R.rand_int c.g.r 4);
  t.Func.term <- Instr.Br join.Func.label;
  f.Func.term <- Instr.Br join.Func.label;
  join

(** Append a constant-trip-count loop through dedicated registers no
    random instruction can clobber; returns the exit block. *)
let region_loop c cur =
  let i = Func.fresh_reg c.fn Types.i64 in
  let bound = Func.fresh_reg c.fn Types.i64 in
  let cond = Func.fresh_reg c.fn Types.i32 in
  let trip = 1 + R.rand_int c.g.r 6 in
  cur.Func.instrs <-
    cur.Func.instrs
    @ [ Instr.Const (i, Value.i64 0L); Instr.Const (bound, Value.of_int Types.I64 trip) ];
  let body = Func.add_block c.fn in
  let exit = Func.add_block c.fn in
  cur.Func.term <- Instr.Br body.Func.label;
  emit_instrs c body (1 + R.rand_int c.g.r 5);
  let one = List.assoc Types.i64 c.ones in
  body.Func.instrs <-
    body.Func.instrs
    @ [ Instr.Binop (Instr.Add, i, i, one); Instr.Cmp (Instr.Slt, cond, i, bound) ];
  body.Func.term <- Instr.Cbr (cond, body.Func.label, exit.Func.label);
  exit

let region_straight c cur =
  emit_instrs c cur (2 + R.rand_int c.g.r 6);
  cur

(* -- whole functions -------------------------------------------------- *)

(** Build the register pools and the entry-block prologue that defines
    every pooled register before any branching.  [reserved] registers
    (e.g. a recursion fuel counter) stay readable but are kept out of the
    redefinable pool so no random instruction can clobber them. *)
let build_pools ?(reserved : Instr.reg list = []) g (fn : Func.t) entry
    ~(globals : Prog.global list) =
  let prologue = ref [] in
  let emit i = prologue := i :: !prologue in
  let pool = ref [] and mut = ref [] and ones = ref [] in
  let add_pool ty regs = pool := (ty, regs) :: !pool in
  let add_mut ty regs = mut := (ty, regs) :: !mut in
  (* scalar pools: params of that type join the pool for free *)
  List.iter
    (fun s ->
      let ty = Types.Scalar s in
      let param_regs =
        List.filter (fun r -> Types.equal (Func.reg_type fn r) ty) fn.Func.params
      in
      let n = 2 + R.rand_int g.r 3 in
      let fresh = List.init n (fun _ -> Func.fresh_reg fn ty) in
      List.iter (fun r -> emit (Instr.Const (r, scalar_const g s))) fresh;
      if not (Types.is_float_scalar s) then begin
        let one = Func.fresh_reg fn ty in
        emit (Instr.Const (one, Value.int s 1L));
        ones := (ty, one) :: !ones
      end;
      let writable =
        List.filter (fun r -> not (List.mem r reserved)) param_regs
      in
      add_pool ty (param_regs @ fresh);
      add_mut ty (writable @ fresh))
    g.scalars;
  (* vector pools: splat from a scalar of the lane type *)
  List.iter
    (fun vty ->
      let s = Types.elem vty in
      let lane_pool = List.assoc (Types.Scalar s) !pool in
      let n = 2 + R.rand_int g.r 2 in
      let fresh = List.init n (fun _ -> Func.fresh_reg fn vty) in
      List.iter
        (fun r -> emit (Instr.Splat (r, List.nth lane_pool (R.rand_int g.r (List.length lane_pool)))))
        fresh;
      if not (Types.is_float vty) then begin
        let one = Func.fresh_reg fn vty in
        let one_scalar = List.assoc (Types.Scalar s) !ones in
        emit (Instr.Splat (one, one_scalar));
        ones := (vty, one) :: !ones
      end;
      add_pool vty fresh;
      add_mut vty fresh)
    g.vecs;
  (* global base pointers *)
  let gslots =
    List.map
      (fun (gl : Prog.global) ->
        let p = Func.fresh_reg fn (Types.Ptr gl.Prog.gelem) in
        emit (Instr.Gaddr (p, gl.Prog.gname));
        { gl_name = gl.Prog.gname; gl_elem = gl.Prog.gelem;
          gl_count = gl.Prog.gcount; gl_ptr = p })
      globals
  in
  (* entry-block-only frame slots *)
  let aslots =
    List.init (R.rand_int g.r 3) (fun _ ->
        let s = List.nth g.scalars (R.rand_int g.r (List.length g.scalars)) in
        let count = 4 + R.rand_int g.r 5 in
        let bytes = (count * Types.scalar_size s + 7) land lnot 7 in
        let p = Func.fresh_reg fn (Types.Ptr s) in
        emit (Instr.Alloca (p, bytes));
        { al_elem = s; al_count = count; al_ptr = p })
  in
  entry.Func.instrs <- entry.Func.instrs @ List.rev !prologue;
  (!pool, !mut, !ones, gslots, aslots)

let fill_func g (fn : Func.t)
    ~(callees : (string * Types.t list * Types.t option) list) =
  let entry = Func.add_block fn in
  let pool, mut, ones, gslots, aslots =
    build_pools g fn entry ~globals:g.prog.Prog.globals
  in
  let c = { g; fn; pool; mut; ones; gslots; aslots; callees; calls_ok = true } in
  emit_instrs c entry (1 + R.rand_int g.r 4);
  let cur = ref entry in
  let regions = 1 + R.rand_int g.r 3 in
  for _ = 1 to regions do
    cur :=
      match R.rand_int g.r 3 with
      | 0 -> region_straight c !cur
      | 1 -> region_diamond c !cur
      | _ -> region_loop c !cur
  done;
  (* main prints one value so every run has observable output *)
  if fn.Func.name = "main" then begin
    let v = use c Types.i64 in
    (!cur).Func.instrs <- (!cur).Func.instrs @ [ Instr.Call (None, "print_i64", [ v ]) ]
  end;
  ((!cur).Func.term <-
     (match fn.Func.ret with
     | Some ty -> Instr.Ret (Some (use c ty))
     | None -> Instr.Ret None));
  (* an unreachable after-trap block: no terminator targets it *)
  if chance g 40 then begin
    let dead = Func.add_block fn in
    dead.Func.instrs <- [ Instr.Call (None, "abort", []) ];
    dead.Func.term <-
      (match fn.Func.ret with
      | Some ty -> Instr.Ret (Some (use c ty))
      | None -> Instr.Ret None)
  end

(* -- whole programs --------------------------------------------------- *)

let subset g xs pct = List.filter (fun _ -> chance g pct) xs

(** [program ~seed] — a fresh, verified, deterministic program. *)
let program ~(seed : int) : Prog.t =
  let r = R.rng seed in
  let prog = Prog.create (Printf.sprintf "fuzz%d" seed) in
  let g0 = { r; prog; scalars = []; vecs = [] } in
  let scalars =
    [ Types.I32; Types.I64 ]
    @ subset g0 [ Types.I8; Types.I16; Types.F32; Types.F64 ] 50
  in
  let nvec = R.rand_int r 3 in
  let vecs =
    List.init nvec (fun _ ->
        let s = List.nth scalars (R.rand_int r (List.length scalars)) in
        Types.Vector (s, if R.rand_int r 2 = 0 then 2 else 4))
  in
  (* dedup vector types so pools stay one-per-type *)
  let vecs = List.sort_uniq compare vecs in
  let g = { g0 with scalars; vecs } in
  (* globals, with initializers drawn from the same constant pools *)
  let nglob = 1 + R.rand_int r 3 in
  for i = 0 to nglob - 1 do
    let s = List.nth scalars (R.rand_int r (List.length scalars)) in
    let count = 4 + R.rand_int r 13 in
    let init = Array.init count (fun _ -> scalar_const g s) in
    Prog.add_global prog ~init (Printf.sprintf "g%d" i) s count
  done;
  (* signatures first, so earlier functions can call later ones *)
  let nfun = 1 + R.rand_int r 3 in
  let sigs =
    List.init nfun (fun i ->
        if i = 0 then ("main", [], Some Types.i64)
        else
          let nparams = R.rand_int r 3 in
          let params =
            List.init nparams (fun _ ->
                Types.Scalar (List.nth scalars (R.rand_int r (List.length scalars))))
          in
          let ret = Types.Scalar (List.nth scalars (R.rand_int r (List.length scalars))) in
          (Printf.sprintf "f%d" i, params, Some ret))
  in
  let fns =
    List.map
      (fun (name, params, ret) -> Func.create ~name ~params ~ret)
      sigs
  in
  List.iter (Prog.add_func prog) fns;
  List.iteri
    (fun i fn ->
      let callees =
        List.filteri (fun j _ -> j > i) sigs
      in
      fill_func g fn ~callees)
    fns;
  Verify.program prog;
  prog

(* -- bounded recursion ------------------------------------------------- *)

let recursion_fuel_min = 2
let recursion_fuel_max = 5

(** Fill a recursion-group member [r_k(fuel : i64, x : i64) : i64].
    The fuel counter is register 0, reserved from the redefinable pool so
    no random instruction can clobber it; the entry block branches on
    [fuel <= 0] to a call-free base arm, and the recursive arm passes
    [fuel - 1] to every callee — so the call tree is bounded by the
    constant initial fuel [main] supplies, whatever the group's call
    pattern (self or mutual). *)
let fill_recursive g (fn : Func.t)
    ~(group : (string * Types.t list * Types.t option) list) =
  let entry = Func.add_block fn in
  let fuel = List.hd fn.Func.params in
  let pool, mut, ones, gslots, aslots =
    build_pools ~reserved:[ fuel ] g fn entry ~globals:g.prog.Prog.globals
  in
  let c =
    { g; fn; pool; mut; ones; gslots; aslots; callees = []; calls_ok = true }
  in
  let zero = Func.fresh_reg fn Types.i64 in
  let cond = Func.fresh_reg fn Types.i32 in
  entry.Func.instrs <-
    entry.Func.instrs
    @ [ Instr.Const (zero, Value.i64 0L); Instr.Cmp (Instr.Sle, cond, fuel, zero) ];
  let base = Func.add_block fn in
  let recur = Func.add_block fn in
  entry.Func.term <- Instr.Cbr (cond, base.Func.label, recur.Func.label);
  (* base arm: straight-line work only *)
  emit_instrs c base (1 + R.rand_int g.r 4);
  base.Func.term <- Instr.Ret (Some (use c Types.i64));
  (* recursive arm: decrement the dedicated counter, call group members *)
  emit_instrs c recur (1 + R.rand_int g.r 4);
  let one = List.assoc Types.i64 c.ones in
  let fuel' = Func.fresh_reg fn Types.i64 in
  recur.Func.instrs <-
    recur.Func.instrs @ [ Instr.Binop (Instr.Sub, fuel', fuel, one) ];
  let ncalls = 1 + R.rand_int g.r 2 in
  let acc = ref (use c Types.i64) in
  for _ = 1 to ncalls do
    let callee, _, _ = pick g group in
    let d = Func.fresh_reg fn Types.i64 in
    let s = Func.fresh_reg fn Types.i64 in
    recur.Func.instrs <-
      recur.Func.instrs
      @ [
          Instr.Call (Some d, callee, [ fuel'; use c Types.i64 ]);
          Instr.Binop (Instr.Add, s, !acc, d);
        ];
    acc := s
  done;
  recur.Func.term <- Instr.Ret (Some !acc)

(** [program_recursive ~seed] — a verified program whose call graph is a
    recursion group (1–2 self/mutually recursive functions) driven from
    [main] with a small constant fuel, so total call depth is bounded by
    construction (never by the VM's fuel).  Same determinism guarantees
    as {!program}; recursion functions are never random-call targets, so
    the only fuel values in play are the generated decreasing chain. *)
let program_recursive ~(seed : int) : Prog.t =
  let r = R.rng seed in
  let prog = Prog.create (Printf.sprintf "rec%d" seed) in
  let g0 = { r; prog; scalars = []; vecs = [] } in
  let scalars = [ Types.I32; Types.I64 ] @ subset g0 [ Types.I16; Types.F64 ] 40 in
  let g = { g0 with scalars } in
  let nglob = 1 + R.rand_int r 2 in
  for i = 0 to nglob - 1 do
    let s = List.nth scalars (R.rand_int r (List.length scalars)) in
    let count = 4 + R.rand_int r 9 in
    let init = Array.init count (fun _ -> scalar_const g s) in
    Prog.add_global prog ~init (Printf.sprintf "g%d" i) s count
  done;
  let nrec = 1 + R.rand_int r 2 in
  let group =
    List.init nrec (fun i ->
        (Printf.sprintf "r%d" i, [ Types.i64; Types.i64 ], Some Types.i64))
  in
  let main = Func.create ~name:"main" ~params:[] ~ret:(Some Types.i64) in
  let rec_fns =
    List.map (fun (name, params, ret) -> Func.create ~name ~params ~ret) group
  in
  Prog.add_func prog main;
  List.iter (Prog.add_func prog) rec_fns;
  List.iter (fun fn -> fill_recursive g fn ~group) rec_fns;
  (* main: a small regular body, then one rooted call with constant fuel *)
  let fuel0 =
    recursion_fuel_min
    + R.rand_int r (recursion_fuel_max - recursion_fuel_min + 1)
  in
  let entry = Func.add_block main in
  let pool, mut, ones, gslots, aslots =
    build_pools g main entry ~globals:prog.Prog.globals
  in
  let c =
    { g; fn = main; pool; mut; ones; gslots; aslots; callees = [];
      calls_ok = true }
  in
  emit_instrs c entry (1 + R.rand_int r 4);
  let cur = ref entry in
  let regions = R.rand_int r 2 in
  for _ = 1 to regions do
    cur :=
      match R.rand_int r 3 with
      | 0 -> region_straight c !cur
      | 1 -> region_diamond c !cur
      | _ -> region_loop c !cur
  done;
  let fr = Func.fresh_reg main Types.i64 in
  let d = Func.fresh_reg main Types.i64 in
  (!cur).Func.instrs <-
    (!cur).Func.instrs
    @ [
        Instr.Const (fr, Value.of_int Types.I64 fuel0);
        Instr.Call (Some d, "r0", [ fr; use c Types.i64 ]);
        Instr.Call (None, "print_i64", [ d ]);
      ];
  (!cur).Func.term <- Instr.Ret (Some d);
  Verify.program prog;
  prog

(* -- KPN node kernels -------------------------------------------------- *)

(** Fill a pure KPN node body: no globals, no calls, no prints — the
    function is observationally a pure [i64^arity -> i64], so firing it
    from any engine in any scheduling order yields identical streams. *)
let fill_node g (fn : Func.t) =
  let entry = Func.add_block fn in
  let pool, mut, ones, gslots, aslots =
    build_pools g fn entry ~globals:[]
  in
  (* Zero every frame slot before the body can load from it: all
     firings of a network share one interpreter, so an unwritten slot
     would read the stack bytes of whichever node fired before.  Fresh
     registers only, no RNG draws, so the draws that follow are
     unchanged. *)
  List.iter
    (fun al ->
      let ty = Types.Scalar al.al_elem in
      let zero = Func.fresh_reg fn ty in
      let size = Types.scalar_size al.al_elem in
      entry.Func.instrs <-
        entry.Func.instrs
        @ Instr.Const (zero, Value.int al.al_elem 0L)
          :: List.init al.al_count (fun k ->
                 Instr.Store (ty, zero, al.al_ptr, k * size)))
    aslots;
  let c =
    { g; fn; pool; mut; ones; gslots; aslots; callees = []; calls_ok = false }
  in
  emit_instrs c entry (1 + R.rand_int g.r 4);
  let cur = ref entry in
  let regions = 1 + R.rand_int g.r 2 in
  for _ = 1 to regions do
    cur :=
      match R.rand_int g.r 3 with
      | 0 -> region_straight c !cur
      | 1 -> region_diamond c !cur
      | _ -> region_loop c !cur
  done;
  (!cur).Func.term <- Instr.Ret (Some (use c Types.i64))

(** [node_program ~seed ~count] — a verified, global-free program of
    [count] pure kernel functions [n0 .. n{count-1}], each taking 1–3
    i64 arguments and returning i64.  Returns the program and the
    [(name, arity)] pool for the network generator to draw node bodies
    from. *)
let node_program ~(seed : int) ~(count : int) : Prog.t * (string * int) list =
  let r = R.rng seed in
  let prog = Prog.create (Printf.sprintf "kpn%d" seed) in
  let g0 = { r; prog; scalars = []; vecs = [] } in
  let g = { g0 with scalars = [ Types.I32; Types.I64 ] } in
  let sigs =
    List.init count (fun i ->
        let arity = 1 + R.rand_int r 3 in
        (Printf.sprintf "n%d" i, arity))
  in
  List.iter
    (fun (name, arity) ->
      let params = List.init arity (fun _ -> Types.i64) in
      let fn = Func.create ~name ~params ~ret:(Some Types.i64) in
      Prog.add_func prog fn;
      fill_node g fn)
    sigs;
  Verify.program prog;
  (prog, sigs)

(** Online register allocation: linear scan with spilling.

    This is the linear-time online half of split register allocation
    (experiment E3).  Interval construction and the scan itself are cheap;
    what the JIT cannot afford is a good *spill choice*.  Three qualities
    are available:

    - [`Heuristic`] — no information: under pressure, evict the interval
      that ends furthest away (Poletto-Sarkar).  Blind to loops: it
      happily spills a hot accumulator whose interval spans the loop.
    - [`Weights w`] — spill costs are known (offline annotation in split
      mode, or recomputed online at full price in pure-online mode): evict
      the *cheapest* live interval instead.
    - spill code is the classic spill-everywhere form: a store after every
      definition, a reload before every use; the allocator then reruns
      with the tiny intervals (never re-spilled).

    Every per-round structure is a dense array indexed by virtual register
    number: liveness is a bitset per block, intervals are two position
    arrays, and the scan keeps its active set and free registers in small
    arrays, so a round costs time linear in the code plus one sort of the
    intervals.

    Dynamic spill traffic is what the paper's 40 % claim is about; the
    simulator counts executed [Mframe_ld]/[Mframe_st] operations so E3 can
    report it. *)

open Pvmach

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

type quality = Heuristic | Weights of (int -> float)

type stats = {
  mutable spilled_regs : int;
  mutable spill_instrs : int;  (** static count of inserted reload/store ops *)
  mutable rounds : int;
}

(* ---------------- liveness: one bitset per block ---------------- *)

(* Block [b]'s set over [n] vregs is the [nw] words at [b * nw] of a flat
   array. *)
let bits = Sys.int_size
let words n = (n + bits - 1) / bits
let set s base v = s.(base + (v / bits)) <- s.(base + (v / bits)) lor (1 lsl (v mod bits))
let mem s base v = s.(base + (v / bits)) land (1 lsl (v mod bits)) <> 0

let iter_set f s base nw =
  for k = 0 to nw - 1 do
    let w = ref s.(base + k) and v = ref (k * bits) in
    while !w <> 0 do
      if !w land 1 <> 0 then f !v;
      w := !w lsr 1;
      incr v
    done
  done

(* The virtual register named by [r], or -1 for a physical one. *)
let vreg ~n = function
  | Mir.V v when v >= 0 && v < n -> v
  | Mir.V v -> fail "virtual register v%d out of range" v
  | Mir.P _ -> -1

(* Live-in and live-out sets of every block: the least fixpoint, iterated
   in reverse block order. *)
let liveness ~n ~nw (blocks : Mir.block array) (succs : int array array) =
  let nb = Array.length blocks in
  let use = Array.make (nb * nw) 0 and def = Array.make (nb * nw) 0 in
  Array.iteri
    (fun b (blk : Mir.block) ->
      let base = b * nw in
      let read r =
        let v = vreg ~n r in
        if v >= 0 && not (mem def base v) then set use base v
      in
      List.iter
        (fun (i : Mir.inst) ->
          List.iter read i.Mir.srcs;
          match i.Mir.dst with
          | Some d ->
            let v = vreg ~n d in
            if v >= 0 then set def base v
          | None -> ())
        blk.Mir.insts;
      List.iter read (Mir.term_uses blk.Mir.mterm))
    blocks;
  let live_in = Array.make (nb * nw) 0 and live_out = Array.make (nb * nw) 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = nb - 1 downto 0 do
      let base = b * nw in
      Array.iter
        (fun s ->
          for k = 0 to nw - 1 do
            live_out.(base + k) <- live_out.(base + k) lor live_in.((s * nw) + k)
          done)
        succs.(b);
      for k = base to base + nw - 1 do
        let x = use.(k) lor (live_out.(k) land lnot def.(k)) in
        if x <> live_in.(k) then begin
          live_in.(k) <- x;
          changed := true
        end
      done
    done
  done;
  (live_in, live_out)

(* ---------------- intervals ---------------- *)

(* [istart.(v)], [iend.(v)]: first and last position at which [v] is live
   or mentioned; -1 for a register that appears nowhere.  Positions only
   grow along the walk (parameters sit at 0, a block's live-in at its
   first position), so the first touch is the start and the last the
   end. *)
let intervals ~n ~nw (mf : Mir.func) (blocks : Mir.block array) live_in
    live_out =
  let istart = Array.make n (-1) and iend = Array.make n (-1) in
  let touch_v p v =
    if istart.(v) < 0 then istart.(v) <- p;
    iend.(v) <- p
  in
  let touch p r =
    let v = vreg ~n r in
    if v >= 0 then touch_v p v
  in
  List.iter (touch 0) mf.Mir.mparams;
  let pos = ref 0 in
  Array.iteri
    (fun b (blk : Mir.block) ->
      iter_set (touch_v !pos) live_in (b * nw) nw;
      List.iter
        (fun (i : Mir.inst) ->
          incr pos;
          List.iter (touch !pos) i.Mir.srcs;
          Option.iter (touch !pos) i.Mir.dst)
        blk.Mir.insts;
      incr pos;
      List.iter (touch !pos) (Mir.term_uses blk.Mir.mterm);
      iter_set (touch_v !pos) live_out (b * nw) nw;
      incr pos)
    blocks;
  (istart, iend)

(* ---------------- the scan ---------------- *)

(* Every interval in scan order: the total order (start, end, vreg) —
   emitted in vreg order, then stably sorted on (start, end). *)
let scan_order ~istart ~iend =
  let vs = ref [] in
  for v = Array.length istart - 1 downto 0 do
    if istart.(v) >= 0 then vs := v :: !vs
  done;
  List.stable_sort
    (fun a b ->
      let c = Int.compare istart.(a) istart.(b) in
      if c <> 0 then c else Int.compare iend.(a) iend.(b))
    !vs

(* Scan one class, writing physical indices into [assigned].  Returns the
   vregs to spill, most recent first.  Free registers are handed out
   first-in first-out; [active] holds the live intervals oldest first.
   Under pressure the victim is the first best of [cur] followed by the
   active intervals newest first, among those not created by spilling
   (vreg [>= fresh]). *)
let scan_class (machine : Machine.t) ~better ~fresh ~istart ~iend ~assigned
    cls order : int list =
  let nregs =
    match cls with
    | Mir.Gpr -> machine.Machine.int_regs
    | Mir.Fpr -> machine.Machine.fp_regs
    | Mir.Vec -> machine.Machine.vec_regs
  in
  if order = [] then []
  else if nregs = 0 then
    fail "register class exhausted: machine %s has no registers for it"
      machine.Machine.name
  else begin
    let free = Array.init nregs Fun.id and fhead = ref 0 and nfree = ref nregs in
    let active = Array.make nregs 0 and nact = ref 0 in
    (* the earliest end among [active]: nothing expires before it *)
    let min_end = ref max_int in
    (* drop the active intervals satisfying [drop], keeping the others in
       order *)
    let retain drop =
      let k = ref 0 in
      min_end := max_int;
      for i = 0 to !nact - 1 do
        let v = active.(i) in
        if not (drop v) then begin
          active.(!k) <- v;
          incr k;
          if iend.(v) < !min_end then min_end := iend.(v)
        end
      done;
      nact := !k
    in
    let push v =
      active.(!nact) <- v;
      incr nact;
      if iend.(v) < !min_end then min_end := iend.(v)
    in
    let spills = ref [] in
    List.iter
      (fun cur ->
        let pos = istart.(cur) in
        if !min_end < pos then begin
          for i = !nact - 1 downto 0 do
            let v = active.(i) in
            if iend.(v) < pos then begin
              free.((!fhead + !nfree) mod nregs) <- assigned.(v);
              incr nfree
            end
          done;
          retain (fun v -> iend.(v) < pos)
        end;
        if !nfree > 0 then begin
          assigned.(cur) <- free.(!fhead);
          fhead := (!fhead + 1) mod nregs;
          decr nfree;
          push cur
        end
        else begin
          let victim = ref (-1) in
          let consider v =
            if v < fresh && (!victim < 0 || better v !victim) then victim := v
          in
          consider cur;
          for i = !nact - 1 downto 0 do
            consider active.(i)
          done;
          let victim = !victim in
          if victim < 0 then
            fail "irreducible register pressure on %s" machine.Machine.name;
          spills := victim :: !spills;
          if victim <> cur then begin
            (* steal the victim's register for cur *)
            assigned.(cur) <- assigned.(victim);
            retain (fun v -> v = victim);
            push cur
          end
        end)
      order;
    !spills
  end

(* One round: liveness, intervals and a scan of every class.  [Ok
   (cls_of, assigned)] is a complete assignment; [Error spills] lists the
   vregs to spill, class by class. *)
let run_round machine ~quality ~fresh (mf : Mir.func) blocks succs =
  let n = mf.Mir.next_vreg in
  let nw = words n in
  let live_in, live_out = liveness ~n ~nw blocks succs in
  let istart, iend = intervals ~n ~nw mf blocks live_in live_out in
  let cls_of = Array.make n Mir.Gpr in
  for v = 0 to n - 1 do
    if istart.(v) >= 0 then
      match Hashtbl.find_opt mf.Mir.vreg_ty v with
      | Some ty -> cls_of.(v) <- Mir.class_of_type ty
      | None -> fail "no type for virtual register v%d" v
  done;
  let better =
    match quality with
    | Heuristic -> fun v best -> iend.(v) > iend.(best)
    | Weights w ->
      (* each weight is asked of [w] at most once per round *)
      let weight = Array.make n nan in
      let weight v =
        if Float.is_nan weight.(v) then weight.(v) <- w v;
        weight.(v)
      in
      fun v best ->
        let wb = weight best and wi = weight v in
        wi < wb || (wi = wb && iend.(v) > iend.(best))
  in
  let assigned = Array.make n (-1) in
  let order = scan_order ~istart ~iend in
  let spills =
    List.concat_map
      (fun cls ->
        scan_class machine ~better ~fresh ~istart ~iend ~assigned cls
          (List.filter (fun v -> cls_of.(v) = cls) order))
      [ Mir.Gpr; Mir.Fpr; Mir.Vec ]
  in
  if spills = [] then Ok (cls_of, assigned) else Error spills

(* ---------------- spill rewriting ---------------- *)

let rewrite_spills (mf : Mir.func) ~(stats : stats) spills =
  let slot_of = Array.make mf.Mir.next_vreg None in
  List.iter
    (fun v ->
      let ty =
        match Hashtbl.find_opt mf.Mir.vreg_ty v with
        | Some ty -> ty
        | None -> fail "spilling untyped v%d" v
      in
      let size = (Pvir.Types.size ty + 7) land lnot 7 in
      slot_of.(v) <- Some (mf.Mir.frame_size, ty);
      mf.Mir.frame_size <- mf.Mir.frame_size + size;
      stats.spilled_regs <- stats.spilled_regs + 1)
    spills;
  (* the temporaries made here are the fresh vregs, beyond [slot_of] *)
  let is_spilled = function
    | Mir.V v when v < Array.length slot_of -> slot_of.(v)
    | _ -> None
  in
  let temp ty =
    stats.spill_instrs <- stats.spill_instrs + 1;
    Mir.fresh_vreg mf ty
  in
  let rewrite_inst (i : Mir.inst) : Mir.inst list =
    (* reload spilled sources, once per register per instruction *)
    let reloaded = ref [] and reloads = ref [] in
    let srcs =
      List.map
        (fun r ->
          match is_spilled r with
          | None -> r
          | Some (slot, ty) -> (
            match List.assoc_opt r !reloaded with
            | Some t -> t
            | None ->
              let t = temp ty in
              reloads := Mir.inst ~dst:t (Mir.Mframe_ld slot) ty :: !reloads;
              reloaded := (r, t) :: !reloaded;
              t))
        i.Mir.srcs
    in
    let stores = ref [] in
    let dst =
      match i.Mir.dst with
      | Some d -> (
        match is_spilled d with
        | None -> Some d
        | Some (slot, ty) ->
          let t = temp ty in
          stores := [ Mir.inst ~srcs:[ t ] (Mir.Mframe_st slot) ty ];
          Some t)
      | None -> None
    in
    List.rev !reloads @ [ { i with Mir.srcs; dst } ] @ !stores
  in
  let mentions_spilled (i : Mir.inst) =
    List.exists (fun r -> is_spilled r <> None) i.Mir.srcs
    || match i.Mir.dst with Some d -> is_spilled d <> None | None -> false
  in
  List.iter
    (fun (b : Mir.block) ->
      if List.exists mentions_spilled b.Mir.insts then
        b.Mir.insts <-
          List.concat_map
            (fun i -> if mentions_spilled i then rewrite_inst i else [ i ])
            b.Mir.insts;
      (* spilled register used by the terminator: reload it just before *)
      let extra = ref [] in
      let map_term r =
        match is_spilled r with
        | None -> r
        | Some (slot, ty) ->
          let t = temp ty in
          extra := Mir.inst ~dst:t (Mir.Mframe_ld slot) ty :: !extra;
          t
      in
      if Mir.term_uses b.Mir.mterm <> [] then begin
        b.Mir.mterm <- Mir.map_term_regs map_term b.Mir.mterm;
        b.Mir.insts <- b.Mir.insts @ List.rev !extra
      end)
    mf.Mir.mblocks;
  (* spilled parameters: store them on entry *)
  let entry = Mir.entry mf in
  let param_stores =
    List.filter_map
      (fun p ->
        match is_spilled p with
        | Some (slot, ty) ->
          stats.spill_instrs <- stats.spill_instrs + 1;
          Some (Mir.inst ~srcs:[ p ] (Mir.Mframe_st slot) ty)
        | None -> None)
      mf.Mir.mparams
  in
  entry.Mir.insts <- param_stores @ entry.Mir.insts

(* ---------------- driver ---------------- *)

(* Successors of every block as indices into [blocks]; spill rewriting
   never changes them. *)
let successors (blocks : Mir.block array) =
  let index = Hashtbl.create (Array.length blocks) in
  Array.iteri
    (fun i (b : Mir.block) ->
      if not (Hashtbl.mem index b.Mir.mlabel) then Hashtbl.add index b.Mir.mlabel i)
    blocks;
  Array.map
    (fun (b : Mir.block) ->
      Array.of_list
        (List.filter_map (Hashtbl.find_opt index)
           (Mir.term_successors b.Mir.mterm)))
    blocks

(** Allocate registers for [mf] in place: after this call every register
    is physical ([P]) and spill code is explicit. *)
let run ?account ~(quality : quality) (mf : Mir.func) : stats =
  let machine = mf.Mir.target in
  let stats = { spilled_regs = 0; spill_instrs = 0; rounds = 0 } in
  (* spill temporaries are never spilled again: they are exactly the
     vregs created from here on *)
  let fresh = mf.Mir.next_vreg in
  let blocks = Array.of_list mf.Mir.mblocks in
  let succs = successors blocks in
  let rec go budget =
    if budget = 0 then fail "register allocation did not converge";
    stats.rounds <- stats.rounds + 1;
    (* linear scan is linear in code size + n log n on intervals *)
    Pvir.Account.charge_opt account ~pass:"jit.regalloc" (2 * Mir.size mf);
    match run_round machine ~quality ~fresh mf blocks succs with
    | Ok (cls_of, assigned) ->
      let map r =
        match r with
        | Mir.P _ -> r
        | Mir.V v -> Mir.P (cls_of.(v), assigned.(v))
      in
      List.iter
        (fun (b : Mir.block) ->
          b.Mir.insts <- List.map (Mir.map_inst_regs map) b.Mir.insts;
          b.Mir.mterm <- Mir.map_term_regs map b.Mir.mterm)
        mf.Mir.mblocks;
      mf.Mir.mparams <- List.map map mf.Mir.mparams
    | Error spills ->
      Pvir.Account.charge_opt account ~pass:"jit.spill" (Mir.size mf);
      rewrite_spills mf ~stats spills;
      go (budget - 1)
  in
  go 24;
  stats

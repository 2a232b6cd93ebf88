(** PVIR programs (compilation units): globals + functions + annotations.

    A program is the unit of distribution — what the offline compiler emits
    and what the runtime loads on the device. *)

type global = {
  gname : string;
  gelem : Types.scalar;  (** element type *)
  gcount : int;  (** number of elements *)
  ginit : Value.t array option;  (** optional initializer, length [gcount] *)
  gannots : Annot.t;
}

(** Declaration of a function defined in another compilation unit, to be
    resolved by {!Link} at install time. *)
type extern = {
  ename : string;
  eparams : Types.t list;
  eret : Types.t option;
}

type t = {
  pname : string;
  mutable globals : global list;
  mutable funcs : Func.t list;
  mutable externs : extern list;
  mutable annots : Annot.t;
}

let create name =
  { pname = name; globals = []; funcs = []; externs = []; annots = Annot.empty }

let add_func p fn = p.funcs <- p.funcs @ [ fn ]

let add_global p ?(annots = Annot.empty) ?init name elem count =
  (match init with
  | Some a when Array.length a <> count ->
    invalid_arg "Prog.add_global: initializer length mismatch"
  | _ -> ());
  p.globals <-
    p.globals
    @ [ { gname = name; gelem = elem; gcount = count; ginit = init; gannots = annots } ]

let find_func p name = List.find_opt (fun (f : Func.t) -> f.name = name) p.funcs

let find_func_exn p name =
  match find_func p name with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Prog.find_func: no function %s" name)

let find_global p name =
  List.find_opt (fun g -> g.gname = name) p.globals

let global_size g = Types.scalar_size g.gelem * g.gcount

(** Replace a function by a transformed copy (used by optimization passes
    that rebuild rather than mutate). *)
let replace_func p fn =
  p.funcs <-
    List.map (fun (f : Func.t) -> if f.name = Func.(fn.name) then fn else f) p.funcs

(** Runtime intrinsics every VM provides.  Name, parameter types, return. *)
let intrinsics : (string * Types.t list * Types.t option) list =
  [
    ("print_i64", [ Types.i64 ], None);
    ("print_f64", [ Types.f64 ], None);
    ("abort", [], None);
  ]

let intrinsic_sig name =
  List.find_map
    (fun (n, ps, r) -> if n = name then Some (ps, r) else None)
    intrinsics

let add_extern p ename eparams eret =
  p.externs <- p.externs @ [ { ename; eparams; eret } ]

let find_extern p name =
  List.find_opt (fun e -> String.equal e.ename name) p.externs

(** Signature of a callee visible from [p]: an intrinsic, a program
    function, or an extern declaration (resolved later by {!Link}). *)
let callee_sig p name =
  match intrinsic_sig name with
  | Some s -> Some s
  | None -> (
    match
      Option.map
        (fun (f : Func.t) ->
          (List.map (fun r -> Func.reg_type f r) f.params, f.ret))
        (find_func p name)
    with
    | Some s -> Some s
    | None ->
      Option.map (fun e -> (e.eparams, e.eret)) (find_extern p name))

let copy p =
  {
    pname = p.pname;
    globals = p.globals;
    funcs = List.map Func.copy p.funcs;
    externs = p.externs;
    annots = p.annots;
  }

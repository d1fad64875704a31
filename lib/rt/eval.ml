(** The Mini-HJ evaluator, shared by both executors.

    One evaluator interprets expressions, operators, builtins, user
    calls, frames, array allocation, loops and statements.  What differs
    between the canonical depth-first run ({!Interp}) and the parallel
    engine ([Par.Engine]) is supplied by an {!EXEC}utor: how cost is
    charged, where monitored accesses go, how array ids are drawn, and
    what [async], [finish] and [isolated] do.  Because both executors
    drive the same code, the points where a step closes (scope entry and
    exit) and the [(bid, idx)] cursor they see are identical by
    construction.

    Cost is charged at fixed points: {!Cost.expr_node} per expression
    node, {!Cost.stmt} per non-structural statement,
    {!Cost.call_overhead} per user call, {!Cost.builtin_overhead} per
    builtin, {!Cost.array_cell_alloc} per allocated cell, and [n] per
    [work(n)].  Structural statements ([async], [finish], [isolated],
    blocks) are not charged: the charge would extend the current step's
    statement range over the structural statement itself and spuriously
    forbid tight finish insertions.

    The per-node path allocates no closures: scopes save and restore the
    cursor in plain locals, and statement lists are walked by a direct
    recursive loop. *)

open Mhj

exception Runtime_error of string * Loc.t

exception Out_of_fuel

(** Raised by [return]; caught at the enclosing call.  It escapes a task
    body only in programs the typechecker rejects. *)
exception Return_v of Value.t

let error loc fmt = Fmt.kstr (fun m -> raise (Runtime_error (m, loc))) fmt

(** Calls may nest at most this deep; the next call raises
    {!Runtime_error} at its location.  Deep recursion costs time
    quadratic in depth (the minor GC rescans the evaluator's stack), so
    runaway recursion must stop early: a 10^6-deep recursion stops here
    in about 0.3 s, where running it out took a minute.  The deepest call
    chain of any shipped benchmark is 4000 (Spanning Tree at its paper
    size). *)
let max_call_depth = 50_000

type frame = (string, Value.t ref) Hashtbl.t

(** A global's slot caches its interned address, so the monitored read
    and write paths report it without re-resolving the name. *)
type gslot = { gval : Value.t ref; gaddr : int }

(** Evaluator state of one running task; ['x] is the executor's part. *)
type 'x state = {
  x : 'x;
  funcs : (string, Ast.func) Hashtbl.t;
  globals : (string, gslot) Hashtbl.t;
      (** structure frozen after the global initializers ran *)
  mutable locals : frame list;  (** innermost first *)
  mutable bid : int;  (** block whose statements are executing *)
  mutable idx : int;  (** index of the current statement within [bid] *)
  mutable quiet : bool;  (** global-initializer mode: cost but no steps *)
  mutable depth : int;  (** user calls currently active *)
}

(** The program's [main], after checking that the program is
    normalized. *)
let main_of (prog : Ast.program) =
  if not (Normalize.is_normalized prog) then
    error Loc.dummy "program must be normalized (use Front.compile)";
  match Ast.find_func prog "main" with
  | Some f -> f
  | None -> error Loc.dummy "program has no 'main' function"

(** A fresh state for [main], with one empty frame and no globals yet. *)
let start x (prog : Ast.program) (main : Ast.func) =
  let funcs = Hashtbl.create 16 in
  List.iter (fun (f : Ast.func) -> Hashtbl.replace funcs f.fname f) prog.funcs;
  {
    x;
    funcs;
    globals = Hashtbl.create 16;
    locals = [ Hashtbl.create 8 ];
    bid = main.body.bid;
    idx = 0;
    quiet = false;
    depth = 0;
  }

(** Final global state, sorted by name. *)
let globals_of st =
  Hashtbl.fold (fun name g acc -> (name, !(g.gval)) :: acc) st.globals []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(** The compare-and-set behind the [cas] builtin (bounds checked). *)
let cas_cell (cells : Value.t array) i old_v new_v =
  if cells.(i) = VInt old_v then begin
    cells.(i) <- VInt new_v;
    true
  end
  else false

(** What an executor supplies.  Every hook receives the running task's
    state, so the executor sees the evaluator's cursor and flags. *)
module type EXEC = sig
  type t

  (** Charge [n] cost units to the current step. *)
  val charge : t state -> int -> unit

  (** A monitored access to the global with interned id [addr]. *)
  val access : t state -> int -> Monitor.access -> unit

  (** [access_cell st aid idx]: a monitored access to a cell. *)
  val access_cell : t state -> int -> int -> Monitor.access -> unit

  (** A fresh array id for an array of [len] cells. *)
  val fresh_aid : t state -> int -> int

  (** Append one printed line (no newline). *)
  val print : t state -> string -> unit

  (** The [cas] builtin on an in-bounds cell (see {!cas_cell}). *)
  val cas : t state -> Value.t array -> int -> int -> int -> bool

  (** Called before each statement, after the cursor moved to it. *)
  val at_stmt : t state -> unit

  (** A structural node of [kind] starts, created by statement [sid]
      with body block [body_bid], while the cursor still points at the
      creating statement; [leave] ends the innermost one before the
      cursor is restored.  The current step ends at both. *)
  val enter : t state -> Sdpst.Node.kind -> sid:int -> body_bid:int -> unit

  val leave : t state -> unit

  (** [async st s run]: [s] is an [async]; [run st' s] runs its body in
      its scope on a task state [st'] — now, later or on another worker,
      as the executor schedules it. *)
  val async : t state -> Ast.stmt -> (t state -> Ast.stmt -> unit) -> unit

  (** [finish st s run]: run [s]'s body with [run st s], then join the
      tasks it spawned. *)
  val finish : t state -> Ast.stmt -> (t state -> Ast.stmt -> unit) -> unit

  (** [isolated st s run]: run [s]'s body with [run st s], in mutual
      exclusion with every other isolated section. *)
  val isolated : t state -> Ast.stmt -> (t state -> Ast.stmt -> unit) -> unit
end

(* ------------------------------------------------------------------ *)
(* Values and operators                                                *)
(* ------------------------------------------------------------------ *)

let as_int loc = function
  | Value.VInt n -> n
  | v -> error loc "expected int, got %a" Value.pp v

let as_bool loc = function
  | Value.VBool b -> b
  | v -> error loc "expected bool, got %a" Value.pp v

let as_arr loc = function
  | Value.VArr a -> a
  | v -> error loc "expected array, got %a" Value.pp v

let eval_binop loc op (a : Value.t) (b : Value.t) : Value.t =
  let open Ast in
  match (op, a, b) with
  | Add, VInt x, VInt y -> VInt (x + y)
  | Sub, VInt x, VInt y -> VInt (x - y)
  | Mul, VInt x, VInt y -> VInt (x * y)
  | Div, VInt _, VInt 0 -> error loc "division by zero"
  | Div, VInt x, VInt y -> VInt (x / y)
  | Mod, VInt _, VInt 0 -> error loc "modulo by zero"
  | Mod, VInt x, VInt y -> VInt (x mod y)
  | Add, VFloat x, VFloat y -> VFloat (x +. y)
  | Sub, VFloat x, VFloat y -> VFloat (x -. y)
  | Mul, VFloat x, VFloat y -> VFloat (x *. y)
  | Div, VFloat x, VFloat y -> VFloat (x /. y)
  | Eq, VInt x, VInt y -> VBool (x = y)
  | Ne, VInt x, VInt y -> VBool (x <> y)
  | Lt, VInt x, VInt y -> VBool (x < y)
  | Le, VInt x, VInt y -> VBool (x <= y)
  | Gt, VInt x, VInt y -> VBool (x > y)
  | Ge, VInt x, VInt y -> VBool (x >= y)
  | Eq, VFloat x, VFloat y -> VBool (x = y)
  | Ne, VFloat x, VFloat y -> VBool (x <> y)
  | Lt, VFloat x, VFloat y -> VBool (x < y)
  | Le, VFloat x, VFloat y -> VBool (x <= y)
  | Gt, VFloat x, VFloat y -> VBool (x > y)
  | Ge, VFloat x, VFloat y -> VBool (x >= y)
  | Eq, VBool x, VBool y -> VBool (x = y)
  | Ne, VBool x, VBool y -> VBool (x <> y)
  | _ ->
      error loc "operator '%s' applied to %a and %a" (string_of_binop op)
        Value.pp a Value.pp b

(* ------------------------------------------------------------------ *)
(* Frames                                                              *)
(* ------------------------------------------------------------------ *)

let lookup_local st x =
  let rec go = function
    | [] -> None
    | fr :: rest -> (
        match Hashtbl.find_opt fr x with Some r -> Some r | None -> go rest)
  in
  go st.locals

let declare_local st x v =
  match st.locals with
  | fr :: _ -> Hashtbl.replace fr x (ref v)
  | [] -> invalid_arg "Eval.declare_local: no frame"

let rec bind_params fr (params : (string * Ast.ty) list) (args : Value.t list)
    =
  match (params, args) with
  | (x, _) :: ps, v :: vs ->
      Hashtbl.replace fr x (ref v);
      bind_params fr ps vs
  | [], [] -> ()
  | _ -> invalid_arg "Eval.bind_params: arity mismatch"

(* Compound-statement bodies are blocks after normalization, which
   [main_of] checks before anything runs. *)
let block_of (body : Ast.stmt) =
  match body.s with
  | Block b -> b
  | _ -> error body.sloc "program not normalized; compile with Front.compile"

module Make (X : EXEC) : sig
  (** Run the global initializers quietly, in declaration order, binding
      each global with its interned address. *)
  val init_globals : X.t state -> (Ast.global * int) list -> unit

  (** Run [main]'s body in a fresh frame. *)
  val run_main : X.t state -> Ast.func -> unit
end = struct
  (* A global is found only after every local frame misses; its reads
     and writes are monitored, local ones never are. *)
  let global st loc x =
    match Hashtbl.find_opt st.globals x with
    | Some g -> g
    | None -> error loc "unbound variable '%s'" x

  let read_var st loc x =
    match lookup_local st x with
    | Some r -> !r
    | None ->
        let g = global st loc x in
        X.access st g.gaddr Monitor.Read;
        !(g.gval)

  (* Leave a scope entered with [X.enter], restoring the saved cursor
     and frames. *)
  let leave_scope st bid idx locals =
    X.leave st;
    st.bid <- bid;
    st.idx <- idx;
    st.locals <- locals

  let rec alloc_array st loc base dims : Value.t =
    match dims with
    | [] -> assert false
    | n :: rest ->
        if n < 0 then error loc "negative array dimension %d" n;
        X.charge st (n * Cost.array_cell_alloc);
        let aid = X.fresh_aid st n in
        let cells =
          match rest with
          | [] -> Array.make n (Value.zero base)
          | _ -> Array.init n (fun _ -> alloc_array st loc base rest)
        in
        Value.VArr { aid; cells }

  let rec eval st (e : Ast.expr) : Value.t =
    X.charge st Cost.expr_node;
    match e.e with
    | Int n -> VInt n
    | Float f -> VFloat f
    | Bool b -> VBool b
    | Str s -> VStr s
    | Var x -> read_var st e.eloc x
    | Bin (And, a, b) ->
        if as_bool a.eloc (eval st a) then eval st b else VBool false
    | Bin (Or, a, b) ->
        if as_bool a.eloc (eval st a) then VBool true else eval st b
    | Bin (op, a, b) ->
        let va = eval st a in
        let vb = eval st b in
        eval_binop e.eloc op va vb
    | Un (Neg, a) -> (
        match eval st a with
        | VInt n -> VInt (-n)
        | VFloat f -> VFloat (-.f)
        | v -> error e.eloc "unary '-' applied to %a" Value.pp v)
    | Un (Not, a) -> VBool (not (as_bool a.eloc (eval st a)))
    | Idx (a, i) ->
        let arr = as_arr a.eloc (eval st a) in
        let i = as_int i.eloc (eval st i) in
        if i < 0 || i >= Array.length arr.cells then
          error e.eloc "index %d out of bounds [0..%d)" i
            (Array.length arr.cells);
        X.access_cell st arr.aid i Monitor.Read;
        arr.cells.(i)
    | NewArr (base, dims) ->
        let dims = List.map (fun d -> as_int d.Ast.eloc (eval st d)) dims in
        alloc_array st e.eloc base dims
    | Call (name, args) ->
        let vargs = eval_args st args in
        if Builtins.is_builtin name then eval_builtin st e.eloc name vargs
        else call_function st e.eloc name vargs

  and eval_args st = function
    | [] -> []
    | a :: rest ->
        let v = eval st a in
        v :: eval_args st rest

  and eval_builtin st loc name (args : Value.t list) : Value.t =
    X.charge st Cost.builtin_overhead;
    match (name, args) with
    | "alen", [ VArr a ] -> VInt (Array.length a.cells)
    | "print", [ v ] ->
        X.print st (Fmt.str "%a" Value.pp v);
        VUnit
    | "work", [ VInt n ] ->
        if n < 0 then error loc "work(%d): negative amount" n;
        X.charge st n;
        VUnit
    | "cas", [ VArr a; VInt i; VInt old_v; VInt new_v ] ->
        (* Models HJ's atomic claim; exempt from race detection
           (DESIGN.md). *)
        if i < 0 || i >= Array.length a.cells then
          error loc "cas: index %d out of bounds [0..%d)" i
            (Array.length a.cells);
        VBool (X.cas st a.cells i old_v new_v)
    | "float", [ VInt n ] -> VFloat (float_of_int n)
    | "int", [ VFloat f ] -> VInt (int_of_float f)
    | "sqrt", [ VFloat f ] -> VFloat (sqrt f)
    | "sin", [ VFloat f ] -> VFloat (sin f)
    | "cos", [ VFloat f ] -> VFloat (cos f)
    | "fabs", [ VFloat f ] -> VFloat (abs_float f)
    | "pow", [ VFloat a; VFloat b ] -> VFloat (a ** b)
    | "log", [ VFloat f ] -> VFloat (log f)
    | "exp", [ VFloat f ] -> VFloat (exp f)
    | _ ->
        error loc "builtin '%s' applied to (%a)" name
          Fmt.(list ~sep:comma Value.pp)
          args

  (* A call opens a [Scall] scope whose body runs in a parameter frame
     plus a fresh frame for its declarations. *)
  and call_function st loc name (args : Value.t list) : Value.t =
    let f =
      match Hashtbl.find_opt st.funcs name with
      | Some f -> f
      | None -> error loc "unknown function '%s'" name
    in
    X.charge st Cost.call_overhead;
    if st.depth >= max_call_depth then
      error loc "call depth limit %d exceeded calling '%s'" max_call_depth
        name;
    X.enter st (Sdpst.Node.Scope (Sdpst.Node.Scall name)) ~sid:(-1)
      ~body_bid:f.body.bid;
    let bid = st.bid and idx = st.idx and locals = st.locals in
    st.bid <- f.body.bid;
    st.depth <- st.depth + 1;
    let v =
      match
        let params = Hashtbl.create 8 in
        bind_params params f.params args;
        st.locals <- [ Hashtbl.create 8; params ];
        exec_stmts st 0 f.body.stmts
      with
      | () -> Value.VUnit
      | exception Return_v v -> v
      | exception ex ->
          st.depth <- st.depth - 1;
          leave_scope st bid idx locals;
          raise ex
    in
    st.depth <- st.depth - 1;
    leave_scope st bid idx locals;
    v

  and exec_stmts st i (stmts : Ast.stmt list) : unit =
    match stmts with
    | [] -> ()
    | s :: rest ->
        st.idx <- i;
        X.at_stmt st;
        exec_stmt st s;
        exec_stmts st (i + 1) rest

  (* Run block [b] in frame [fr] under a structural node of [kind]: the
     current step ends, the body runs with its own block cursor, and the
     step resumes lazily afterwards at the saved (bid, idx). *)
  and exec_block st kind ~sid (b : Ast.block) (fr : frame) : unit =
    X.enter st kind ~sid ~body_bid:b.bid;
    let bid = st.bid and idx = st.idx and locals = st.locals in
    st.bid <- b.bid;
    st.locals <- fr :: locals;
    match exec_stmts st 0 b.stmts with
    | () -> leave_scope st bid idx locals
    | exception ex ->
        leave_scope st bid idx locals;
        raise ex

  (* The body of an async, finish or isolated statement, in its scope;
     executors receive this as the [run] argument of their hooks. *)
  and exec_structured st (s : Ast.stmt) : unit =
    let kind, body =
      match s.s with
      | Async body -> (Sdpst.Node.Async, body)
      | Finish body -> (Sdpst.Node.Finish, body)
      | Isolated body -> (Sdpst.Node.Scope Sdpst.Node.Sblock, body)
      | _ -> invalid_arg "Eval.exec_structured"
    in
    exec_block st kind ~sid:s.sid (block_of body) (Hashtbl.create 8)

  and exec_stmt st (stmt : Ast.stmt) : unit =
    (match stmt.s with
    | Async _ | Finish _ | Isolated _ | Block _ -> ()
    | _ -> X.charge st Cost.stmt);
    match stmt.s with
    | Decl (_m, x, _ty, init) ->
        let v = eval st init in
        declare_local st x v
    | Assign (x, [], rhs) -> (
        let v = eval st rhs in
        match lookup_local st x with
        | Some r -> r := v
        | None ->
            let g = global st stmt.sloc x in
            X.access st g.gaddr Monitor.Write;
            g.gval := v)
    | Assign (x, path, rhs) ->
        assign_path st stmt rhs (read_var st stmt.sloc x) path
    | If (c, a, b) -> (
        (* the bodies are block statements: executing one opens its
           scope *)
        if as_bool c.eloc (eval st c) then exec_stmt st a
        else match b with Some b -> exec_stmt st b | None -> ())
    | While (c, body) ->
        while as_bool c.eloc (eval st c) do
          exec_stmt st body
        done
    | For (iv, lo, hi, by, body) ->
        let lo = as_int lo.eloc (eval st lo) in
        let hi = as_int hi.eloc (eval st hi) in
        let step =
          match by with
          | None -> 1
          | Some e -> (
              match as_int e.eloc (eval st e) with
              | 0 -> error stmt.sloc "for step must be non-zero"
              | s -> s)
        in
        exec_for st iv lo hi step body.sid (block_of body)
    | Return None -> raise (Return_v Value.VUnit)
    | Return (Some e) ->
        let v = eval st e in
        raise (Return_v v)
    | Async _ -> X.async st stmt exec_structured
    | Finish _ -> X.finish st stmt exec_structured
    | Isolated _ -> X.isolated st stmt exec_structured
    | Block b ->
        exec_block st (Sdpst.Node.Scope Sdpst.Node.Sblock) ~sid:stmt.sid b
          (Hashtbl.create 8)
    | Expr e -> ignore (eval st e)

  (* [a[i]...[j] = rhs]: every index but the last is a monitored read of
     its cell; the last cell is written after [rhs] is evaluated. *)
  and assign_path st (stmt : Ast.stmt) rhs v = function
    | [] -> assert false
    | [ last ] ->
        let arr = as_arr stmt.sloc v in
        let i = as_int last.Ast.eloc (eval st last) in
        if i < 0 || i >= Array.length arr.cells then
          error stmt.sloc "index %d out of bounds [0..%d)" i
            (Array.length arr.cells);
        let rhs_v = eval st rhs in
        X.access_cell st arr.aid i Monitor.Write;
        arr.cells.(i) <- rhs_v
    | idx :: rest ->
        let arr = as_arr stmt.sloc v in
        let i = as_int idx.Ast.eloc (eval st idx) in
        if i < 0 || i >= Array.length arr.cells then
          error stmt.sloc "index %d out of bounds [0..%d)" i
            (Array.length arr.cells);
        X.access_cell st arr.aid i Monitor.Read;
        assign_path st stmt rhs arr.cells.(i) rest

  (* Each iteration is a fresh scope instance binding [iv].  No
     per-iteration charge: it would open a step inside the iteration
     scope even when the body is a lone async, and that step would block
     loop-wide finish placements.  For-loops are bounded, so fuel
     accounting inside the body suffices. *)
  and exec_for st iv i hi step sid (b : Ast.block) : unit =
    if (step > 0 && i <= hi) || (step < 0 && i >= hi) then begin
      let fr = Hashtbl.create 8 in
      Hashtbl.replace fr iv (ref (Value.VInt i));
      exec_block st (Sdpst.Node.Scope Sdpst.Node.Sblock) ~sid b fr;
      exec_for st iv (i + step) hi step sid b
    end

  (* Global initializers are sequenced before every task, so they run
     quietly: they consume fuel but open no steps and report no
     accesses, and can never take part in a race (DESIGN.md). *)
  let init_globals st gaddrs =
    st.quiet <- true;
    List.iter
      (fun ((g : Ast.global), gaddr) ->
        let v = eval st g.ginit in
        Hashtbl.replace st.globals g.gname { gval = ref v; gaddr })
      gaddrs;
    st.quiet <- false

  let run_main st (main : Ast.func) =
    let locals = st.locals in
    st.locals <- Hashtbl.create 8 :: locals;
    (try exec_stmts st 0 main.body.stmts with Return_v _ -> ());
    st.locals <- locals
end

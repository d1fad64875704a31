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

    Names are resolved once per run ({!resolve}): locals are slots of
    the call activation's frame array, globals are slots of one array
    shared by the run's tasks, and calls are function indices, so no
    name is looked up while the program runs.

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
    in about 0.15 s, where running it out takes about 40 s (a whole
    [tdrepair run] on a 2-vCPU VM).  The deepest call chain of any
    shipped benchmark is 4000 (Spanning Tree at its paper size). *)
let max_call_depth = 50_000

(* ------------------------------------------------------------------ *)
(* The resolved program                                                *)
(* ------------------------------------------------------------------ *)

(* The resolved tree mirrors the AST: each statement keeps its
   [Ast.stmt], so statement ids, locations, the block cursor, cost
   charges and structural transitions are exactly those of the source
   program. *)

(** A variable, resolved against lexical scopes: one per entered block,
    the loop variable in its iteration's scope, and parameters in a
    scope of their own. *)
type var =
  | Local of int  (** slot in the activation's frame *)
  | Global of int  (** slot in the run's global slots *)
  | Unbound of string  (** raises at the point of use *)

type rexpr = { re : rexpr_desc; rloc : Loc.t }

and rexpr_desc =
  | Const of Value.t
  | Var of var
  | Bin of Ast.binop * rexpr * rexpr
  | Un of Ast.unop * rexpr
  | Idx of rexpr * rexpr
  | NewArr of Ast.ty * rexpr list
  | Builtin of string * rexpr list
  | Call of int * rexpr list  (** index into [code.funcs] *)
  | Unknown_fn of string * rexpr list

type rstmt = { src : Ast.stmt; rs : rstmt_desc }

and rstmt_desc =
  | Decl of int * rexpr  (** frame slot, initializer *)
  | Assign of var * rexpr list * rexpr
  | If of rexpr * rstmt * rstmt option
  | While of rexpr * rstmt
  | For of int * rexpr * rexpr * rexpr option * int * rblock
      (** loop-variable slot, bounds, step, body sid, body *)
  | Return of rexpr option
  | Async of rblock
  | Finish of rblock
  | Isolated of rblock
  | Block of rblock
  | Expr of rexpr

and rblock = { rbid : int; rstmts : rstmt list }

type rfunc = {
  fname : string;
  nparams : int;
  nslots : int;  (** frame size: parameters plus the deepest scope nest *)
  rbody : rblock;
}

type code = {
  funcs : rfunc array;
  main : rfunc;
  gnames : string array;  (** global slot -> name *)
  ginits : (int * rexpr) list;  (** slot and initializer, in order *)
}

(** A global's slot caches its interned address, so the monitored read
    and write paths report it without re-resolving the name. *)
type gslot = { mutable gval : Value.t; gaddr : int }

(* The slot of a global whose initializer has not run yet. *)
let unset = { gval = VUnit; gaddr = -1 }

(** Evaluator state of one running task; ['x] is the executor's part. *)
type 'x state = {
  x : 'x;
  code : code;
  gslots : gslot array;
      (** shared by every task; filled by the initializer phase, after
          which only the slots' contents change *)
  mutable frame : Value.t array;  (** the current call activation *)
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

(* Compound-statement bodies are blocks after normalization, which
   [main_of] checks before anything is resolved. *)
let block_of (body : Ast.stmt) =
  match body.s with
  | Block b -> b
  | _ -> error body.sloc "program not normalized; compile with Front.compile"

module Smap = Map.Make (String)

(* Names in scope and the first free frame slot.  Scopes are values, so
   sibling scopes start from the same [next] and reuse its slots. *)
type scope = { vars : int Smap.t; next : int }

let empty_scope = { vars = Smap.empty; next = 0 }

(* What a function body resolves against; [nslots] grows to its frame
   size. *)
type ctx = { gidx : int Smap.t; fidx : int Smap.t; mutable nslots : int }

let bind c sc x =
  let next = sc.next + 1 in
  if next > c.nslots then c.nslots <- next;
  { vars = Smap.add x sc.next sc.vars; next }

let resolve_var c sc x =
  match Smap.find_opt x sc.vars with
  | Some i -> Local i
  | None -> (
      match Smap.find_opt x c.gidx with
      | Some i -> Global i
      | None -> Unbound x)

let rec resolve_expr c sc (e : Ast.expr) =
  let r = resolve_expr c sc in
  let re =
    match e.e with
    | Ast.Int n -> Const (VInt n)
    | Ast.Float f -> Const (VFloat f)
    | Ast.Bool b -> Const (VBool b)
    | Ast.Str s -> Const (VStr s)
    | Ast.Var x -> Var (resolve_var c sc x)
    | Ast.Bin (op, a, b) -> Bin (op, r a, r b)
    | Ast.Un (op, a) -> Un (op, r a)
    | Ast.Idx (a, i) -> Idx (r a, r i)
    | Ast.NewArr (ty, dims) -> NewArr (ty, List.map r dims)
    | Ast.Call (name, args) -> (
        let args = List.map r args in
        (* builtins take precedence over user functions *)
        if Builtins.is_builtin name then Builtin (name, args)
        else
          match Smap.find_opt name c.fidx with
          | Some i -> Call (i, args)
          | None -> Unknown_fn (name, args))
  in
  { re; rloc = e.eloc }

(* A declaration takes the scope's next slot and is visible to the rest
   of its statement list; every other statement leaves the scope as it
   is. *)
let rec resolve_stmts c sc = function
  | [] -> []
  | s :: rest ->
      let s, sc = resolve_stmt c sc s in
      s :: resolve_stmts c sc rest

and resolve_block c sc (b : Ast.block) =
  { rbid = b.bid; rstmts = resolve_stmts c sc b.stmts }

and resolve_stmt c sc (s : Ast.stmt) =
  let r = resolve_expr c sc in
  let block b = resolve_block c sc (block_of b) in
  let branch b = fst (resolve_stmt c sc b) in
  let rs =
    match s.s with
    | Ast.Decl (_, _, _, init) -> Decl (sc.next, r init)
    | Ast.Assign (x, path, rhs) ->
        Assign (resolve_var c sc x, List.map r path, r rhs)
    | Ast.If (cond, a, b) -> If (r cond, branch a, Option.map branch b)
    | Ast.While (cond, b) -> While (r cond, branch b)
    | Ast.For (iv, lo, hi, by, b) ->
        For
          ( sc.next,
            r lo,
            r hi,
            Option.map r by,
            b.sid,
            resolve_block c (bind c sc iv) (block_of b) )
    | Ast.Return e -> Return (Option.map r e)
    | Ast.Async b -> Async (block b)
    | Ast.Finish b -> Finish (block b)
    | Ast.Isolated b -> Isolated (block b)
    | Ast.Block b -> Block (resolve_block c sc b)
    | Ast.Expr e -> Expr (r e)
  in
  let sc = match s.s with Ast.Decl (_, x, _, _) -> bind c sc x | _ -> sc in
  ({ src = s; rs }, sc)

let resolve_func gidx fidx (f : Ast.func) =
  let c = { gidx; fidx; nslots = 0 } in
  let sc = List.fold_left (fun sc (x, _) -> bind c sc x) empty_scope f.params in
  {
    fname = f.fname;
    nparams = List.length f.params;
    rbody = resolve_block c sc f.body;
    nslots = c.nslots;
  }

(** Resolve [prog] for one run, after checking it with {!main_of}.
    Globals get one slot per distinct name, in declaration order; a
    later declaration of a name re-initializes its slot.  Among
    functions of one name the last is called; [main] is the first, as
    {!main_of} finds it. *)
let resolve (prog : Ast.program) =
  let main = main_of prog in
  let gidx, _, gnames =
    List.fold_left
      (fun ((m, n, names) as acc) (g : Ast.global) ->
        if Smap.mem g.gname m then acc
        else (Smap.add g.gname n m, n + 1, g.gname :: names))
      (Smap.empty, 0, []) prog.globals
  in
  let fidx, _ =
    List.fold_left
      (fun (m, i) (f : Ast.func) -> (Smap.add f.fname i m, i + 1))
      (Smap.empty, 0) prog.funcs
  in
  let funcs = List.map (fun f -> (f, resolve_func gidx fidx f)) prog.funcs in
  let top = { gidx; fidx; nslots = 0 } in
  {
    funcs = Array.of_list (List.map snd funcs);
    main = List.assq main funcs;
    gnames = Array.of_list (List.rev gnames);
    ginits =
      List.map
        (fun (g : Ast.global) ->
          (Smap.find g.gname gidx, resolve_expr top empty_scope g.ginit))
        prog.globals;
  }

(** A fresh state for [main], with its frame and no globals yet. *)
let start x code =
  {
    x;
    code;
    gslots = Array.make (Array.length code.gnames) unset;
    frame = Array.make code.main.nslots Value.VUnit;
    bid = code.main.rbody.rbid;
    idx = 0;
    quiet = false;
    depth = 0;
  }

(** Final global state, sorted by name. *)
let globals_of st =
  Array.to_list
    (Array.mapi (fun i g -> (st.code.gnames.(i), g.gval)) st.gslots)
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
  val async : t state -> rstmt -> (t state -> rstmt -> unit) -> unit

  (** [finish st s run]: run [s]'s body with [run st s], then join the
      tasks it spawned. *)
  val finish : t state -> rstmt -> (t state -> rstmt -> unit) -> unit

  (** [isolated st s run]: run [s]'s body with [run st s], in mutual
      exclusion with every other isolated section. *)
  val isolated : t state -> rstmt -> (t state -> rstmt -> unit) -> unit
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

let rec bind_args (fr : Value.t array) i = function
  | [] -> ()
  | v :: vs ->
      fr.(i) <- v;
      bind_args fr (i + 1) vs

module Make (X : EXEC) : sig
  (** Run the global initializers quietly, in declaration order, binding
      each global with its interned address ([gaddrs], in the same
      order). *)
  val init_globals : X.t state -> int list -> unit

  (** Run [main]'s body in its frame. *)
  val run_main : X.t state -> unit
end = struct
  (* Only globals are monitored; local reads and writes never are. *)
  let global st loc i =
    let g = st.gslots.(i) in
    if g == unset then error loc "unbound variable '%s'" st.code.gnames.(i);
    g

  let read_var st loc = function
    | Local i -> st.frame.(i)
    | Global i ->
        let g = global st loc i in
        X.access st g.gaddr Monitor.Read;
        g.gval
    | Unbound x -> error loc "unbound variable '%s'" x

  let write_var st loc x v =
    match x with
    | Local i -> st.frame.(i) <- v
    | Global i ->
        let g = global st loc i in
        X.access st g.gaddr Monitor.Write;
        g.gval <- v
    | Unbound x -> error loc "unbound variable '%s'" x

  (* Leave a scope entered with [X.enter], restoring the saved cursor. *)
  let leave_scope st bid idx =
    X.leave st;
    st.bid <- bid;
    st.idx <- idx

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

  let rec eval st (e : rexpr) : Value.t =
    X.charge st Cost.expr_node;
    match e.re with
    | Const v -> v
    | Var x -> read_var st e.rloc x
    | Bin (And, a, b) ->
        if as_bool a.rloc (eval st a) then eval st b else VBool false
    | Bin (Or, a, b) ->
        if as_bool a.rloc (eval st a) then VBool true else eval st b
    | Bin (op, a, b) ->
        let va = eval st a in
        let vb = eval st b in
        eval_binop e.rloc op va vb
    | Un (Neg, a) -> (
        match eval st a with
        | VInt n -> VInt (-n)
        | VFloat f -> VFloat (-.f)
        | v -> error e.rloc "unary '-' applied to %a" Value.pp v)
    | Un (Not, a) -> VBool (not (as_bool a.rloc (eval st a)))
    | Idx (a, i) ->
        let arr = as_arr a.rloc (eval st a) in
        let i = as_int i.rloc (eval st i) in
        if i < 0 || i >= Array.length arr.cells then
          error e.rloc "index %d out of bounds [0..%d)" i
            (Array.length arr.cells);
        X.access_cell st arr.aid i Monitor.Read;
        arr.cells.(i)
    | NewArr (base, dims) ->
        let dims = List.map (fun d -> as_int d.rloc (eval st d)) dims in
        alloc_array st e.rloc base dims
    | Builtin (name, args) -> eval_builtin st e.rloc name (eval_args st args)
    | Call (f, args) ->
        call_function st e.rloc st.code.funcs.(f) (eval_args st args)
    | Unknown_fn (name, args) ->
        ignore (eval_args st args);
        error e.rloc "unknown function '%s'" name

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

  (* A call opens a [Scall] scope whose body runs in a fresh frame, its
     parameters in the first slots. *)
  and call_function st loc (f : rfunc) (args : Value.t list) : Value.t =
    X.charge st Cost.call_overhead;
    if st.depth >= max_call_depth then
      error loc "call depth limit %d exceeded calling '%s'" max_call_depth
        f.fname;
    X.enter st (Sdpst.Node.Scope (Sdpst.Node.Scall f.fname)) ~sid:(-1)
      ~body_bid:f.rbody.rbid;
    let bid = st.bid and idx = st.idx and frame = st.frame in
    st.bid <- f.rbody.rbid;
    st.depth <- st.depth + 1;
    let v =
      match
        if List.length args <> f.nparams then
          invalid_arg "Eval.call_function: arity mismatch";
        let fr = Array.make f.nslots Value.VUnit in
        bind_args fr 0 args;
        st.frame <- fr;
        exec_stmts st 0 f.rbody.rstmts
      with
      | () -> Value.VUnit
      | exception Return_v v -> v
      | exception ex ->
          st.depth <- st.depth - 1;
          st.frame <- frame;
          leave_scope st bid idx;
          raise ex
    in
    st.depth <- st.depth - 1;
    st.frame <- frame;
    leave_scope st bid idx;
    v

  and exec_stmts st i (stmts : rstmt list) : unit =
    match stmts with
    | [] -> ()
    | s :: rest ->
        st.idx <- i;
        X.at_stmt st;
        exec_stmt st s;
        exec_stmts st (i + 1) rest

  (* Run block [b] under a structural node of [kind]: the current step
     ends, the body runs with its own block cursor, and the step resumes
     lazily afterwards at the saved (bid, idx). *)
  and exec_block st kind ~sid (b : rblock) : unit =
    X.enter st kind ~sid ~body_bid:b.rbid;
    let bid = st.bid and idx = st.idx in
    st.bid <- b.rbid;
    match exec_stmts st 0 b.rstmts with
    | () -> leave_scope st bid idx
    | exception ex ->
        leave_scope st bid idx;
        raise ex

  (* The body of an async, finish or isolated statement, in its scope;
     executors receive this as the [run] argument of their hooks. *)
  and exec_structured st (s : rstmt) : unit =
    let kind, body =
      match s.rs with
      | Async body -> (Sdpst.Node.Async, body)
      | Finish body -> (Sdpst.Node.Finish, body)
      | Isolated body -> (Sdpst.Node.Scope Sdpst.Node.Sblock, body)
      | _ -> invalid_arg "Eval.exec_structured"
    in
    exec_block st kind ~sid:s.src.sid body

  and exec_stmt st (stmt : rstmt) : unit =
    (match stmt.rs with
    | Async _ | Finish _ | Isolated _ | Block _ -> ()
    | _ -> X.charge st Cost.stmt);
    match stmt.rs with
    | Decl (slot, init) ->
        let v = eval st init in
        st.frame.(slot) <- v
    | Assign (x, [], rhs) ->
        let v = eval st rhs in
        write_var st stmt.src.sloc x v
    | Assign (x, path, rhs) ->
        assign_path st stmt.src.sloc rhs (read_var st stmt.src.sloc x) path
    | If (c, a, b) -> (
        (* the bodies are block statements: executing one opens its
           scope *)
        if as_bool c.rloc (eval st c) then exec_stmt st a
        else match b with Some b -> exec_stmt st b | None -> ())
    | While (c, body) ->
        while as_bool c.rloc (eval st c) do
          exec_stmt st body
        done
    | For (slot, lo, hi, by, sid, body) ->
        let lo = as_int lo.rloc (eval st lo) in
        let hi = as_int hi.rloc (eval st hi) in
        let step =
          match by with
          | None -> 1
          | Some e -> (
              match as_int e.rloc (eval st e) with
              | 0 -> error stmt.src.sloc "for step must be non-zero"
              | s -> s)
        in
        exec_for st slot lo hi step sid body
    | Return None -> raise (Return_v Value.VUnit)
    | Return (Some e) ->
        let v = eval st e in
        raise (Return_v v)
    | Async _ -> X.async st stmt exec_structured
    | Finish _ -> X.finish st stmt exec_structured
    | Isolated _ -> X.isolated st stmt exec_structured
    | Block b ->
        exec_block st (Sdpst.Node.Scope Sdpst.Node.Sblock) ~sid:stmt.src.sid b
    | Expr e -> ignore (eval st e)

  (* [a[i]...[j] = rhs]: every index but the last is a monitored read of
     its cell; the last cell is written after [rhs] is evaluated. *)
  and assign_path st loc rhs v = function
    | [] -> assert false
    | [ last ] ->
        let arr = as_arr loc v in
        let i = as_int last.rloc (eval st last) in
        if i < 0 || i >= Array.length arr.cells then
          error loc "index %d out of bounds [0..%d)" i (Array.length arr.cells);
        let rhs_v = eval st rhs in
        X.access_cell st arr.aid i Monitor.Write;
        arr.cells.(i) <- rhs_v
    | idx :: rest ->
        let arr = as_arr loc v in
        let i = as_int idx.rloc (eval st idx) in
        if i < 0 || i >= Array.length arr.cells then
          error loc "index %d out of bounds [0..%d)" i (Array.length arr.cells);
        X.access_cell st arr.aid i Monitor.Read;
        assign_path st loc rhs arr.cells.(i) rest

  (* Each iteration is a fresh scope instance binding the loop variable
     in [slot].  No per-iteration charge: it would open a step inside
     the iteration scope even when the body is a lone async, and that
     step would block loop-wide finish placements.  For-loops are
     bounded, so fuel accounting inside the body suffices. *)
  and exec_for st slot i hi step sid (b : rblock) : unit =
    if (step > 0 && i <= hi) || (step < 0 && i >= hi) then begin
      st.frame.(slot) <- Value.VInt i;
      exec_block st (Sdpst.Node.Scope Sdpst.Node.Sblock) ~sid b;
      exec_for st slot (i + step) hi step sid b
    end

  (* Global initializers are sequenced before every task, so they run
     quietly: they consume fuel but open no steps and report no
     accesses, and can never take part in a race (DESIGN.md). *)
  let init_globals st gaddrs =
    st.quiet <- true;
    List.iter2
      (fun (slot, init) gaddr ->
        let gval = eval st init in
        st.gslots.(slot) <- { gval; gaddr })
      st.code.ginits gaddrs;
    st.quiet <- false

  let run_main st =
    try exec_stmts st 0 st.code.main.rbody.rstmts with Return_v _ -> ()
end

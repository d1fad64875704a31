(** Sequential depth-first interpreter for Mini-HJ.

    The paper's analyses all run over the {e canonical sequential
    (depth-first) execution} of the parallel program: an [async] body runs
    to completion at its spawn point, exactly like the serial elision, while
    the S-DPST records the parallel structure.  This module is the
    depth-first executor of the shared {!Eval}uator: it performs that
    execution, builds the S-DPST, charges abstract {!Cost} units to the
    current step (against fuel and the {!Watchdog} at every charge), and
    reports structural transitions and shared-memory accesses to an
    optional {!Monitor}.

    Structural mapping from program to S-DPST:
    - the root node stands for [main]'s task and its implicit finish;
    - an [async]/[finish] statement creates an async/finish node whose
      children come directly from its body block (the AST is normalized, so
      the body always is a block);
    - entering any other block (branch or loop body, nested block) creates
      a [Scope Sblock] node; each loop iteration is a fresh scope instance;
    - calling a user function creates a [Scope (Scall f)] node — possibly
      in the middle of a step, which ends at the call and resumes after;
    - maximal monitored/costed runs between structural transitions become
      step leaves. *)

open Mhj

exception Runtime_error = Eval.Runtime_error

exception Out_of_fuel = Eval.Out_of_fuel

type result = {
  output : string;
  tree : Sdpst.Node.tree;
  work : int;
  globals : (string * Value.t) list;
  intern : Addr.Intern.t;
}

(* The depth-first executor's part of the evaluator state. *)
type dfs = {
  tree : Sdpst.Node.tree;
  mutable parent : Sdpst.Node.t;  (** innermost open structural node *)
  mutable step : Sdpst.Node.t option;  (** the open step, if any *)
  monitor : Monitor.t;
  intern : Addr.Intern.t;
  buf : Buffer.t;
  mutable fuel : int;
  mutable work : int;
  mutable aid : int;
}

module Dfs = struct
  type t = dfs

  (* A step opens lazily, at the first charge or access after a
     structural transition, with the cursor's (bid, idx) as its origin. *)
  let ensure_step (st : t Eval.state) =
    let d = st.x in
    match d.step with
    | Some s -> s
    | None ->
        let s =
          Sdpst.Node.new_child d.tree ~parent:d.parent ~kind:Sdpst.Node.Step
            ~origin_bid:st.bid ~origin_idx:st.idx ()
        in
        d.step <- Some s;
        s

  let charge (st : t Eval.state) n =
    let d = st.x in
    d.fuel <- d.fuel - n;
    if d.fuel < 0 then raise Out_of_fuel;
    Watchdog.tick ();
    if not st.quiet then begin
      (* global-initializer (quiet) cost consumes fuel but is program
         setup, not measured execution time: [work] equals the sum of
         step costs *)
      d.work <- d.work + n;
      let s = ensure_step st in
      s.cost <- s.cost + n;
      if st.idx > s.last_idx then s.last_idx <- st.idx
    end

  (* [addr] is an interned id (see Addr.Intern): a global's cached id or
     a registered array's base plus the cell index — no boxed address is
     built on the access path. *)
  let access (st : t Eval.state) addr kind =
    if not st.quiet then
      let s = ensure_step st in
      st.x.monitor.Monitor.on_access ~step:s ~bid:st.bid ~idx:st.idx addr kind

  let access_cell (st : t Eval.state) aid idx kind =
    access st (Addr.Intern.cell_id st.x.intern ~aid ~idx) kind

  let fresh_aid (st : t Eval.state) len =
    let d = st.x in
    d.aid <- d.aid + 1;
    Addr.Intern.register_array d.intern ~aid:d.aid ~len;
    d.aid

  let print (st : t Eval.state) line =
    Buffer.add_string st.x.buf line;
    Buffer.add_char st.x.buf '\n'

  let cas _ = Eval.cas_cell

  let at_stmt _ = ()

  let enter (st : t Eval.state) kind ~sid ~body_bid =
    let d = st.x in
    d.step <- None;
    let node =
      Sdpst.Node.new_child d.tree ~parent:d.parent ~kind ~sid
        ~origin_bid:st.bid ~origin_idx:st.idx ~body_bid ()
    in
    d.parent <- node;
    match kind with
    | Async -> d.monitor.Monitor.on_task_begin node
    | Finish -> d.monitor.Monitor.on_finish_begin node
    | _ -> ()

  let leave (st : t Eval.state) =
    let d = st.x in
    let node = d.parent in
    (match node.kind with
    | Async -> d.monitor.Monitor.on_task_end node
    | Finish -> d.monitor.Monitor.on_finish_end node
    | _ -> ());
    d.step <- None;
    d.parent <- Option.get node.parent

  (* An async body runs to completion at its spawn point; sequential
     execution is also a legal schedule of isolated's mutual exclusion,
     so all three run their body in place.  Races between isolated
     sections still surface in the S-DPST and are discharged statically
     (Repair.Isolate). *)
  let async st s run = run st s

  let finish st s run = run st s

  let isolated st s run = run st s
end

module E = Eval.Make (Dfs)

(* ------------------------------------------------------------------ *)
(* Whole-program execution                                             *)
(* ------------------------------------------------------------------ *)

let default_fuel = 200_000_000

let run ?(monitor = Monitor.nop) ?(fuel = default_fuel) (prog : Ast.program) :
    result =
  let code = Eval.resolve prog in
  let tree = Sdpst.Node.create_tree ~main_bid:code.main.rbody.rbid in
  let intern = Addr.Intern.create () in
  let d =
    {
      tree;
      parent = tree.root;
      step = None;
      monitor;
      intern;
      buf = Buffer.create 256;
      fuel;
      work = 0;
      aid = 0;
    }
  in
  let st = Eval.start d code in
  (* Globals are interned up front (ids 0.. in declaration order); arrays
     claim id blocks as they are allocated, starting with any allocated by
     the global initializers themselves. *)
  let gaddrs =
    List.map
      (fun (g : Ast.global) -> Addr.Intern.add_global intern g.gname)
      prog.globals
  in
  monitor.Monitor.on_init intern;
  (* Global initializers run before main, outside any step: they are
     sequenced before every task, so they can never participate in a race
     and are kept out of the S-DPST (see DESIGN.md). *)
  E.init_globals st gaddrs;
  (* The monitored depth-first execution is also what grows the S-DPST,
     so one span covers both; nested under "detect" when the driver runs
     this behind a detector monitor. *)
  Obs.Trace.with_span "sdpst-build" (fun () ->
      monitor.Monitor.on_task_begin tree.root;
      monitor.Monitor.on_finish_begin tree.root;
      E.run_main st;
      d.step <- None;
      monitor.Monitor.on_finish_end tree.root;
      monitor.Monitor.on_task_end tree.root);
  {
    output = Buffer.contents d.buf;
    tree;
    work = d.work;
    globals = Eval.globals_of st;
    intern;
  }

let run_elision ?fuel (prog : Ast.program) : result =
  run ?fuel (Normalize.normalize (Elision.elide prog))

(** Parallel async-finish executor on OCaml 5 domains (see engine.mli
    for the two modes).  Both executors drive the one Mini-HJ evaluator,
    {!Rt.Eval}; this module only schedules: deques, the Fuzz pool and
    yields, finish join counters, fuel batches and pacing, poison,
    {!Emon} tokens and locked interning.

    Memory-safety of the shared heap (see DESIGN.md §9): a task's local
    frame is a slot array copied ([Array.copy]) at spawn, so no frame is
    ever shared between tasks; the global slots are filled during the
    sequential initializer phase and only their contents (slot values and
    array cells) race afterwards, which is memory-safe under the OCaml 5
    memory model — racy programs yield outcome nondeterminism, never
    crashes.

    Fuel is a global [Atomic] decremented in per-worker batches; pacing
    ([pace_ns] per cost unit) is paid as debt-based sleeping so that
    wall-clock speedup reflects the schedule's overlap even when the
    interpreter itself is not the bottleneck. *)

open Mhj

exception Abort
(* internal: unwind a task after another task poisoned the run *)

type mode = Fuzz of { seed : int } | Domains of { n : int; seed : int }

type policy = { inline_pct : int; yield_pct : int }

let fuzz_policy = { inline_pct = 45; yield_pct = 10 }

let domains_policy = { inline_pct = 0; yield_pct = 0 }

type sched_stats =
  | Fuzz_stats of { n_inlined : int; n_pooled : int; n_yields : int }
  | Domains_stats of { n_steals : int; n_deque_grows : int }

type stats = {
  n_tasks : int;
  n_fuel_batches : int;
  sched : sched_stats;
}

let add_stats a b =
  let sched =
    match (a.sched, b.sched) with
    | ( Fuzz_stats { n_inlined = i1; n_pooled = p1; n_yields = y1 },
        Fuzz_stats { n_inlined = i2; n_pooled = p2; n_yields = y2 } ) ->
        Fuzz_stats
          { n_inlined = i1 + i2; n_pooled = p1 + p2; n_yields = y1 + y2 }
    | ( Domains_stats { n_steals = s1; n_deque_grows = g1 },
        Domains_stats { n_steals = s2; n_deque_grows = g2 } ) ->
        Domains_stats { n_steals = s1 + s2; n_deque_grows = g1 + g2 }
    | _ -> invalid_arg "Par.Engine.add_stats: mixed modes"
  in
  {
    n_tasks = a.n_tasks + b.n_tasks;
    n_fuel_batches = a.n_fuel_batches + b.n_fuel_batches;
    sched;
  }

let stats_counters s =
  let common =
    [ ("engine.tasks", s.n_tasks); ("engine.fuel_batches", s.n_fuel_batches) ]
  in
  match s.sched with
  | Fuzz_stats { n_inlined; n_pooled; n_yields } ->
      common
      @ [
          ("engine.inlined", n_inlined);
          ("engine.pooled", n_pooled);
          ("engine.yields", n_yields);
        ]
  | Domains_stats { n_steals; n_deque_grows } ->
      common
      @ [
          ("engine.steals", n_steals); ("engine.deque_grows", n_deque_grows);
        ]

type result = {
  output : string;
  globals : (string * Rt.Value.t) list;
  digest : string;
  work : int;
  wall_s : float;
  n_domains : int;
  stats : stats;
}

(* Growable task pool with PRNG-indexed removal (Fuzz mode only; accessed
   by the single worker, so no synchronization). *)
module Pool = struct
  type 'a t = { mutable data : 'a array; mutable len : int }

  let create () = { data = [||]; len = 0 }

  let push p t =
    if p.len = Array.length p.data then begin
      let cap = max 8 (2 * Array.length p.data) in
      let bigger = Array.make cap t in
      Array.blit p.data 0 bigger 0 p.len;
      p.data <- bigger
    end;
    p.data.(p.len) <- t;
    p.len <- p.len + 1

  (* Remove and return the element at [i] (swap with the last). *)
  let take p i =
    let t = p.data.(i) in
    p.len <- p.len - 1;
    p.data.(i) <- p.data.(p.len);
    t
end

type finish = {
  pending : int Atomic.t;
  mutable ftok : int;  (** monitor finish token; -1 when unmonitored *)
}

(* Monitoring state, present only when an [emon] was passed to [run].
   The address interner is shared across workers: array registration
   happens under [intern_mu] (which also serializes aid draws, keeping
   registration order dense in aid as Addr.Intern requires), and the
   per-array cell bases are mirrored into a copy-on-write array behind
   an [Atomic] so the monitored access path can resolve [base + idx]
   without taking the lock. *)
type mon = {
  em : Emon.t;
  intern : Rt.Addr.Intern.t;
  intern_mu : Mutex.t;
  bases : int array Atomic.t;  (** aid -> cell base id; -1 = unknown *)
}

type task = {
  t_stmt : Rt.Eval.rstmt;  (** the [async] statement *)
  t_run : tstate Rt.Eval.state -> Rt.Eval.rstmt -> unit;
      (** the evaluator's runner for [t_stmt]'s body *)
  t_st : tstate Rt.Eval.state;  (** frame copied at the spawn point *)
}

(* The engine's part of a task's evaluator state. *)
and tstate = {
  eng : engine;
  mutable w : worker;  (** the worker currently executing this task *)
  mutable fin : finish;  (** innermost enclosing finish *)
  mutable atomic : int;  (** [isolated] nesting depth: no yields inside *)
  monitored : bool;  (** [eng.mon <> None], checked on hot paths *)
  mutable mtok : int;  (** this task's monitor token *)
  (* Step origin (monitored runs only): the depth-first executor opens a
     step at the cursor's (bid, idx) on the first charge or access after
     a structural transition; the engine latches the same position into
     [(obid, oidx)] and clears it at the same transitions ({!Rt.Eval}
     calls [enter]/[leave] at the same points for both executors). *)
  mutable obid : int;  (** latched step origin; -1 = not latched *)
  mutable oidx : int;
}

and worker = {
  id : int;
  deque : task Deque.t;
  rng : Tdrutil.Prng.t;
  mutable work : int;  (** cost units charged by this worker *)
  mutable batch : int;  (** units since the last slow-path flush *)
  mutable pace_debt_ns : float;  (** pacing debt not yet slept off *)
  (* Stats below are owner-written plain fields, summed after the joins;
     the Fuzz trio is only meaningful on the single Fuzz worker. *)
  mutable n_batches : int;  (** slow-path fuel flushes *)
  mutable n_inlined : int;
  mutable n_pooled : int;
  mutable n_yields : int;
}

and engine = {
  mon : mon option;
  fuel : int Atomic.t;
  aid : int Atomic.t;
  buf : Buffer.t;
  buf_mu : Mutex.t;
  cas_mu : Mutex.t;  (** serializes the [cas] builtin *)
  iso_mu : Mutex.t;  (** serializes [isolated] sections (Domains mode) *)
  poison : exn option Atomic.t;  (** first exception wins; aborts the run *)
  finished : bool Atomic.t;  (** tells idle workers to exit *)
  pace_ns : int;  (** nanoseconds of sleep per cost unit (0 = none) *)
  batch_limit : int;  (** slow-path flush granularity, in cost units *)
  policy : policy;
  is_fuzz : bool;
  workers : worker array;
  pool : task Pool.t;  (** Fuzz mode's deferred-task pool *)
  n_tasks : int Atomic.t;
  n_steals : int Atomic.t;
}

type st = tstate Rt.Eval.state

(* Close the current step: the next charge or access re-latches the
   origin. *)
let mclose (st : st) = if st.x.monitored then st.x.obid <- -1

let latch (st : st) =
  if st.x.obid < 0 then begin
    st.x.obid <- st.bid;
    st.x.oidx <- st.idx
  end

(* ------------------------------------------------------------------ *)
(* Cost, fuel, pacing, poison                                          *)
(* ------------------------------------------------------------------ *)

let poison_with eng e =
  ignore (Atomic.compare_and_set eng.poison None (Some e))

let poisoned eng = Atomic.get eng.poison <> None

(* Flush the per-worker batch plus a pending charge [n]: settle fuel
   globally, check for poison, and sleep off accumulated pacing debt.
   The batch and [n] are taken from the global fuel only when both fit,
   compared without forming their sum, so a [work] or allocation charge
   near [max_int] runs out of fuel instead of wrapping around.
   Oversleep (the common case on a loaded machine) is credited against
   future debt, so pacing self-corrects instead of drifting. *)
let flush (st : st) n =
  let eng = st.x.eng and w = st.x.w in
  let b = w.batch in
  w.batch <- 0;
  w.n_batches <- w.n_batches + 1;
  let rec settle () =
    let f = Atomic.get eng.fuel in
    if f < b || n > f - b then begin
      poison_with eng Rt.Eval.Out_of_fuel;
      raise Rt.Eval.Out_of_fuel
    end
    else if not (Atomic.compare_and_set eng.fuel f (f - b - n)) then settle ()
  in
  settle ();
  if poisoned eng then raise Abort;
  if eng.pace_ns > 0 && (not st.quiet) && w.pace_debt_ns >= 300_000. then begin
    let t0 = Unix.gettimeofday () in
    Unix.sleepf (w.pace_debt_ns *. 1e-9);
    let slept_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
    w.pace_debt_ns <- w.pace_debt_ns -. slept_ns
  end

(* Interned id of cell [idx] of array [aid] on the monitored path: a
   lock-free read of the copy-on-write base table, falling back to the
   interner under the lock for an array whose registration this worker
   has not yet observed (the lock acquisition synchronizes with the
   registering unlock). *)
let cell_addr m aid idx =
  let b = Atomic.get m.bases in
  if aid < Array.length b && Array.unsafe_get b aid >= 0 then
    Array.unsafe_get b aid + idx
  else
    Mutex.protect m.intern_mu (fun () ->
        Rt.Addr.Intern.cell_id m.intern ~aid ~idx)

(* ------------------------------------------------------------------ *)
(* Scheduling primitives                                               *)
(* ------------------------------------------------------------------ *)

(* Pop own deque, else steal from a PRNG-chosen victim (scanning all
   others from a random start so a lone busy victim is always found). *)
let try_get eng (w : worker) : task option =
  match Deque.pop w.deque with
  | Some _ as t -> t
  | None ->
      let n = Array.length eng.workers in
      if n = 1 then None
      else begin
        let start = Tdrutil.Prng.int w.rng (n - 1) in
        let rec scan k =
          if k > n - 2 then None
          else
            let v = (start + k) mod (n - 1) in
            let v = if v >= w.id then v + 1 else v in
            match Deque.steal eng.workers.(v).deque with
            | Some _ as t ->
                Atomic.incr eng.n_steals;
                t
            | None -> scan (k + 1)
        in
        scan 0
      end

let backoff_sleep failures =
  if failures < 4 then Domain.cpu_relax ()
  else Unix.sleepf (Float.min 5e-4 (2e-5 *. float_of_int failures))

(* Run [t] to completion on worker [w].  Never raises: failures poison
   the engine; the pending count is always decremented so joins cannot
   hang. *)
let run_task eng (w : worker) (t : task) : unit =
  let x = t.t_st.x in
  let fin = x.fin in
  x.w <- w;
  (try t.t_run t.t_st t.t_stmt with
  | Abort -> ()
  | Rt.Eval.Return_v _ ->
      (* the typechecker rejects [return] crossing an async boundary *)
      ()
  | e -> poison_with eng e);
  (* End the task before releasing the join: the finish's pending-count
     atomic then orders this event before the joiner's on_finish_end. *)
  (match eng.mon with
  | Some m -> m.em.Emon.on_task_end ~task:x.mtok ~fin:fin.ftok
  | None -> ());
  ignore (Atomic.fetch_and_add fin.pending (-1))

let run_pooled eng (w : worker) =
  run_task eng w (Pool.take eng.pool (Tdrutil.Prng.int w.rng eng.pool.len))

let wait_fin (st : st) (fin : finish) : unit =
  let eng = st.x.eng in
  if eng.is_fuzz then begin
    while Atomic.get fin.pending > 0 do
      if poisoned eng then raise Abort;
      if eng.pool.len = 0 then
        (* cannot happen: single worker, so every pending task is pooled *)
        invalid_arg "Par.Engine: pending tasks but empty pool";
      run_pooled eng st.x.w
    done;
    if poisoned eng then raise Abort
  end
  else begin
    let failures = ref 0 in
    while Atomic.get fin.pending > 0 && not (poisoned eng) do
      match try_get eng st.x.w with
      | Some t ->
          failures := 0;
          run_task eng st.x.w t
      | None ->
          incr failures;
          backoff_sleep !failures
    done;
    if Atomic.get fin.pending > 0 then raise Abort
  end

(* ------------------------------------------------------------------ *)
(* The executor                                                        *)
(* ------------------------------------------------------------------ *)

module Exec = struct
  type t = tstate

  (* Fuel is settled against the global counter only once a worker's
     batch would reach [batch_limit]. *)
  let charge (st : st) n =
    let x = st.x in
    let w = x.w in
    if not st.quiet then begin
      w.work <- w.work + n;
      (* first charge since the last structural transition: this is
         where the depth-first executor opens the step *)
      if x.monitored then latch st;
      if x.eng.pace_ns > 0 then
        w.pace_debt_ns <- w.pace_debt_ns +. float_of_int (n * x.eng.pace_ns)
    end;
    if n >= x.eng.batch_limit - w.batch then flush st n
    else w.batch <- w.batch + n

  (* Deliver a monitored access at the latched step origin. *)
  let access (st : st) addr kind =
    match st.x.eng.mon with
    | Some m when not st.quiet ->
        latch st;
        m.em.Emon.on_access ~task:st.x.mtok ~bid:st.x.obid ~idx:st.x.oidx addr
          kind
    | _ -> ()

  let access_cell (st : st) aid idx kind =
    match st.x.eng.mon with
    | Some m when not st.quiet -> access st (cell_addr m aid idx) kind
    | _ -> ()

  (* Draw an array id; monitored runs also register the cell block with
     the shared interner.  Drawing the id under the same lock keeps
     registration order dense in aid (Addr.Intern's invariant) even when
     workers allocate concurrently, and the base is published to the
     copy-on-write mirror before the VArr can escape. *)
  let fresh_aid (st : st) len =
    let eng = st.x.eng in
    match eng.mon with
    | None -> 1 + Atomic.fetch_and_add eng.aid 1
    | Some m ->
        Mutex.protect m.intern_mu (fun () ->
            let aid = 1 + Atomic.fetch_and_add eng.aid 1 in
            Rt.Addr.Intern.register_array m.intern ~aid ~len;
            let b = Atomic.get m.bases in
            let b =
              if aid < Array.length b then b
              else begin
                let bigger =
                  Array.make (max (aid + 1) (2 * Array.length b)) (-1)
                in
                Array.blit b 0 bigger 0 (Array.length b);
                Atomic.set m.bases bigger;
                bigger
              end
            in
            b.(aid) <- Rt.Addr.Intern.cell_id m.intern ~aid ~idx:0;
            aid)

  let print (st : st) line =
    let eng = st.x.eng in
    Mutex.protect eng.buf_mu (fun () ->
        Buffer.add_string eng.buf line;
        Buffer.add_char eng.buf '\n')

  (* Atomic here for real: concurrent claimants must serialize. *)
  let cas (st : st) cells i old_v new_v =
    Mutex.protect st.x.eng.cas_mu (fun () ->
        Rt.Eval.cas_cell cells i old_v new_v)

  (* Fuzz mode only: at a statement boundary, maybe run a pooled task
     now.  This lets a deferred sibling interleave between the parent's
     statements instead of only before-all (inline) or after-all (finish
     join). *)
  let at_stmt (st : st) =
    let eng = st.x.eng and w = st.x.w in
    if
      eng.is_fuzz && (not st.quiet) && st.x.atomic = 0 && eng.pool.len > 0
      && Tdrutil.Prng.int w.rng 100 < eng.policy.yield_pct
    then begin
      w.n_yields <- w.n_yields + 1;
      run_pooled eng w
    end

  let enter st _kind ~sid:_ ~body_bid:_ = mclose st

  let leave st = mclose st

  (* Spawn: the child gets a copy of the current frame.  The typechecker
     only lets an async body read immutable ([val]) outer locals declared
     before the async, so copying the frame at the spawn point is
     observationally identical to sharing it — and it keeps every frame
     single-domain. *)
  let async (st : st) s run =
    mclose st;
    let x = st.x in
    let eng = x.eng in
    Atomic.incr eng.n_tasks;
    Atomic.incr x.fin.pending;
    let mtok =
      match eng.mon with
      | Some m -> m.em.Emon.on_task_begin ~parent:x.mtok
      | None -> -1
    in
    let t_st =
      {
        st with
        x = { x with atomic = 0; mtok; obid = -1; oidx = 0 };
        frame = Array.copy st.frame;
        bid = -1;
        idx = 0;
        quiet = false;
      }
    in
    let t = { t_stmt = s; t_run = run; t_st } in
    (if eng.is_fuzz then begin
       if Tdrutil.Prng.int x.w.rng 100 < eng.policy.inline_pct then begin
         x.w.n_inlined <- x.w.n_inlined + 1;
         run_task eng x.w t
       end
       else begin
         x.w.n_pooled <- x.w.n_pooled + 1;
         Pool.push eng.pool t
       end
     end
     else Deque.push x.w.deque t);
    mclose st

  let finish (st : st) s run =
    let x = st.x in
    let fin = { pending = Atomic.make 0; ftok = -1 } in
    (match x.eng.mon with
    | Some m -> fin.ftok <- m.em.Emon.on_finish_begin ~task:x.mtok
    | None -> ());
    let saved = x.fin in
    x.fin <- fin;
    (match run st s with
    | () -> x.fin <- saved
    | exception e ->
        x.fin <- saved;
        raise e);
    wait_fin st fin;
    match x.eng.mon with
    | Some m -> m.em.Emon.on_finish_end ~task:x.mtok ~fin:fin.ftok
    | None -> ()

  (* Global mutual exclusion.  In Fuzz mode all tasks share one worker,
     so instead of a (self-deadlocking) lock we pin the scheduler:
     [atomic > 0] disables the statement-boundary yields, making the
     section atomic by construction. *)
  let isolated (st : st) s run =
    let x = st.x in
    x.atomic <- x.atomic + 1;
    let finally () = x.atomic <- x.atomic - 1 in
    Fun.protect ~finally (fun () ->
        if x.eng.is_fuzz then run st s
        else Mutex.protect x.eng.iso_mu (fun () -> run st s))
end

module E = Rt.Eval.Make (Exec)

(* ------------------------------------------------------------------ *)
(* Worker loop and whole-program execution                             *)
(* ------------------------------------------------------------------ *)

let worker_loop eng (w : worker) =
  let failures = ref 0 in
  while not (Atomic.get eng.finished) do
    if poisoned eng then Unix.sleepf 2e-4
    else
      match try_get eng w with
      | Some t ->
          failures := 0;
          run_task eng w t
      | None ->
          incr failures;
          backoff_sleep !failures
  done

let run ?(fuel = Rt.Interp.default_fuel) ?(pace_ns = 0) ?policy ?emon ~mode
    (prog : Ast.program) : result =
  let code = Rt.Eval.resolve prog in
  let is_fuzz, n_domains, seed =
    match mode with
    | Fuzz { seed } -> (true, 1, seed)
    | Domains { n; seed } -> (false, max 1 n, seed)
  in
  let policy =
    match policy with
    | Some p -> p
    | None -> if is_fuzz then fuzz_policy else domains_policy
  in
  let workers =
    Array.init n_domains (fun id ->
        {
          id;
          deque = Deque.create ();
          (* distinct, seed-derived streams per worker *)
          rng = Tdrutil.Prng.create ~seed:(seed + (31 * id));
          work = 0;
          batch = 0;
          pace_debt_ns = 0.;
          n_batches = 0;
          n_inlined = 0;
          n_pooled = 0;
          n_yields = 0;
        })
  in
  let mon =
    match emon with
    | None -> None
    | Some em ->
        Some
          {
            em;
            intern = Rt.Addr.Intern.create ();
            intern_mu = Mutex.create ();
            bases = Atomic.make [||];
          }
  in
  let eng =
    {
      mon;
      fuel = Atomic.make fuel;
      aid = Atomic.make 0;
      buf = Buffer.create 256;
      buf_mu = Mutex.create ();
      cas_mu = Mutex.create ();
      iso_mu = Mutex.create ();
      poison = Atomic.make None;
      finished = Atomic.make false;
      pace_ns;
      batch_limit =
        (if pace_ns > 0 then max 32 (300_000 / pace_ns) else 2048);
      policy;
      is_fuzz;
      workers;
      pool = Pool.create ();
      n_tasks = Atomic.make 0;
      n_steals = Atomic.make 0;
    }
  in
  let root = { pending = Atomic.make 0; ftok = -1 } in
  let st0 =
    Rt.Eval.start
      { eng; w = workers.(0); fin = root; atomic = 0; monitored = mon <> None;
        mtok = -1; obid = -1; oidx = 0 }
      code
  in
  (* Globals are interned up front (ids 0.. in declaration order, before
     any array registration), as in Rt.Interp. *)
  let gaddrs =
    List.map
      (fun (g : Ast.global) ->
        match mon with
        | Some m -> Rt.Addr.Intern.add_global m.intern g.gname
        | None -> -1)
      prog.globals
  in
  (match mon with Some m -> m.em.Emon.on_init m.intern | None -> ());
  (* Global initializers are sequenced before every task: run them before
     any other domain exists; afterwards only the slots' values and the
     arrays they hold change. *)
  E.init_globals st0 gaddrs;
  (match mon with
  | Some m ->
      st0.x.mtok <- m.em.Emon.on_task_begin ~parent:(-1);
      root.ftok <- m.em.Emon.on_finish_begin ~task:st0.x.mtok
  | None -> ());
  let t_start = Unix.gettimeofday () in
  let doms =
    Array.init (n_domains - 1) (fun i ->
        Domain.spawn (fun () -> worker_loop eng workers.(i + 1)))
  in
  (try
     E.run_main st0;
     wait_fin st0 root;
     match mon with
     | Some m ->
         m.em.Emon.on_finish_end ~task:st0.x.mtok ~fin:root.ftok;
         m.em.Emon.on_task_end ~task:st0.x.mtok ~fin:(-1)
     | None -> ()
   with
  | Abort -> ()
  | e -> poison_with eng e);
  Atomic.set eng.finished true;
  Array.iter Domain.join doms;
  let wall_s = Unix.gettimeofday () -. t_start in
  (match Atomic.get eng.poison with Some e -> raise e | None -> ());
  let globals = Rt.Eval.globals_of st0 in
  let sum f = Array.fold_left (fun acc w -> acc + f w) 0 workers in
  let sched =
    if is_fuzz then
      Fuzz_stats
        {
          n_inlined = sum (fun w -> w.n_inlined);
          n_pooled = sum (fun w -> w.n_pooled);
          n_yields = sum (fun w -> w.n_yields);
        }
    else
      Domains_stats
        {
          n_steals = Atomic.get eng.n_steals;
          n_deque_grows = sum (fun w -> Deque.grows w.deque);
        }
  in
  {
    output = Buffer.contents eng.buf;
    globals;
    digest = Rt.Value.digest_globals globals;
    work = sum (fun w -> w.work);
    wall_s;
    n_domains;
    stats =
      {
        n_tasks = Atomic.get eng.n_tasks;
        n_fuel_batches = sum (fun w -> w.n_batches);
        sched;
      };
  }

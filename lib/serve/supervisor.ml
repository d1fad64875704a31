(* See supervisor.mli. *)

module FI = Repair.Faultinject
module P = Protocol

type job = {
  seq : int;
  spec : P.job_spec;
  mutable crash_left : int;  (* intentional Worker_crash firings left *)
  mutable requeues : int;  (* crash re-enqueues so far *)
}

type completion = { seq : int; spec : P.job_spec; outcome : Worker.outcome }

type slot_state =
  | Idle
  | Busy of { seq : int; since_ns : int64 }
  | Dead of job option  (* in-flight job at death, for re-enqueue *)

type slot = {
  mutable state : slot_state;
  mutable domain : unit Domain.t option;
  mutable gen : int;  (* bumped on every (re)spawn; guards stale updates *)
}

type t = {
  queue : job Jobq.t;
  cache : Obs.Json.t Cache.t option;
  retries : int option;
  backoff_ms : int option;
  default_timeout_ms : int option;
  notify : unit -> unit;
  mu : Mutex.t;
  slots : slot array;
  mutable completions : completion list;  (* reversed *)
  mutable respawns : int;
  mutable crashes : int;
  mutable next_seq : int;
  mutable shut : bool;
}

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let max_requeues = 3

(* ------------------------------------------------------------------ *)
(* Worker loop                                                         *)
(* ------------------------------------------------------------------ *)

exception Died of job option

let slot_set t i gen st =
  locked t (fun () -> if t.slots.(i).gen = gen then t.slots.(i).state <- st)

(* Completions are pushed unconditionally — even from a worker the hard
   watchdog abandoned: an abandoned worker that un-wedges keeps popping
   jobs, and those jobs still deserve their one terminal reply.  The
   duplicate for the job it was wedged ON (already answered [degraded])
   is dropped by the daemon's exactly-once terminal table, keyed by
   admission seq. *)
let push_completion t c =
  locked t (fun () -> t.completions <- c :: t.completions)

let run_job t (job : job) =
  (* The intentional crash fault fires here, at the worker level, before
     [Worker.execute]: the domain "dies" holding the job.  [crash_left]
     is decremented first so the re-enqueued job runs clean — the fault
     is transient by construction. *)
  if job.crash_left > 0 then begin
    job.crash_left <- job.crash_left - 1;
    raise
      (FI.Injected (FI.Worker_crash, "injected fault: worker crash"))
  end;
  Worker.execute ?cache:t.cache ?retries:t.retries ?backoff_ms:t.backoff_ms
    ?default_timeout_ms:t.default_timeout_ms job.spec

let rec worker_loop t i gen =
  match Jobq.pop t.queue with
  | None -> slot_set t i gen Idle (* queue closed: clean exit *)
  | Some job ->
      slot_set t i gen (Busy { seq = job.seq; since_ns = Obs.Clock.now_ns () });
      (match run_job t job with
      | outcome ->
          push_completion t { seq = job.seq; spec = job.spec; outcome };
          slot_set t i gen Idle;
          t.notify ()
      | exception _ ->
          (* crash-only: ANY escape is worker death with the job in hand *)
          raise (Died (Some job)));
      worker_loop t i gen

let worker_body t i gen () =
  try worker_loop t i gen with
  | Died job ->
      locked t (fun () ->
          if t.slots.(i).gen = gen then begin
            t.slots.(i).state <- Dead job;
            t.crashes <- t.crashes + 1
          end);
      t.notify ()
  | _ ->
      locked t (fun () ->
          if t.slots.(i).gen = gen then begin
            t.slots.(i).state <- Dead None;
            t.crashes <- t.crashes + 1
          end);
      t.notify ()

let spawn t i =
  locked t (fun () ->
      let slot = t.slots.(i) in
      slot.gen <- slot.gen + 1;
      slot.state <- Idle;
      slot.domain <- Some (Domain.spawn (worker_body t i slot.gen)))

(* ------------------------------------------------------------------ *)
(* API                                                                 *)
(* ------------------------------------------------------------------ *)

let create ~workers ~queue_capacity ~cache_capacity ?retries ?backoff_ms
    ?default_timeout_ms ~notify () =
  let t =
    {
      queue = Jobq.create ~capacity:queue_capacity;
      cache =
        (if cache_capacity > 0 then Some (Cache.create ~capacity:cache_capacity)
         else None);
      retries;
      backoff_ms;
      default_timeout_ms;
      notify;
      mu = Mutex.create ();
      slots =
        Array.init (max 1 workers) (fun _ ->
            { state = Idle; domain = None; gen = 0 });
      completions = [];
      respawns = 0;
      crashes = 0;
      next_seq = 0;
      shut = false;
    }
  in
  Array.iteri (fun i _ -> spawn t i) t.slots;
  t

let submit t spec =
  let job =
    locked t (fun () ->
        t.next_seq <- t.next_seq + 1;
        let crash_left =
          List.length
            (List.filter
               (fun f -> f = FI.Worker_crash)
               spec.P.faults)
        in
        { seq = t.next_seq; spec; crash_left; requeues = 0 })
  in
  if Jobq.try_push t.queue job then `Accepted job.seq else `Overloaded

let cancel t id =
  match Jobq.remove t.queue (fun j -> j.spec.P.id = id) with
  | Some j -> Some j.seq
  | None -> None

let completions t =
  locked t (fun () ->
      let cs = List.rev t.completions in
      t.completions <- [];
      cs)

let reap t =
  let to_respawn =
    locked t (fun () ->
        let acc = ref [] in
        Array.iteri
          (fun i slot ->
            match slot.state with
            | Dead job -> acc := (i, job) :: !acc
            | Idle | Busy _ -> ())
          t.slots;
        !acc)
  in
  List.iter
    (fun (i, job) ->
      (match job with
      | Some j when j.requeues < max_requeues && not t.shut ->
          j.requeues <- j.requeues + 1;
          Jobq.force_push t.queue j
      | Some j ->
          locked t (fun () ->
              t.completions <-
                {
                  seq = j.seq;
                  spec = j.spec;
                  outcome =
                    {
                      Worker.status = P.Sfailed;
                      attempts = 0;
                      cached = false;
                      report = None;
                      error =
                        Some
                          (Fmt.str
                             "job killed its worker %d time(s); giving up"
                             j.requeues);
                      spans = None;
                    };
                }
                :: t.completions)
      | None -> ());
      if not t.shut then begin
        (* the dead domain's body has returned (or is returning): join it
           so the runtime can reclaim it, then respawn the slot *)
        Option.iter Domain.join t.slots.(i).domain;
        locked t (fun () -> t.respawns <- t.respawns + 1);
        spawn t i
      end)
    to_respawn

let check_wedged t ~limit_ms =
  let now = Obs.Clock.now_ns () in
  let limit_ns = Int64.mul (Int64.of_int limit_ms) 1_000_000L in
  let wedged =
    locked t (fun () ->
        let acc = ref [] in
        Array.iteri
          (fun i slot ->
            match slot.state with
            | Busy { seq; since_ns }
              when Int64.compare (Int64.sub now since_ns) limit_ns > 0 ->
                acc := (i, seq) :: !acc
            | _ -> ())
          t.slots;
        !acc)
  in
  List.iter
    (fun (i, _seq) ->
      (* abandon the domain: it may never return, so it is never joined;
         bump the generation so its late updates are dropped *)
      let spec =
        locked t (fun () ->
            let slot = t.slots.(i) in
            match slot.state with
            | Busy { seq; since_ns = _ } ->
                slot.gen <- slot.gen + 1;
                slot.domain <- None;
                slot.state <- Idle;
                Some (i, seq)
            | _ -> None)
      in
      match spec with
      | None -> ()
      | Some (i, seq) ->
          locked t (fun () ->
              t.crashes <- t.crashes + 1;
              t.respawns <- t.respawns + 1;
              t.completions <-
                {
                  seq;
                  spec =
                    (* the daemon replies by seq; the spec here is only
                       for logging, synthesize a placeholder *)
                    P.job ~op:P.Detect ~id:"" "";
                  outcome =
                    {
                      Worker.status = P.Sdegraded;
                      attempts = 1;
                      cached = false;
                      report = None;
                      error =
                        Some
                          (Fmt.str
                             "hard watchdog: worker wedged for over %d ms; \
                              worker abandoned and respawned"
                             limit_ms);
                      spans = None;
                    };
                }
                :: t.completions);
          spawn t i)
    wedged

let shutdown t =
  let already = locked t (fun () ->
      let was = t.shut in
      t.shut <- true;
      was)
  in
  if not already then begin
    Jobq.close t.queue;
    Array.iter
      (fun slot ->
        match slot.domain with
        | Some d -> (
            match Domain.join d with () -> () | exception _ -> ())
        | None -> ())
      t.slots
  end

let queue_length t = Jobq.length t.queue
let queue_capacity t = Jobq.capacity t.queue

let worker_states t =
  locked t (fun () ->
      Array.to_list
        (Array.map
           (fun slot ->
             match slot.state with
             | Idle -> "idle"
             | Busy _ -> "busy"
             | Dead _ -> "dead")
           t.slots))

let respawns t = locked t (fun () -> t.respawns)
let crashes t = locked t (fun () -> t.crashes)
let cache_stats t = Option.map Cache.stats t.cache

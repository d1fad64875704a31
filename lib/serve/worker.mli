(** Per-job execution for the daemon: compile + run one
    detect/repair/lint job under the cooperative watchdog, with
    transient-fault retries and result caching.

    Fault semantics: the job's injected faults ({!Protocol.job_spec.faults})
    are installed on the {e first} attempt only — they model transient
    faults, so a retry runs clean and the retry path is deterministic.
    {!Repair.Faultinject.Worker_crash} is {e not} handled here: it
    escapes to the supervisor, which treats it as the worker domain
    dying (see {!Supervisor}).

    Terminal classification:
    - pipeline success → [Sok], or [Sdegraded] when the report records
      budget degradations / failed static verification;
    - watchdog expiry → [Sdegraded] immediately (a timeout is not
      transient — retrying would just burn another deadline);
    - injected faults and budget-stage diagnostics → retried with capped
      exponential backoff, then [Sfailed];
    - input errors (parse/typecheck/runtime faults of the analyzed
      program) and unrepairable placements → [Sfailed] immediately.

    Caching: fault-free jobs whose outcome is [Sok] are stored under
    {!Protocol.cache_key}; a hit returns the stored report byte-for-byte
    without running any pipeline stage (trace-span absence is the
    observable proof — see test_serve.ml). *)

type outcome = {
  status : Protocol.status;
  attempts : int;  (** 0 on a cache hit *)
  cached : bool;
  report : Obs.Json.t option;
  error : string option;
  spans : string list option;
      (** pipeline span names when the job asked for [trace] *)
}

val execute :
  ?cache:Obs.Json.t Cache.t ->
  ?retries:int (** default 2 *) ->
  ?backoff_ms:int (** first retry delay; doubles per retry, capped *) ->
  ?default_timeout_ms:int ->
  Protocol.job_spec ->
  outcome

(** The wire reply for an outcome. *)
val reply : id:string -> outcome -> Obs.Json.t

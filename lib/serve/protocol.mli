(** The [tdrepair serve] wire protocol: newline-delimited JSON frames
    over a Unix-domain socket.

    Every frame is one line.  Requests are objects with an ["op"] field;
    job requests (["detect"]/["repair"]/["lint"]) carry a client-chosen
    ["id"] echoed on the reply, the program ["src"], and an optional
    ["flags"] object.  Replies are objects with sorted keys ({!Obs.Json}
    emission), so byte-identical replies are meaningful — the result
    cache relies on this.

    Protocol errors are typed ({!proto_error}): a malformed frame gets
    an error reply and the connection survives; an oversized frame gets
    an error reply and the connection is closed (the read limit bounds
    per-connection buffering, see DESIGN.md §12). *)

type op = Detect | Repair | Lint

val op_to_string : op -> string

(** A job: its program and repair config (the ["flags"] object, parsed
    by {!Repair.Config.of_json}) plus the serve-only ["flags"] keys. *)
type job_spec = {
  id : string;
  op : op;
  src : string;
  config : Repair.Config.t;
  timeout_ms : int option;  (** per-job watchdog; [None] = daemon default *)
  retries : int option;  (** transient-fault retries; [None] = default *)
  faults : Repair.Faultinject.fault list;
      (** per-job injected faults (applied to the first attempt only);
          jobs with faults are never cached *)
  trace : bool;  (** return the job's {!Obs.Trace} span names *)
}

(** A job with no serve-only settings (default [op]: [Repair]; default
    [config]: {!Repair.Config.default}). *)
val job : ?op:op -> ?config:Repair.Config.t -> id:string -> string -> job_spec

type request =
  | Job of job_spec
  | Health
  | Cancel of string
  | Shutdown

type proto_error =
  | Malformed of string  (** unparseable or non-object frame *)
  | Oversized of int  (** frame exceeded the read limit (the payload) *)
  | Bad_request of string  (** well-formed JSON, invalid request *)

(** Parse one frame (without its newline). *)
val parse : string -> (request, proto_error) result

(** Round-trippable compact fault specs ("interp_trap:50",
    "worker_crash", ...) used in the ["flags.faults"] list. *)
val fault_to_string : Repair.Faultinject.fault -> string

(** Job terminal statuses.  Exactly one terminal reply is sent per
    admitted job. *)
type status = Sok | Sdegraded | Sfailed | Soverloaded | Scancelled

val status_to_string : status -> string

val job_reply :
  id:string ->
  status:status ->
  ?attempts:int ->
  ?cached:bool ->
  ?report:Obs.Json.t ->
  ?error:string ->
  ?spans:string list ->
  unit ->
  Obs.Json.t

(** The error frame for a protocol error (["error"] key instead of
    ["status"]). *)
val error_reply : proto_error -> Obs.Json.t

(** Serialize one reply frame, newline included. *)
val frame : Obs.Json.t -> string

(** Deterministic cache-key material for a job: a digest of its op, its
    source and {!Repair.Config.key}, so every config field keys the
    cache and the serve-only settings (trace, timeout, retries) do not.
    Jobs with faults must not be cached at all. *)
val cache_key : job_spec -> string

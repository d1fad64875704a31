(** One detection run under a {!Config.t}: the only place outside the
    detector libraries that runs {!Espbags.Detector} or {!Vclock.Seq}.

    Both backends share one contract — execute the program depth-first
    and report the same {!Espbags.Race.t} records over the same S-DPST
    (the differential suite holds them report-identical) — so every
    caller (the repair loop, the CLI, the serve worker) consumes one
    {!result}. *)

type result = {
  backend : [ `Espbags | `Vclock ];  (** the backend that ran *)
  races : Espbags.Race.t list;
      (** reported races that survive mutual-exclusion discharge *)
  pairs : Espbags.Race.t list Lazy.t;
      (** [races] deduplicated by step pair
          ({!Espbags.Race.dedupe_by_steps}), computed on first use and at
          most once: the iteration record and the finish placement both
          read it *)
  discharged : Espbags.Race.t list;
      (** races whose endpoints both sit in [isolated] sections
          ({!Isolate.split}): the detectors run those bodies as plain
          scopes and cannot see the serialization *)
  exec : Rt.Interp.result;  (** the execution: output, S-DPST, work *)
  prune : Static.Prune.t option;  (** the static pre-pass, when enabled *)
  stats : (string * int) list;
      (** the detector's [detector.*] counters: accesses checked,
          locations, accesses skipped by the pre-pass, spilled races, ... *)
}

(** [count d "detector.accesses"]: one of [d]'s counters. *)
val count : result -> string -> int

(** The backend a config selects for a program, with the reason for an
    [`Auto] pick (empty for an explicit one). *)
val backend : Config.t -> Mhj.Ast.program -> [ `Espbags | `Vclock ] * string

(** Run [prog] under the config's backend, mode, fuel budget, static
    pre-pass, shadow layout and spill file.  Stage failures surface as
    {!Diag.Fail} ({!Guard.at_stage}). *)
val run : Config.t -> Mhj.Ast.program -> result

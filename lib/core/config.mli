(** The one repair configuration: every option that steers detection
    and repair, as one typed record.

    The CLI builds it from one shared set of flags, [tdrepair serve]
    jobs carry it as their ["flags"] object ({!of_json}), and
    {!Detect.run}, {!Driver} and {!Strategy} consume it.  Every field can
    change a job's result, so the serve result cache keys on all of them
    ({!key}); settings that cannot — a job's timeout, retries, injected
    faults, tracing — live outside this record. *)

(** Sequential detection backend: the ESP-bags detectors (the paper's
    algorithm, the default), the vector-clock detector ({!Vclock.Seq},
    report-identical), or a per-workload automatic pick
    ({!Vclock.Select.choose}). *)
type backend = [ `Espbags | `Vclock | `Auto ]

(** Finish placement per detection run: [`Batch] solves every NS-LCA
    group of the run at once; [`Incremental] is the paper's §6.1
    live-S-DPST loop. *)
type placement = [ `Batch | `Incremental ]

(** Repair strategy: the paper's finish insertion, one of the three
    alternative rewrites, or the tournament over all four
    ({!Strategy}). *)
type strategy = [ `Finish | `Isolated | `Elide | `Chunk | `Tournament ]

type t = {
  mode : Espbags.Detector.mode;  (** detector flavour (MRW or SRW) *)
  backend : backend;
  placement : placement;
  strategy : strategy;
  budgets : Guard.budgets;  (** fuel, S-DPST nodes, DP work *)
  static_prune : bool;
      (** skip instrumenting accesses the static MHP pre-pass proves
          sequential ({!Static.Prune}); MRW race sets are unchanged *)
  static_verify : bool;
      (** after convergence, run the static race checker on the repair *)
  validate_par : Par.Validate.request option;
      (** after convergence, re-run the repair under fuzzed parallel
          schedules ({!Par.Validate}) *)
  shadow_chunk : int option;
      (** grow the detector's shadow tables in slab chunks of this many
          slots; reported races are unchanged *)
  spill : string option;
      (** drain overflowing race records to this file; reported races
          are unchanged *)
  sets : (string * int) list;
      (** int-global test-input overrides, applied in order by
          {!apply_sets} *)
}

(** MRW, ESP-bags, batch placement, finish insertion, no budgets, every
    optional pass off, no overrides. *)
val default : t

(** {1 Spellings}

    One table per enumerated option, shared by the CLI flags and the
    wire format. *)

val modes : (string * Espbags.Detector.mode) list
val backends : (string * backend) list
val placements : (string * placement) list
val strategies : (string * strategy) list

(** [name table v] is [v]'s spelling in [table]. *)
val name : (string * 'a) list -> 'a -> string

(** {1 Canonical form} *)

(** The canonical JSON form: one key per option, [null] for an unset
    optional value.  The keys are the [tdrepair serve] flag keys. *)
val to_json : t -> Obs.Json.t

(** Parse a JSON object of config keys.  Absent keys keep their
    {!default}; [null] unsets an optional value.  An unknown key or a
    value of the wrong shape is an [Error] naming the key. *)
val of_json : Obs.Json.t -> (t, string) result

(** Renders {!to_json}. *)
val pp : t Fmt.t

(** The cache-key projection: the canonical serialization of every
    field.  {!to_json} matches the record exhaustively, so a new field
    does not compile until it is serialized — and thereby keyed. *)
val key : t -> string

(** Apply int-global overrides in order ({!Mhj.Transform.set_global_int}).
    @raise Diag.Fail at the [Typecheck] stage for an override that names
      no int global *)
val apply_sets : (string * int) list -> Mhj.Ast.program -> Mhj.Ast.program

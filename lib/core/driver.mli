(** The test-driven repair driver (paper Figure 6 and §6.1): iterate
    detection, dynamic finish placement, and static insertion until the
    program is race-free for its input.

    Failure handling: every stage runs behind {!Guard.at_stage}, so
    pipeline failures surface as typed {!Diag.t} diagnostics (via
    {!Diag.Fail}) rather than raw [Failure]/[Invalid_argument] escapes;
    {!repair_checked} is the total entry point.  Resource budgets
    ({!Guard.budgets}) bound the interpreter, the S-DPST and the placement
    DP; exhaustion degrades gracefully (prune / interval covers) and is
    recorded in the report's [degradations]. *)

type group_result = {
  lca_id : int;  (** S-DPST node id of the NS-LCA *)
  n_vertices : int;
  n_edges : int;
  dp_cost : int;  (** optimal block completion time found by the DP *)
  fell_back : bool;
      (** the DP was bypassed (unsatisfiable or over budget) and per-edge
          minimal covers were used *)
  insertions : Valid.insertion list;
}

type iteration = {
  n_races : int;  (** raw race reports this run *)
  n_race_pairs : int;  (** distinct (source step, sink step) pairs *)
  n_groups : int;  (** distinct NS-LCAs *)
  groups : group_result list;
  merged : Static_place.merged;
  detect_time : float;
      (** seconds spent executing + detecting; for round 0 of a loop
          given a shared [first] detection, that detection's time *)
  place_time : float;  (** seconds spent in placement (dynamic + static) *)
  sdpst_nodes : int;
  n_accesses : int;  (** accesses the detector checked this run *)
  n_skipped : int;  (** accesses skipped by the static prune pre-pass *)
}

type report = {
  program : Mhj.Ast.program;  (** the repaired program *)
  mode : Espbags.Detector.mode;
  iterations : iteration list;
  converged : bool;  (** the final detection run found no races *)
  final_races : int;  (** races remaining (0 when converged) *)
  degradations : Guard.degradation list;
      (** budget degradations that fired, in order; empty means the repair
          ran at full fidelity *)
  verified_static : bool option;
      (** [static_verify] verdict on the converged program: [Some true]
          means race-free for every input, not just the test input;
          [Some false] means unproven MHP pairs remain (see
          [static_residual]); [None] means verification was not requested
          or the repair did not converge *)
  static_residual : Static.Finding.t list;
      (** the unproven pairs behind [verified_static = Some false] *)
  validated_par : Par.Validate.t option;
      (** [validate_par] outcome on the converged program: the repaired
          program re-executed under fuzzed parallel schedules
          ({!Par.Engine.Fuzz}) and compared against the sequential
          semantics.  [None] when validation was not requested or the
          repair did not converge.  Skipped schedules (wall-clock budget)
          are also recorded as a {!Guard.Validate_par_skipped}
          degradation. *)
  metrics : (string * int) list;
      (** sorted snapshot of the run's {!Obs.Metrics} registry —
          detector, pruner, engine and driver counters.  The full key
          schema is always present (zeros for subsystems that did not
          run); [tdrepair repair --metrics=FILE] dumps it as one JSON
          object. *)
}

exception Unrepairable of string
(** Some race admits no scope-valid finish placement. *)

(** One placement pass: the dynamic placement + location mapping for the
    races of a single detector run, without touching the program.
    Trace-file workflows (paper Appendix A) drive this directly.
    [guard] supplies DP budgets (default unlimited). *)
val place_for_tree :
  ?guard:Guard.t ->
  program:Mhj.Ast.program ->
  Espbags.Race.t list ->
  group_result list * Static_place.merged

(** Paper §6.1's incremental strategy: solve NS-LCA groups one finish at a
    time against a {e live} S-DPST — splice the finish node in (step d),
    drop the races it resolves, re-checked with Theorem 1 (step e), and
    regroup the remainder, whose NS-LCAs may have changed (step f).
    Mutates the tree.  Takes the run's races deduplicated by step pair
    ({!Espbags.Race.dedupe_by_steps}, [Detect.result.pairs]). *)
val place_incremental :
  ?guard:Guard.t ->
  program:Mhj.Ast.program ->
  Sdpst.Node.tree ->
  Espbags.Race.t list ->
  group_result list * Static_place.merged

(** {1 The repair loop} *)

(** What one rewrite round produced. *)
type rewrite = {
  rewritten : Mhj.Ast.program;
  groups : group_result list;  (** NS-LCA groups solved ([]) if none *)
  merged : Static_place.merged;  (** finishes placed (empty if none) *)
}

(** A rewrite step and its round bound.  [rewrite guard program d] fixes
    the races of detection run [d] of [program]; [Error note] means the
    step cannot, and ends the loop with that note. *)
type step = {
  bound : int;  (** rewrite rounds before the loop gives up *)
  rewrite :
    Guard.t -> Mhj.Ast.program -> Detect.result -> (rewrite, string) result;
}

(** [Ok] for a step that rewrote [p] without placing finishes. *)
val rewritten : Mhj.Ast.program -> (rewrite, string) result

(** Finish insertion — NS-LCA grouping, the placement DP under the
    S-DPST and DP budgets, static insertion — bounded by 10 rounds.
    Placement reads the detection's step pairs ([Detect.result.pairs]).
    The only step that changes the detection it is given: the S-DPST
    budget prunes its tree and [`Incremental] placement splices
    finishes into it. *)
val finish_step : Config.placement -> step

type 'v run = {
  report : report;
  verdict : 'v;  (** [verdict] applied to the loop's final detection *)
  stuck : string option;  (** the step's note, when it gave up *)
}

(** [detect config prog] is one detection run of [prog] and its wall
    time in seconds, behind the detection stage's fault points
    ({!Faultinject.Detector_abort}, {!Faultinject.Slow_stage}): the
    loop's own detection, and the way to make a [first] detection for
    {!loop}.  [config]'s backend should already be resolved against
    [prog] ({!Detect.backend}).
    @raise Diag.Fail on typed pipeline failures *)
val detect : Config.t -> Mhj.Ast.program -> Detect.result * float

(** The one detect→rewrite loop (paper Figure 6): detect under the
    config; stop when no race survives or the step's round bound is
    spent; otherwise let the step rewrite the program and detect again.
    Every step inherits the guard (budgets, degradations), the
    ["iteration"]/["detect"] spans, the metrics and the config.  An
    [`Auto] backend is resolved once, against [prog].  The final
    detection run is handed to [verdict]; then, after convergence, the
    config's [static_verify] and [validate_par] checks run.

    [first], when given, is round 0: a {!detect} of [prog] under the
    same config (backend resolved), used instead of detecting again, so
    several loops over one input can share one detection.  Round 0's
    [detect_time] is then that detection's measured time, in every loop
    that shares it.  The loop may change the detection it is given:
    {!finish_step} prunes and splices its S-DPST, so a caller that
    shares one must hand it to the finish loop last (a loop given it
    afterwards would record the changed tree's size as round 0's
    [sdpst_nodes]).
    @raise Unrepairable if some race admits no scope-valid fix
    @raise Diag.Fail on typed pipeline failures *)
val loop :
  ?first:Detect.result * float ->
  Config.t ->
  step ->
  verdict:(Detect.result -> 'v) ->
  Mhj.Ast.program ->
  'v run

(** Repair [prog] with {!finish_step} under [config] (default
    {!Config.default}): iterate detection and placement until race-free.
    [validate_par], when given, overrides the config's.
    @raise Unrepairable if some race admits no scope-valid fix
    @raise Diag.Fail on typed pipeline failures *)
val repair :
  ?config:Config.t ->
  ?validate_par:Par.Validate.request ->
  Mhj.Ast.program ->
  report

(** Total variant of {!repair}: every failure mode — malformed input,
    runtime faults of the analyzed program, fuel exhaustion, placement
    infeasibility, injected faults, internal invariant violations — comes
    back as a typed diagnostic instead of an exception. *)
val repair_checked :
  ?config:Config.t -> Mhj.Ast.program -> (report, Diag.t) result

(** All placements inserted across the report's iterations. *)
val total_placements : report -> Mhj.Transform.placement list

(** Multi-input repair (paper §2: "the tool is applied iteratively for
    different test inputs"). *)
type multi_report = {
  final : Mhj.Ast.program;  (** repaired for every processable input *)
  per_input : (string * report) list;  (** input label -> last repair run *)
  failures : (string * Diag.t) list;
      (** inputs whose repair failed or exhausted its budget; the
          remaining inputs are still processed *)
  all_converged : bool;  (** every input converged and none failed *)
  coverage : Coverage.t;  (** combined coverage of the executable inputs *)
}

(** Repair one program under several test inputs, each a labelled set of
    int-global overrides ({!Config.apply_sets}), each repaired under
    [config].  Placements demanded under any input are merged into the
    shared base program; rounds continue until every input's execution is
    race-free (at most 10 rounds).  An input that fails — malformed override, runtime
    fault, budget exhaustion, unrepairable race — lands in [failures]
    without stopping the other inputs.  The result includes the combined
    coverage of the input set — the paper's §9 test-suitability metric. *)
val repair_multi :
  ?config:Config.t ->
  inputs:(string * (string * int) list) list ->
  Mhj.Ast.program ->
  multi_report

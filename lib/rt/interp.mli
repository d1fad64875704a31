(** Sequential depth-first interpreter for Mini-HJ (the paper's canonical
    execution): the depth-first executor of {!Eval}.  Async bodies run to
    completion at their spawn point while the S-DPST records the parallel
    structure.  Abstract {!Cost} units are
    charged to the current step; structural transitions and monitored
    memory accesses are reported to an optional {!Monitor}. *)

exception Runtime_error of string * Mhj.Loc.t

exception Out_of_fuel

type result = {
  output : string;  (** everything [print]ed, one line per call *)
  tree : Sdpst.Node.tree;  (** the S-DPST of the execution *)
  work : int;  (** total cost units charged (serial execution time) *)
  globals : (string * Value.t) list;
      (** final global-variable state, sorted by name — the reference the
          parallel backend's schedule-fuzzing differential checks compare
          against (digest with {!Value.digest_globals}) *)
  intern : Addr.Intern.t;
      (** the run's address interner: resolves the interned ids reported
          to the monitor back to boxed {!Addr.t}s *)
}

val default_fuel : int

(** Execute a program depth-first from [main].

    @param monitor receives structural and memory-access events
    @param fuel abort with {!Out_of_fuel} after this many cost units
    @raise Runtime_error on dynamic errors (bounds, division by zero,
      calls nested deeper than {!Eval.max_call_depth}, ...) and on
      malformed programs (not normalized — use {!Mhj.Front.compile}
      — or lacking a [main]); always carries a source location when one is
      known *)
val run : ?monitor:Monitor.t -> ?fuel:int -> Mhj.Ast.program -> result

(** Run the serial elision (all parallel constructs erased) — the
    reference semantics for repair correctness. *)
val run_elision : ?fuel:int -> Mhj.Ast.program -> result

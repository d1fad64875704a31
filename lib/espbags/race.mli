(** Data race reports: a race connects the {e source} step (earlier in
    depth-first order) to the {e sink} step (paper §4.2, the dotted edges
    of Figure 9). *)

type kind =
  | Write_read  (** earlier write, later read *)
  | Read_write  (** earlier read, later write *)
  | Write_write

val pp_kind : kind Fmt.t

type t = private {
  src : Sdpst.Node.t;  (** source step *)
  sink : Sdpst.Node.t;  (** sink step *)
  addr : Rt.Addr.t;  (** the contended location *)
  kind : kind;
}

(** @raise Assert_failure if [src] does not precede [sink]. *)
val make :
  src:Sdpst.Node.t -> sink:Sdpst.Node.t -> addr:Rt.Addr.t -> kind:kind -> t

val pp : t Fmt.t

(** Exact per-record signature [(src id, sink id, addr, kind)] — node ids
    are deterministic under the depth-first interpreter, so two runs
    report the same races in the same order iff their {!exact_sigs}
    lists are equal.  This is the single comparator shared by the
    differential test harness and the bench byte-identity assertions. *)
val exact_sig : t -> int * int * string * string

val exact_sigs : t list -> (int * int * string * string) list

val pp_sig : (int * int * string * string) Fmt.t

(** Schedule-independent race identity: unordered static endpoints
    [(bid, idx, is_write)] (sorted) plus the address.  Parallel detection
    compares these, since node ids depend on depth-first order.  [addr]
    is polymorphic so hot paths can key on the interned id and render
    the source-level string only when collecting. *)
val static_key :
  a_bid:int ->
  a_idx:int ->
  a_write:bool ->
  b_bid:int ->
  b_idx:int ->
  b_write:bool ->
  addr:'a ->
  (int * int * bool) * (int * int * bool) * 'a

val static_key_of_race : t -> (int * int * bool) * (int * int * bool) * string

val pp_static_key : ((int * int * bool) * (int * int * bool) * string) Fmt.t

(** Distinct (source step, sink step) pairs, first-seen order: the
    first record of each pair, physically the input's. *)
val dedupe_by_steps : t list -> t list

(** Number of distinct static (source stmt, sink stmt) pairs. *)
val count_static : t list -> int

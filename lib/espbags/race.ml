(** Data race reports.

    A race connects two step instances of the S-DPST: the {e source} is
    the access that occurs first in the depth-first traversal, the
    {e sink} the later one (paper §4.2).  Races are rendered as the dotted
    edges of the paper's Figure 9. *)

type kind =
  | Write_read  (** earlier write, later read *)
  | Read_write  (** earlier read, later write *)
  | Write_write

let pp_kind ppf = function
  | Write_read -> Fmt.string ppf "W->R"
  | Read_write -> Fmt.string ppf "R->W"
  | Write_write -> Fmt.string ppf "W->W"

type t = {
  src : Sdpst.Node.t;  (** source step (earlier in depth-first order) *)
  sink : Sdpst.Node.t;  (** sink step (later in depth-first order) *)
  addr : Rt.Addr.t;  (** the contended location *)
  kind : kind;
}

let make ~src ~sink ~addr ~kind =
  assert (src.Sdpst.Node.id < sink.Sdpst.Node.id);
  { src; sink; addr; kind }

let pp ppf r =
  Fmt.pf ppf "%a race on %a: %a -> %a" pp_kind r.kind Rt.Addr.pp r.addr
    Sdpst.Node.pp r.src Sdpst.Node.pp r.sink

(** Distinct (source step, sink step) pairs, preserving first-seen order.
    The placement algorithms only need one edge per step pair.  The kept
    records are the input's own, so the result is a sublist of [races].
    Hot on large reports (10^5–10^6 races): the pairs go into an
    open-addressing table of two parallel int arrays sized to the input,
    with no allocation per race. *)
let dedupe_by_steps (races : t list) : t list =
  (* at most half full; -1 marks an empty slot *)
  let cap = ref 16 and n = List.length races in
  while !cap < 2 * n do
    cap := 2 * !cap
  done;
  let srcs = Array.make !cap (-1)
  and sinks = Array.make !cap (-1)
  and mask = !cap - 1 in
  let rec insert src sink i =
    let s = Array.unsafe_get srcs i in
    if s = -1 then begin
      Array.unsafe_set srcs i src;
      Array.unsafe_set sinks i sink;
      true
    end
    else if s = src && Array.unsafe_get sinks i = sink then false
    else insert src sink ((i + 1) land mask)
  in
  List.filter
    (fun r ->
      let src = r.src.Sdpst.Node.id and sink = r.sink.Sdpst.Node.id in
      let h = ((src * 0x9E3779B1) + sink) * 0x9E3779B97F4A7C1 in
      insert src sink ((h lxor (h lsr 29)) land mask))
    races

(** Exact per-record signature: node ids are deterministic under the
    depth-first interpreter, so two detectors report the same races in
    the same order iff their signature lists are equal.  Shared by the
    differential harness, the bench byte-identity assertions, and the
    vclock backend tests. *)
let exact_sig (r : t) =
  ( r.src.Sdpst.Node.id,
    r.sink.Sdpst.Node.id,
    Fmt.str "%a" Rt.Addr.pp r.addr,
    Fmt.str "%a" pp_kind r.kind )

let exact_sigs races = List.map exact_sig races

let pp_sig ppf (src, sink, addr, kind) =
  Fmt.pf ppf "(%d -> %d) %s %s" src sink addr kind

(** Schedule-independent identity of a race: the unordered pair of static
    endpoints {(bid, idx, is_write)} plus the address, endpoints sorted
    lexicographically.  Node ids (and hence src/sink roles) depend on the
    depth-first traversal order, so parallel detection compares these
    keys instead of {!exact_sig}s. *)
let static_key ~a_bid ~a_idx ~a_write ~b_bid ~b_idx ~b_write ~addr =
  let a = (a_bid, a_idx, a_write) and b = (b_bid, b_idx, b_write) in
  let lo, hi = if a <= b then (a, b) else (b, a) in
  (lo, hi, addr)

let static_key_of_race (r : t) =
  let src_write, sink_write =
    match r.kind with
    | Write_read -> (true, false)
    | Read_write -> (false, true)
    | Write_write -> (true, true)
  in
  static_key ~a_bid:r.src.Sdpst.Node.origin_bid
    ~a_idx:r.src.Sdpst.Node.origin_idx ~a_write:src_write
    ~b_bid:r.sink.Sdpst.Node.origin_bid ~b_idx:r.sink.Sdpst.Node.origin_idx
    ~b_write:sink_write
    ~addr:(Fmt.str "%a" Rt.Addr.pp r.addr)

let pp_static_key ppf ((abid, aidx, aw), (bbid, bidx, bw), addr) =
  let rw w = if w then "W" else "R" in
  Fmt.pf ppf "{%s@%d.%d, %s@%d.%d} %s" (rw aw) abid aidx (rw bw) bbid bidx addr

(** Distinct static (source stmt, sink stmt) pairs — the count a user sees
    as "distinct racy statement pairs". *)
let count_static (races : t list) : int =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let k =
        ( (r.src.Sdpst.Node.origin_bid, r.src.Sdpst.Node.origin_idx),
          (r.sink.Sdpst.Node.origin_bid, r.sink.Sdpst.Node.origin_idx) )
      in
      Hashtbl.replace seen k ())
    races;
  Hashtbl.length seen

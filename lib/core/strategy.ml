(** Repair-strategy tournament.

    The paper's repair is greedy finish insertion ({!Driver.repair}).
    This module adds three alternative repair strategies and a
    tournament that runs every applicable one, verifies each candidate
    race-free through the normal detect loop, scores it on the
    critical-path simulator ({!Compgraph.Score}), and picks the
    minimum-CPL winner (ties broken toward finish insertion, the
    paper's repair):

    - {b finish} — the interval-DP finish insertion of {!Driver.repair};
    - {b isolated} — wrap the racing statement ranges in [isolated]
      sections (mutual exclusion; scored with serialization edges
      between the conflicting section instances);
    - {b elide} — demote the offending [async] statements to inline
      sequential execution (the async elision of §2, applied
      selectively);
    - {b chunk} — split a racy loop into [C]-iteration sub-loops with a
      finish at every chunk seam, where [C] is the minimum racing
      iteration distance, so every conflicting pair is separated by a
      join.

    Each strategy is a rewrite step of the driver loop ({!Driver.loop}),
    so every candidate inherits the config, the guard and its budgets,
    and the spans.  The input is detected once, and that detection is
    every candidate's round 0 and the source of the expected output.  A
    candidate is verified and scored from its loop's final detection:
    no race survives, the output matches the input's, and
    [isolated]-protected pairs ({!Isolate.split}) become
    mutual-exclusion edges for scoring.  Per-strategy outcomes land in
    the [strategy.*] metric family. *)

let src = Logs.Src.create "tdrace.strategy" ~doc:"repair-strategy tournament"

module Log = (val Logs.src_log src : Logs.LOG)
module Score = Compgraph.Score

type kind = Finish | Isolated | Elide | Chunk

let kind_name = function
  | Finish -> "finish"
  | Isolated -> "isolated"
  | Elide -> "elide"
  | Chunk -> "chunk"

(* Tie-break rank: lower wins on equal CPL, so finish insertion — the
   paper's repair — prevails unless strictly beaten. *)
let kind_rank = function Finish -> 0 | Isolated -> 1 | Elide -> 2 | Chunk -> 3

let pp_kind ppf k = Fmt.string ppf (kind_name k)

type candidate = {
  kind : kind;
  program : Mhj.Ast.program option;
      (** the rewritten program; [None] when the strategy is
          inapplicable or failed to converge *)
  verified : bool;  (** re-detection under the backend came back clean *)
  score : Score.t option;  (** scored execution of the candidate *)
  rounds : int;  (** rewrite rounds used *)
  note : string;  (** why the strategy produced nothing (diagnostic) *)
}

type outcome = {
  winner : candidate;
  program : Mhj.Ast.program;  (** the winner's race-free rewrite *)
  candidates : candidate list;  (** every strategy that was attempted *)
  finish_report : Driver.report option;
      (** the finish-insertion driver report, when that strategy ran *)
  metrics : (string * int) list;  (** the [strategy.*] metric family *)
}

(* Serialization edges for scoring: each discharged race pins its two
   step instances into a depth-first mutual-exclusion order. *)
let serialize_pairs (discharged : Espbags.Race.t list) : (int * int) list =
  List.map
    (fun (r : Espbags.Race.t) ->
      (r.src.Sdpst.Node.id, r.sink.Sdpst.Node.id))
    discharged

(** Does a fresh detection run under [backend] come back race-free
    (after mutual-exclusion discharge of [isolated] pairs)? *)
let race_free ~backend prog : bool =
  (Detect.run { Config.default with backend :> Config.backend } prog).races
  = []

(* ------------------------------------------------------------------ *)
(* Strategy: isolated sections                                         *)
(* ------------------------------------------------------------------ *)

(* Wrap each surviving race's uncovered endpoint ranges.  An endpoint's
   range is its step's statement span [origin_idx .. last_idx] in
   [origin_bid]; ranges in one block are unioned when they overlap or
   touch.  Fails when a range is not serializable (task constructs or
   user calls inside — mirrors the type checker's isolated rule). *)
let isolated_placements (p : Mhj.Ast.program) (races : Espbags.Race.t list) :
    (Mhj.Transform.placement list, string) result =
  let sc = Mhj.Scopecheck.build p in
  let iso = Isolate.bids p in
  let ranges : (int, (int * int) list ref) Hashtbl.t = Hashtbl.create 8 in
  let err = ref None in
  let fail msg = if !err = None then err := Some msg in
  let add_endpoint (n : Sdpst.Node.t) =
    let bid = n.Sdpst.Node.origin_bid in
    if not (Isolate.IntSet.mem bid iso) then
      match Hashtbl.find_opt sc.Mhj.Scopecheck.blocks bid with
      | None -> fail "racing step in unknown block"
      | Some stmts ->
          let lo = n.origin_idx in
          let hi = max n.origin_idx n.last_idx in
          if lo < 0 || hi >= Array.length stmts then
            fail "racing step range out of block"
          else begin
            (* A declaration inside the range referenced by a later
               sibling would be orphaned by the nesting; extend the
               section to the end of the block in that case. *)
            let hi =
              if Mhj.Scopecheck.wrap_ok sc ~bid ~lo ~hi then hi
              else Array.length stmts - 1
            in
            let ok = ref (Mhj.Scopecheck.wrap_ok sc ~bid ~lo ~hi) in
            for i = lo to hi do
              if not (Isolate.wrappable_stmt stmts.(i)) then ok := false
            done;
            if not !ok then
              fail "racing statements are not serializable in isolated"
            else begin
              let r =
                match Hashtbl.find_opt ranges bid with
                | Some r -> r
                | None ->
                    let r = ref [] in
                    Hashtbl.add ranges bid r;
                    r
              in
              r := (lo, hi) :: !r
            end
          end
  in
  List.iter
    (fun (r : Espbags.Race.t) ->
      add_endpoint r.src;
      add_endpoint r.sink)
    races;
  match !err with
  | Some msg -> Error msg
  | None ->
      let pls =
        Hashtbl.fold
          (fun bid r acc ->
            let sorted = List.sort compare !r in
            let merged =
              List.fold_left
                (fun acc (lo, hi) ->
                  match acc with
                  | (l, h) :: rest when lo <= h + 1 ->
                      (l, max h hi) :: rest
                  | _ -> (lo, hi) :: acc)
                [] sorted
            in
            List.fold_left
              (fun acc (lo, hi) -> { Mhj.Transform.bid; lo; hi } :: acc)
              acc merged)
          ranges []
      in
      if pls = [] then Error "no uncovered racing endpoint to wrap"
      else Ok pls

let isolated_step : Driver.step =
  {
    bound = 5;
    rewrite =
      (fun _guard p (d : Detect.result) ->
        Result.bind (isolated_placements p d.races) (fun pls ->
            Driver.rewritten (Mhj.Transform.insert_isolated p pls)));
  }

(* ------------------------------------------------------------------ *)
(* Strategy: async elision                                             *)
(* ------------------------------------------------------------------ *)

(* Nearest enclosing async statement of an S-DPST node. *)
let rec async_sid (n : Sdpst.Node.t) : int option =
  match n.Sdpst.Node.kind with
  | Sdpst.Node.Async -> Some n.sid
  | _ -> Option.bind n.parent async_sid

let elide_step (prog : Mhj.Ast.program) : Driver.step =
  {
    bound = Mhj.Ast.count_asyncs prog + 1;
    rewrite =
      (fun _guard p (d : Detect.result) ->
        let sids =
          List.fold_left
            (fun acc (r : Espbags.Race.t) ->
              let add acc n =
                match async_sid n with
                | Some sid -> Isolate.IntSet.add sid acc
                | None -> acc
              in
              add (add acc r.src) r.sink)
            Isolate.IntSet.empty d.races
        in
        if Isolate.IntSet.is_empty sids then
          Error "racing tasks have no async ancestor"
        else
          Driver.rewritten
            (Mhj.Transform.elide_asyncs p (Isolate.IntSet.elements sids)));
  }

(* ------------------------------------------------------------------ *)
(* Strategy: loop chunking                                             *)
(* ------------------------------------------------------------------ *)

type loop_info = { for_sid : int; chunkable : bool }

(* Loop-body statement id -> enclosing for statement, for mapping
   S-DPST iteration scopes back to their loop. *)
let loop_table (p : Mhj.Ast.program) : (int, loop_info) Hashtbl.t =
  let tbl = Hashtbl.create 8 in
  Mhj.Ast.iter_stmts
    (fun st ->
      match st.s with
      | Mhj.Ast.For (_, _, hi, by, body) ->
          let lit_step =
            match by with
            | None -> true
            | Some { e = Mhj.Ast.Int s; _ } -> s <> 0
            | Some _ -> false
          in
          Hashtbl.replace tbl body.sid
            {
              for_sid = st.sid;
              chunkable = lit_step && Mhj.Transform.duplicable hi;
            }
      | _ -> ())
    p;
  tbl

let path_to (n : Sdpst.Node.t) : Sdpst.Node.t list =
  let rec climb n acc =
    match n.Sdpst.Node.parent with
    | None -> n :: acc
    | Some p -> climb p (n :: acc)
  in
  climb n []

(* If the race is loop-carried — the two endpoints' tree paths diverge
   at two iteration scopes of one chunkable for loop — return the loop's
   statement id and the iteration ordinal distance. *)
let race_loop (tbl : (int, loop_info) Hashtbl.t) (a : Sdpst.Node.t)
    (b : Sdpst.Node.t) : (int * int) option =
  let rec diverge pa pb =
    match (pa, pb) with
    | x :: (xa :: _ as ra), y :: (yb :: _ as rb)
      when x.Sdpst.Node.id = y.Sdpst.Node.id ->
        if xa.Sdpst.Node.id = yb.Sdpst.Node.id then diverge ra rb
        else if
          xa.Sdpst.Node.sid = yb.Sdpst.Node.sid
          && Sdpst.Node.is_scope xa && Sdpst.Node.is_scope yb
        then
          match Hashtbl.find_opt tbl xa.Sdpst.Node.sid with
          | Some info when info.chunkable ->
              (* iteration ordinal = position among same-loop siblings *)
              let ord (c : Sdpst.Node.t) =
                let k = ref 0 and stop = ref false in
                Tdrutil.Vec.iter
                  (fun (ch : Sdpst.Node.t) ->
                    if not !stop then
                      if ch.Sdpst.Node.id = c.Sdpst.Node.id then stop := true
                      else if ch.Sdpst.Node.sid = c.Sdpst.Node.sid then
                        incr k)
                  x.Sdpst.Node.children;
                !k
              in
              Some (info.for_sid, abs (ord xa - ord yb))
          | _ -> None
        else None
    | _ -> None
  in
  diverge (path_to a) (path_to b)

let chunk_step : Driver.step =
  {
    bound = 4;
    rewrite =
      (fun _guard p (d : Detect.result) ->
        let tbl = loop_table p in
        (* minimum racing iteration distance per loop *)
        let dmin : (int, int) Hashtbl.t = Hashtbl.create 4 in
        let err = ref None in
        List.iter
          (fun (r : Espbags.Race.t) ->
            if !err = None then
              match race_loop tbl r.src r.sink with
              | Some (for_sid, d) when d >= 1 ->
                  let cur =
                    Option.value ~default:max_int
                      (Hashtbl.find_opt dmin for_sid)
                  in
                  Hashtbl.replace dmin for_sid (min cur d)
              | _ -> err := Some "race is not carried by a chunkable loop")
          d.races;
        match !err with
        | Some note -> Error note
        | None ->
            Driver.rewritten
              (Hashtbl.fold
                 (fun for_sid d p ->
                   Mhj.Transform.chunk_loop p ~sid:for_sid ~chunk:d)
                 dmin p));
  }

(* ------------------------------------------------------------------ *)
(* Tournament                                                          *)
(* ------------------------------------------------------------------ *)

let metrics_of (candidates : candidate list) (winner : candidate) :
    (string * int) list =
  ("strategy.winner", kind_rank winner.kind)
  :: List.concat_map
       (fun c ->
         let k s = "strategy." ^ kind_name c.kind ^ "." ^ s in
         [
           (k "produced", if c.program <> None then 1 else 0);
           (k "verified", if c.verified then 1 else 0);
           (k "rounds", c.rounds);
         ]
         @
         match c.score with
         | Some s ->
             [
               (k "cpl", s.Score.cpl);
               (k "work", s.Score.work);
               (k "makespan", s.Score.makespan);
             ]
         | None -> [ (k "cpl", 0); (k "work", 0); (k "makespan", 0) ])
       candidates

let unproduced kind rounds note =
  { kind; program = None; verified = false; score = None; rounds; note }

(* One candidate: its step's loop from the input's shared detection
   [first], verified and scored from the loop's final detection. *)
let candidate config ~first ~expected kind prog :
    candidate * Driver.report option =
  let step =
    match kind with
    | Finish -> Driver.finish_step config.Config.placement
    | Isolated -> isolated_step
    | Elide -> elide_step prog
    | Chunk -> chunk_step
  in
  let verdict (d : Detect.result) =
    if d.races = [] && d.exec.output = expected then
      Some
        (Score.of_tree ~serialize:(serialize_pairs d.discharged) d.exec.tree)
    else None
  in
  let { Driver.report; verdict; stuck } =
    Driver.loop ~first config step ~verdict prog
  in
  let rounds = List.length report.iterations in
  let finish_report = if kind = Finish then Some report else None in
  let unproduced note = (unproduced kind rounds note, finish_report) in
  match (verdict, stuck) with
  | Some score, _ ->
      ( {
          kind;
          program = Some report.program;
          verified = true;
          score = Some score;
          rounds;
          note = "";
        },
        finish_report )
  | None, Some note -> unproduced note
  | None, None when not report.converged -> unproduced "round budget exhausted"
  | None, None -> unproduced "output differs from the test's expected output"

(* Shield the tournament from one strategy's internal failure (e.g. a
   rewrite producing a program the interpreter rejects): the candidate
   is marked unproduced, the others still compete.  Exhausted budgets
   and injected faults concern the whole run and propagate. *)
let guarded kind f =
  try f () with
  | Driver.Unrepairable msg -> (unproduced kind 0 msg, None)
  | Faultinject.Injected _ as e -> raise e
  | e -> (
      match Diag.of_exn e with
      | Some d when d.stage = Diag.Budget -> raise e
      | Some d -> (unproduced kind 0 (Diag.to_string d), None)
      | None -> (unproduced kind 0 (Printexc.to_string e), None))

(** Run the chosen repair strategy (or the full tournament) on a racy
    program under [config] (default {!Config.default}; its [strategy]
    field is not consulted).  The winner is the minimum-CPL
    verified-race-free candidate; ties break toward finish insertion.
    @raise Driver.Unrepairable
      if no strategy produces a verified race-free candidate
    @raise Diag.Fail
      on a budget exhausted, or on the input's one detection failing
      (interpreter, static pre-pass or detector): that detection is
      every candidate's round 0, so its failure ends the run rather
      than marking one candidate unproduced *)
let run ?(config = Config.default) (choice : Config.strategy)
    (prog : Mhj.Ast.program) : outcome =
  let backend, _ = Detect.backend config prog in
  let config = { config with backend = (backend :> Config.backend) } in
  (* One detection of the input is every candidate's round 0.  Its
     execution is the racy program's canonical depth-first one (which
     realizes the serial-projection order), under the config's fuel, so
     its output is the test's expected output: every candidate must
     reproduce it — race freedom alone is not a repair. *)
  let first = Driver.detect config prog in
  let expected = (fst first).exec.output in
  let kinds =
    match choice with
    | `Finish -> [ Finish ]
    | `Isolated -> [ Isolated ]
    | `Elide -> [ Elide ]
    | `Chunk -> [ Chunk ]
    | `Tournament -> [ Finish; Isolated; Elide; Chunk ]
  in
  (* The finish step prunes and splices the S-DPST it is given, so the
     finish candidate takes the shared detection last; results keep the
     canonical order. *)
  let finish_last =
    List.filter (fun k -> k <> Finish) kinds
    @ List.filter (fun k -> k = Finish) kinds
  in
  let ran =
    List.map
      (fun kind ->
        ( kind,
          guarded kind (fun () ->
              candidate config ~first ~expected kind prog) ))
      finish_last
  in
  let results = List.map (fun kind -> List.assoc kind ran) kinds in
  let candidates = List.map fst results in
  match List.filter (fun c -> c.verified) candidates with
  | [] -> (
      match candidates with
      | [ c ] ->
          raise
            (Driver.Unrepairable
               (Fmt.str "strategy %a produced no race-free repair%s" pp_kind
                  c.kind
                  (if c.note = "" then "" else ": " ^ c.note)))
      | _ ->
          raise
            (Driver.Unrepairable
               "tournament: no strategy produced a race-free candidate"))
  | first :: rest ->
      (* a verified candidate always carries its score *)
      let key c = ((Option.get c.score).Score.cpl, kind_rank c.kind) in
      let winner =
        List.fold_left (fun acc c -> if key c < key acc then c else acc) first
          rest
      in
      Log.info (fun m ->
          m "tournament winner: %a (%a)" pp_kind winner.kind
            (Fmt.option Score.pp) winner.score);
      {
        winner;
        program = Option.get winner.program;
        candidates;
        finish_report = List.find_map snd results;
        metrics = metrics_of candidates winner;
      }

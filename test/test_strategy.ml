(* Repair-strategy tournament: candidate generation for each strategy,
   verification through the detect loop, CPL-based winner selection and
   the strategy.* metric family. *)

module Strategy = Repair.Strategy
module Score = Compgraph.Score

let compile = Mhj.Front.compile

let out prog = (Rt.Interp.run prog).Rt.Interp.output

let metric outcome key =
  match List.assoc_opt key outcome.Strategy.metrics with
  | Some v -> v
  | None -> Alcotest.failf "metric %s missing" key

let cpl_of (c : Strategy.candidate) = (Option.get c.score).Score.cpl

let candidate outcome kind =
  List.find (fun (c : Strategy.candidate) -> c.kind = kind)
    outcome.Strategy.candidates

(* ------------------------------------------------------------------ *)
(* Programs                                                            *)
(* ------------------------------------------------------------------ *)

(* Figure 8 fib: parent reads the children's results too early.  Finish
   insertion restores the join and keeps the recursive parallelism. *)
let fib_buggy =
  {|
def fib(ret: int[], reti: int, n: int) {
  if (n < 2) { ret[reti] = n; return; }
  val x: int[] = new int[1];
  val y: int[] = new int[1];
  async fib(x, 0, n - 1);
  async fib(y, 0, n - 2);
  ret[reti] = x[0] + y[0];
}
def main() {
  val r: int[] = new int[1];
  async fib(r, 0, 8);
  print(r[0]);
}
|}

(* Sibling reduction: every iteration accumulates into sum[0] after a
   heavy local computation.  Finish insertion can only serialize the
   whole loop; wrapping the (commutative) accumulation in [isolated]
   keeps the heavy() calls parallel. *)
let reduce_src =
  {|
def heavy(n: int): int {
  var acc: int = 0;
  for (j = 0 to 63) { acc = acc + n + j; }
  return acc;
}
def main() {
  val sum: int[] = new int[1];
  finish {
    for (i = 0 to 7) {
      async {
        val v: int = heavy(i);
        sum[0] = sum[0] + v;
      }
    }
  }
  print(sum[0]);
}
|}

(* Stride-8 stencil: iteration i reads the slot iteration i+8 writes,
   through a user call — so [isolated] is inapplicable and finish
   insertion serializes the loop, but an 8-iteration chunk boundary
   separates every conflicting pair. *)
let stencil_src =
  {|
def heavy(n: int): int {
  var acc: int = 0;
  for (j = 0 to 31) { acc = acc + n + j; }
  return acc;
}
def main() {
  val a: int[] = new int[16];
  finish {
    for (i = 0 to 15) {
      async {
        if (i < 8) { a[i] = heavy(a[i + 8]); }
        else { a[i] = heavy(i); }
      }
    }
  }
  var s: int = 0;
  for (k = 0 to 15) { s = s + a[k]; }
  print(s);
}
|}

(* ------------------------------------------------------------------ *)
(* Tests                                                               *)
(* ------------------------------------------------------------------ *)

let test_fib_tournament () =
  let prog = compile fib_buggy in
  let outcome = Strategy.run `Tournament prog in
  Alcotest.(check bool)
    "winner verified" true outcome.Strategy.winner.verified;
  Alcotest.(check string)
    "winner computes fib(8)" "21"
    (String.trim (out outcome.Strategy.program));
  let fin = candidate outcome Strategy.Finish in
  Alcotest.(check bool) "finish candidate verified" true fin.verified;
  (* whatever wins, it may not be worse than finish insertion *)
  Alcotest.(check bool)
    "winner cpl <= finish cpl" true
    (cpl_of outcome.Strategy.winner <= cpl_of fin);
  Alcotest.(check int)
    "strategy.winner metric matches" (metric outcome "strategy.winner")
    (match outcome.Strategy.winner.kind with
    | Strategy.Finish -> 0
    | Strategy.Isolated -> 1
    | Strategy.Elide -> 2
    | Strategy.Chunk -> 3)

let test_reduce_isolated_wins () =
  let prog = compile reduce_src in
  let expected = out prog in
  let outcome = Strategy.run `Tournament prog in
  Alcotest.(check string)
    "winner keeps the reduction's value" expected
    (out outcome.Strategy.program);
  (* the accumulation race is between sibling iterations: finish can
     only serialize, isolated keeps the heavy() calls parallel *)
  let iso = candidate outcome Strategy.Isolated in
  Alcotest.(check bool) "isolated verified" true iso.verified;
  Alcotest.(check bool)
    "isolated candidate uses isolated sections" true
    (Mhj.Ast.count_isolated (Option.get iso.program) > 0);
  Alcotest.(check string) "isolated wins" "isolated"
    (Strategy.kind_name outcome.Strategy.winner.kind);
  let fin = candidate outcome Strategy.Finish in
  (if fin.verified then
     Alcotest.(check bool)
       "isolated strictly beats finish" true
       (cpl_of iso < cpl_of fin));
  Alcotest.(check int) "winner metric says isolated" 1
    (metric outcome "strategy.winner");
  Alcotest.(check int) "isolated.verified metric" 1
    (metric outcome "strategy.isolated.verified")

let test_stencil_chunk_wins () =
  let prog = compile stencil_src in
  let expected = out prog in
  let outcome = Strategy.run `Tournament prog in
  Alcotest.(check string)
    "winner keeps the stencil's value" expected
    (out outcome.Strategy.program);
  let chunk = candidate outcome Strategy.Chunk in
  Alcotest.(check bool) "chunk verified" true chunk.verified;
  (* the racing statement calls heavy(), so isolated is inapplicable *)
  let iso = candidate outcome Strategy.Isolated in
  Alcotest.(check bool) "isolated inapplicable" false iso.verified;
  Alcotest.(check string) "chunk wins" "chunk"
    (Strategy.kind_name outcome.Strategy.winner.kind);
  Alcotest.(check int) "winner metric says chunk" 3
    (metric outcome "strategy.winner")

let test_single_strategy_elide () =
  let prog = compile fib_buggy in
  let outcome = Strategy.run `Elide prog in
  Alcotest.(check string) "elide winner" "elide"
    (Strategy.kind_name outcome.Strategy.winner.kind);
  Alcotest.(check bool) "verified" true outcome.Strategy.winner.verified;
  (* full elision leaves a sequential program *)
  Alcotest.(check int) "no asyncs left" 0
    (Mhj.Ast.count_asyncs outcome.Strategy.program);
  Alcotest.(check string) "still computes fib(8)" "21"
    (String.trim (out outcome.Strategy.program))

let test_single_strategy_isolated_inapplicable () =
  let prog = compile stencil_src in
  Alcotest.check_raises "isolated alone cannot repair the stencil"
    (Repair.Driver.Unrepairable
       "strategy isolated produced no race-free repair: racing statements \
        are not serializable in isolated")
    (fun () -> ignore (Strategy.run `Isolated prog))

let test_finish_choice_matches_driver () =
  let prog = compile fib_buggy in
  let outcome = Strategy.run `Finish prog in
  let report = Repair.Driver.repair prog in
  Alcotest.(check int) "same finish count"
    (Mhj.Ast.count_finishes report.Repair.Driver.program)
    (Mhj.Ast.count_finishes outcome.Strategy.program);
  Alcotest.(check bool) "report carried" true
    (outcome.Strategy.finish_report <> None)

let test_both_backends_verify () =
  let prog = compile reduce_src in
  let outcome = Strategy.run `Tournament prog in
  List.iter
    (fun backend ->
      Alcotest.(check bool)
        (Fmt.str "winner race-free under %s"
           (match backend with `Espbags -> "espbags" | `Vclock -> "vclock"))
        true
        (Strategy.race_free ~backend outcome.Strategy.program))
    [ `Espbags; `Vclock ]

(* ------------------------------------------------------------------ *)
(* One shared detection                                                *)
(* ------------------------------------------------------------------ *)

(* Every candidate of a tournament starts from one detection of the
   input, which the finish step may prune and splice.  Each candidate
   must still be exactly what its strategy produces alone: program
   text, verdict, rounds, score and note.  A lone strategy that
   verifies nothing raises, with the candidate's note in the message. *)

let choice_of : Strategy.kind -> Repair.Config.strategy = function
  | Strategy.Finish -> `Finish
  | Isolated -> `Isolated
  | Elide -> `Elide
  | Chunk -> `Chunk

let kinds = Strategy.[ Finish; Isolated; Elide; Chunk ]

let show (c : Strategy.candidate) =
  Fmt.str "%s verified=%b rounds=%d score=%a note=%S@.%s"
    (Strategy.kind_name c.kind) c.verified c.rounds (Fmt.option Score.pp)
    c.score c.note
    (match c.program with
    | Some p -> Mhj.Pretty.program_to_string p
    | None -> "<no program>")

let alone config kind prog =
  match Strategy.run ~config (choice_of kind) prog with
  | o -> Ok o.Strategy.winner
  | exception Repair.Driver.Unrepairable msg -> Error msg

let unverified_msg (c : Strategy.candidate) =
  Fmt.str "strategy %s produced no race-free repair%s"
    (Strategy.kind_name c.kind)
    (if c.note = "" then "" else ": " ^ c.note)

let check_candidates_alone what config prog =
  match Strategy.run ~config `Tournament prog with
  | outcome ->
      List.iter
        (fun (c : Strategy.candidate) ->
          let what = what ^ " " ^ Strategy.kind_name c.kind in
          match alone config c.kind prog with
          | Ok lone ->
              Alcotest.(check string) what (show lone) (show c)
          | Error msg ->
              Alcotest.(check bool) (what ^ ": unverified alone") false
                c.verified;
              Alcotest.(check string) what msg (unverified_msg c))
        outcome.Strategy.candidates
  | exception Repair.Driver.Unrepairable _ ->
      List.iter
        (fun kind ->
          Alcotest.(check bool)
            (what ^ " " ^ Strategy.kind_name kind ^ ": fails alone too")
            true
            (Result.is_error (alone config kind prog)))
        kinds

(* The Table 1 programs, finish-stripped, at sizes well below the
   repair inputs. *)
let small_table1 () =
  let open Benchsuite in
  List.map
    (fun (name, src) -> (name, Mhj.Transform.strip_finishes (compile src)))
    [
      ("Fibonacci", Fibonacci.source ~n:8);
      ("Quicksort", Quicksort.source ~n:64 ~seed:42);
      ("Mergesort", Mergesort.source ~n:64 ~seed:7);
      ("Spanning Tree", Spanning_tree.source ~nodes:24 ~neighbors:4);
      ("Nqueens", Nqueens.source ~n:5);
      ("Series", Series.source ~rows:8 ~points:8);
      ("SOR", Sor.source ~size:10 ~iters:2);
      ("Crypt", Crypt.source ~n:400 ~chunks:8);
      ("Sparse", Sparse.source ~size:30 ~nz_per_row:3 ~iters:2 ~bands:5);
      ("LUFact", Lufact.source ~n:8);
      ("FannKuch", Fannkuch.source ~n:5);
      ("Mandelbrot", Mandelbrot.source ~size:12 ~max_iter:10);
    ]

let hazard_programs () =
  small_table1 ()
  @ List.map
      (fun seed ->
        ( Fmt.str "progen %d" seed,
          compile (Benchsuite.Progen.generate ~seed ()) ))
      [ 1; 2; 3; 4; 5; 6 ]
  @ [ ("stencil", compile stencil_src); ("reduce", compile reduce_src) ]

let test_candidates_match_alone () =
  let budgets = { Repair.Guard.unlimited with sdpst_nodes = Some 50 } in
  List.iter
    (fun (cname, config) ->
      List.iter
        (fun (pname, prog) ->
          check_candidates_alone (cname ^ " " ^ pname) config prog)
        (hazard_programs ()))
    [
      ("default", Repair.Config.default);
      ("incremental", { Repair.Config.default with placement = `Incremental });
      ("sdpst-budget", { Repair.Config.default with budgets });
    ]

(* A loop's report as text: its repair and every round's record. *)
let summary ?(nodes = true) (r : Repair.Driver.report) =
  Fmt.str "converged=%b %a@.%s" r.converged
    Fmt.(list ~sep:sp string)
    (List.map
       (fun (it : Repair.Driver.iteration) ->
         Fmt.str "(races=%d pairs=%d groups=%d nodes=%d)" it.n_races
           it.n_race_pairs it.n_groups
           (if nodes then it.sdpst_nodes else 0))
       r.iterations)
    (Mhj.Pretty.program_to_string r.program)

(* Why the finish candidate takes the shared detection last: of the
   four steps only finish changes the detection it is given, by the
   S-DPST budget's prune or by incremental placement's splices.  A loop
   given [first] must also repair exactly as one that detects itself,
   and report the shared detection's time as round 0's. *)
let test_only_finish_changes_first () =
  let budgets = { Repair.Guard.unlimited with sdpst_nodes = Some 50 } in
  let configs =
    [
      ("batch", Repair.Config.default, false);
      ("incremental", { Repair.Config.default with placement = `Incremental },
        true);
      ("sdpst-budget", { Repair.Config.default with budgets }, true);
    ]
  in
  List.iter
    (fun (pname, src) ->
      let prog = compile src in
      let steps =
        [
          ("isolated", Strategy.isolated_step);
          ("elide", Strategy.elide_step prog);
          ("chunk", Strategy.chunk_step);
        ]
      in
      List.iter
        (fun (cname, config, finish_mutates) ->
          List.iter
            (fun (sname, step, mutates) ->
              let what = String.concat " " [ pname; cname; sname ] in
              let first = Repair.Driver.detect config prog in
              let tree () =
                Sdpst.Serial.tree_to_string (fst first).exec.tree
              in
              let before = tree () in
              let shared =
                (Repair.Driver.loop ~first config step ~verdict:ignore prog)
                  .report
              in
              let own =
                (Repair.Driver.loop config step ~verdict:ignore prog).report
              in
              Alcotest.(check bool) (what ^ ": tree changed") mutates
                (tree () <> before);
              Alcotest.(check string) (what ^ ": same report") (summary own)
                (summary shared);
              match shared.iterations with
              | it :: _ ->
                  Alcotest.(check (float 0.)) (what ^ ": round 0 time")
                    (snd first) it.detect_time
              | [] -> ())
            (("finish", Repair.Driver.finish_step config.placement,
              finish_mutates)
            :: List.map (fun (n, st) -> (n, st, false)) steps))
        configs)
    [ ("stencil", stencil_src); ("reduce", reduce_src) ]

(* The hazard the ordering guards against.  Once the finish step has
   used a detection (incremental splices, the budget's prune), a loop
   of another step given that detection no longer reports what it
   would alone: its round 0 records the changed tree's size.  Its
   repair and race counts still match, since isolated, elide and chunk
   read only race endpoints and their ancestry, which both changes
   keep. *)
let test_steps_after_finish () =
  let budgets = { Repair.Guard.unlimited with sdpst_nodes = Some 50 } in
  List.iter
    (fun (cname, config) ->
      let misreported = ref 0 in
      List.iter
        (fun (pname, prog) ->
          List.iter
            (fun (sname, step) ->
              let what = String.concat " " [ cname; pname; sname ] in
              let first = Repair.Driver.detect config prog in
              ignore
                (Repair.Driver.loop ~first config
                   (Repair.Driver.finish_step config.placement)
                   ~verdict:ignore prog);
              let shared =
                (Repair.Driver.loop ~first config step ~verdict:ignore prog)
                  .report
              and own =
                (Repair.Driver.loop config step ~verdict:ignore prog).report
              in
              Alcotest.(check string) (what ^ ": same repair")
                (summary ~nodes:false own) (summary ~nodes:false shared);
              if summary own <> summary shared then incr misreported)
            [
              ("isolated", Strategy.isolated_step);
              ("elide", Strategy.elide_step prog);
              ("chunk", Strategy.chunk_step);
            ])
        (hazard_programs ());
      Alcotest.(check bool)
        (cname ^ ": some round 0 records the changed tree")
        true (!misreported > 0))
    [
      ("incremental", { Repair.Config.default with placement = `Incremental });
      ("sdpst-budget", { Repair.Config.default with budgets });
    ]

(* A failure detecting the input ends the whole run: that detection is
   every candidate's round 0, so no candidate is marked unproduced for
   it.  A zero shadow chunk (which the CLI rejects, but a library or
   wire config can carry) fails inside the detector. *)
let test_input_detection_failure () =
  let config = { Repair.Config.default with shadow_chunk = Some 0 } in
  List.iter
    (fun choice ->
      match Strategy.run ~config choice (compile fib_buggy) with
      | _ -> Alcotest.fail "a zero shadow chunk must fail"
      | exception Repair.Diag.Fail d ->
          Alcotest.(check string) "the detector's error"
            "error[detect]: internal error (please report): \
             Invalid_argument(\"Slab.create: chunk size must be positive\")"
            (Repair.Diag.to_string d))
    [ `Tournament; `Isolated ]

(* The input is detected once per tournament: one detection of it, then
   one per candidate rewrite round, and no separate execution for the
   expected output (each S-DPST build belongs to a detection). *)
let test_one_input_detection () =
  List.iter
    (fun (what, prog) ->
      Obs.Trace.reset ();
      Obs.Trace.enable ();
      let outcome =
        Fun.protect
          ~finally:(fun () -> Obs.Trace.disable ())
          (fun () -> Strategy.run `Tournament prog)
      in
      let events = Obs.Trace.events () in
      Obs.Trace.reset ();
      let spans name =
        List.length
          (List.filter (fun (e : Obs.Trace.event) -> e.name = name) events)
      in
      let rounds =
        List.fold_left
          (fun n (c : Strategy.candidate) -> n + c.rounds)
          0 outcome.Strategy.candidates
      in
      Alcotest.(check int) (what ^ ": detect spans") (1 + rounds)
        (spans "detect");
      Alcotest.(check int)
        (what ^ ": every S-DPST build is a detection's")
        (spans "detect") (spans "sdpst-build"))
    [
      ( "samples/fib_buggy.mhj",
        compile
          (In_channel.with_open_text "../samples/fib_buggy.mhj"
             In_channel.input_all) );
      ("progen 3", compile (Benchsuite.Progen.generate ~seed:3 ()));
    ]

let () =
  Alcotest.run "strategy"
    [
      ( "tournament",
        [
          Alcotest.test_case "fib: winner no worse than finish" `Quick
            test_fib_tournament;
          Alcotest.test_case "reduction: isolated wins" `Quick
            test_reduce_isolated_wins;
          Alcotest.test_case "stencil: chunk wins" `Quick
            test_stencil_chunk_wins;
          Alcotest.test_case "winner verifies under both backends" `Quick
            test_both_backends_verify;
        ] );
      ( "single strategy",
        [
          Alcotest.test_case "elide serializes fib" `Quick
            test_single_strategy_elide;
          Alcotest.test_case "isolated inapplicable raises" `Quick
            test_single_strategy_isolated_inapplicable;
          Alcotest.test_case "finish choice matches the driver" `Quick
            test_finish_choice_matches_driver;
        ] );
      ( "one detection",
        [
          Alcotest.test_case "each candidate equals its strategy alone"
            `Quick test_candidates_match_alone;
          Alcotest.test_case "only the finish step changes it" `Quick
            test_only_finish_changes_first;
          Alcotest.test_case "the input is detected once" `Quick
            test_one_input_detection;
          Alcotest.test_case "a used detection misleads" `Quick
            test_steps_after_finish;
          Alcotest.test_case "its failure ends the run" `Quick
            test_input_detection_failure;
        ] );
    ]

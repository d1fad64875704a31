(* Workload runner behind perfbench/run.py.

     pb.exe setup --workload W --seed N
     pb.exe run   --workload W --seed N --seconds S --trace 0|1

   [setup] generates the workload's inputs from the seed and compiles
   them (for serve-mixed it also starts a daemon and waits for its
   "listening" line), prints "ready" and exits.  [run] does the same
   set-up, prints "ready", measures, and prints one JSON object of raw
   measurements as its last line; run.py turns it into metrics.

   A pass runs every input of the workload once.  Each input is one
   operation.  The heap is compacted before each operation, so garbage
   left by one program is not collected on the next one's clock, and
   the operation's output checks run after its clock stops.  A pass's
   wall time is the sum of its operations (serve-mixed: first request
   sent to last reply received).  Untraced runs make passes until
   [--seconds] have been measured.  Traced runs alternate two untraced
   and two traced passes, then make the extra measurements that only
   traced runs make. *)

module J = Obs.Json
module Clock = Obs.Clock
module Score = Compgraph.Score
module Strategy = Repair.Strategy
module Driver = Repair.Driver
module Bench = Benchsuite.Bench
module Progen = Benchsuite.Progen

let span = Obs.Trace.with_span

(* ------------------------------------------------------------------ *)
(* Passes, operations, failures                                        *)
(* ------------------------------------------------------------------ *)

type pass = {
  traced : bool;
  mutable wall_s : float;
  mutable ops : (string * float) list;  (** name, seconds; newest first *)
  counts : (string, int) Hashtbl.t;
  mutable ratios : float list;  (** repaired / racy parallelism *)
  mutable accesses : int;  (** accesses monitored by the detectors *)
  mutable detect_s : float;  (** wall time of the calls that monitored them *)
  mutable events : J.t list;  (** spans of a traced pass *)
}

let new_pass traced =
  {
    traced;
    wall_s = 0.;
    ops = [];
    counts = Hashtbl.create 64;
    ratios = [];
    accesses = 0;
    detect_s = 0.;
    events = [];
  }

let count p k v =
  Hashtbl.replace p.counts k
    (v + Option.value ~default:0 (Hashtbl.find_opt p.counts k))

(* Counters the program publishes, minus the two that describe the host
   or the configuration rather than the work. *)
let add_metrics p kvs =
  List.iter
    (fun (k, v) ->
      if
        List.exists
          (fun prefix -> String.starts_with ~prefix k)
          [ "detector."; "driver."; "engine."; "strategy."; "prune." ]
        && k <> "detector.peak_rss_kb" && k <> "detector.backend"
      then count p k v)
    kvs

let attempted = ref 0
let failed : (string, string) Hashtbl.t = Hashtbl.create 16
let pass_no = ref 0

let op_key name = Fmt.str "pass %d: %s" !pass_no name
let fail name msg =
  if not (Hashtbl.mem failed (op_key name)) then
    Hashtbl.replace failed (op_key name) msg
let check name ok msg = if not ok then fail name msg

(* One timed operation.  [None] when it raised; the exception counts as
   the operation's failure. *)
let timed p name f =
  Gc.compact ();
  incr attempted;
  let t0 = Clock.now_ns () in
  let r = try Ok (span "op" f) with e -> Error e in
  let s = Clock.elapsed_s t0 in
  p.ops <- (name, s) :: p.ops;
  p.wall_s <- p.wall_s +. s;
  match r with
  | Ok v -> Some v
  | Error e ->
      fail name (Printexc.to_string e);
      None

(* Later passes must reproduce the first pass's result exactly. *)
let same_as_first tbl name v =
  match Hashtbl.find_opt tbl name with
  | Some v0 ->
      check name (v0 = v) "result differs from the first pass";
      false
  | None ->
      Hashtbl.replace tbl name v;
      true

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

let compile_s = ref 0.

let compile src =
  let prog, s =
    Clock.time (fun () -> span "mhj.compile" (fun () -> Mhj.Front.compile src))
  in
  compile_s := !compile_s +. s;
  prog

(* The 12 Table 1 programs at repair size with every finish removed,
   as source text, the way a user would hand them to the tool. *)
let table1_sources () =
  List.map
    (fun (b : Bench.t) ->
      (b.name, Mhj.Pretty.program_to_string (Bench.stripped_program b)))
    Benchsuite.Suite.all

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Tdrutil.Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Uninstrumented depth-first run plus its critical-path score. *)
let execute prog = span "rt.interp" (fun () -> Rt.Interp.run prog)

let score p (res : Rt.Interp.result) =
  count p "rt.work" res.work;
  count p "sdpst.nodes" res.tree.Sdpst.Node.n_nodes;
  span "compgraph.score" (fun () -> Score.of_tree res.tree)

let ratio name (racy : Score.t) (fixed : Score.t) =
  if racy.parallelism > 0. then fixed.parallelism /. racy.parallelism
  else begin
    fail name "racy program has no parallelism";
    1.
  end

let add_iterations p (its : Driver.iteration list) =
  List.iter
    (fun (it : Driver.iteration) ->
      count p "sdpst.nodes" it.sdpst_nodes;
      p.accesses <- p.accesses + it.n_accesses;
      p.detect_s <- p.detect_s +. it.detect_time)
    its

type workload = {
  run_pass : pass -> unit;
  extras : unit -> (string * float) list;
      (** traced-only measurements outside the passes: metric, seconds *)
  peak_rss_kb : unit -> int;
  close : unit -> unit;
}

let self_rss () = Obs.Rusage.peak_rss_kb ()

(* ------------------------------------------------------------------ *)
(* table1-repair                                                       *)
(* ------------------------------------------------------------------ *)

let table1_repair ~seed =
  let inputs =
    List.map2
      (fun (name, src) b -> (name, b, compile src))
      (table1_sources ()) Benchsuite.Suite.all
  in
  let validate_par = { Par.Validate.default_request with seed } in
  let first = Hashtbl.create 16 in
  let run_pass p =
    List.iter
      (fun (name, b, prog) ->
        match
          timed p name (fun () ->
              let racy = score p (execute prog) in
              let r =
                span "core.repair" (fun () -> Driver.repair ~validate_par prog)
              in
              let fixed_res = execute r.program in
              (racy, r, fixed_res, score p fixed_res))
        with
        | None -> ()
        | Some (racy, r, fixed_res, fixed) ->
            add_metrics p r.metrics;
            add_iterations p r.iterations;
            p.ratios <- ratio name racy fixed :: p.ratios;
            if same_as_first first name (Mhj.Pretty.program_to_string r.program)
            then begin
              check name r.converged "repair did not converge";
              let expert = (Rt.Interp.run (Bench.repair_program b)).output in
              check name
                (fixed_res.output = expert)
                "repaired output differs from the expert program's";
              let det, _ = Vclock.Seq.detect Vclock.Seq.Mrw r.program in
              check name (Vclock.Seq.clean det)
                "vclock re-detection of the repair reports races";
              check name
                (match r.validated_par with
                | Some v -> Par.Validate.ok v
                | None -> false)
                "Par.Validate did not pass"
            end)
      inputs
  in
  { run_pass; extras = (fun () -> []); peak_rss_kb = self_rss; close = ignore }

(* ------------------------------------------------------------------ *)
(* tournament-repair                                                   *)
(* ------------------------------------------------------------------ *)

let progen_programs = 3

let tournament_repair ~seed =
  let sources =
    table1_sources ()
    @ List.init progen_programs (fun i ->
          let s = (seed * progen_programs) + i in
          (Fmt.str "progen-%d" s, Progen.generate ~seed:s ()))
  in
  let inputs = List.map (fun (name, src) -> (name, compile src)) sources in
  let first = Hashtbl.create 16 in
  let run_pass p =
    List.iter
      (fun (name, prog) ->
        match
          timed p name (fun () ->
              let racy_res = execute prog in
              let racy = score p racy_res in
              let o =
                span "strategy.tournament" (fun () ->
                    Strategy.run `Tournament prog)
              in
              (racy_res, racy, o))
        with
        | None -> ()
        | Some (racy_res, racy, o) -> (
            add_metrics p o.metrics;
            let w = o.winner in
            if w.kind <> Strategy.Finish then
              count p "strategy.nonfinish_winners" 1;
            (match o.finish_report with
            | Some r ->
                add_metrics p r.metrics;
                add_iterations p r.iterations
            | None -> ());
            match w.score with
            | None -> fail name "winner has no score"
            | Some ws ->
                (* over the fixed Table 1 programs only, so that the
                   metric does not move with the seed *)
                if not (String.starts_with ~prefix:"progen-" name) then
                  p.ratios <- ratio name racy ws :: p.ratios;
                if
                  same_as_first first name
                    (Mhj.Pretty.program_to_string o.program)
                then begin
                  check name w.verified "winner is not verified";
                  List.iter
                    (fun backend ->
                      check name
                        (Strategy.race_free ~backend o.program)
                        "winner re-detects with races")
                    [ `Espbags; `Vclock ];
                  check name
                    ((Rt.Interp.run o.program).output = racy_res.output)
                    "winner's output differs from the racy program's";
                  List.iter
                    (fun (c : Strategy.candidate) ->
                      match c.score with
                      | Some fs when c.kind = Strategy.Finish && c.verified ->
                          check name (ws.cpl <= fs.cpl)
                            "winner's CPL is above the finish candidate's"
                      | _ -> ())
                    o.candidates
                end))
      inputs
  in
  (* Each strategy alone over every input; a strategy that cannot repair
     an input raises Unrepairable, which is its answer, not a failure. *)
  let extras () =
    List.map
      (fun (kind, label) ->
        let (), s =
          Clock.time (fun () ->
              List.iter
                (fun (_, prog) ->
                  Gc.compact ();
                  try ignore (Strategy.run kind prog)
                  with Driver.Unrepairable _ -> ())
                inputs)
        in
        ("strategy." ^ label ^ "_s", s))
      [
        (`Finish, "finish");
        (`Isolated, "isolated");
        (`Elide, "elide");
        (`Chunk, "chunk");
      ]
  in
  { run_pass; extras; peak_rss_kb = self_rss; close = ignore }

(* ------------------------------------------------------------------ *)
(* scale-detect                                                        *)
(* ------------------------------------------------------------------ *)

(* Progen.scale_accesses counts the workload body; array initialisation,
   the racy appendix's base reads and the final print add a few more. *)
let access_slack = 64

(* The two detectors over one program: stats, races, execution. *)
let detectors prog =
  [
    ( "espbags",
      fun () ->
        let det, res =
          span "espbags.detect" (fun () ->
              Espbags.Detector.detect Espbags.Detector.Mrw prog)
        in
        (Espbags.Detector.stats det, Espbags.Detector.races det, res) );
    ( "vclock",
      fun () ->
        let det, res =
          span "vclock.detect" (fun () -> Vclock.Seq.detect Vclock.Seq.Mrw prog)
        in
        (Vclock.Seq.stats det, Vclock.Seq.races det, res) );
  ]

let scale_detect ~seed =
  let rng = Tdrutil.Prng.create ~seed in
  (* The presets are closed forms; the seed sets how many unjoined racy
     pairs each one ends with, which moves the expected race count but
     not the size of the run.  The order stays fixed, so the heap
     history behind peak_rss_mb does not depend on the seed. *)
  let inputs =
    List.map
      (fun (name, (cfg : Progen.scale_config)) ->
        let cfg = { cfg with racy_pairs = 1 + Tdrutil.Prng.int rng 16 } in
        (name, cfg, compile (Progen.generate_scaled cfg)))
      Progen.scale_presets
  in
  let run_pass p =
    List.iter
      (fun (name, (cfg : Progen.scale_config), prog) ->
        let sigs =
          List.filter_map
            (fun (label, detect) ->
              let op = name ^ "/" ^ label in
              match timed p op detect with
              | None -> None
              | Some (stats, races, (res : Rt.Interp.result)) ->
                  (* the operation is the detect call, so its clock is
                     also the detect time *)
                  p.detect_s <- p.detect_s +. snd (List.hd p.ops);
                  add_metrics p stats;
                  count p "rt.work" res.work;
                  count p "sdpst.nodes" res.tree.Sdpst.Node.n_nodes;
                  let accesses = List.assoc "detector.accesses" stats in
                  p.accesses <- p.accesses + accesses;
                  let expected = Progen.scale_accesses cfg in
                  check op
                    (abs (accesses - expected) <= access_slack)
                    (Fmt.str "%d accesses, closed form gives %d" accesses
                       expected);
                  check op
                    (List.length races = 2 * cfg.racy_pairs)
                    (Fmt.str "%d races, expected %d" (List.length races)
                       (2 * cfg.racy_pairs));
                  Some (Espbags.Race.exact_sigs races))
            (detectors prog)
        in
        match sigs with
        | [ a; b ] -> check name (a = b) "espbags and vclock records differ"
        | _ -> ())
      inputs
  in
  let extras () =
    let total = ref 0. in
    List.iter
      (fun (_, _, prog) ->
        Gc.compact ();
        let _, s = Clock.time (fun () -> Rt.Interp.run prog) in
        total := !total +. s)
      inputs;
    [ ("rt.interp_s", !total) ]
  in
  { run_pass; extras; peak_rss_kb = self_rss; close = ignore }

(* ------------------------------------------------------------------ *)
(* serve-mixed                                                         *)
(* ------------------------------------------------------------------ *)

module Client = Serve.Client

let connections = 2
let health_probes = 5

(* The job mix.  There is no recorded traffic to take it from, so it is
   a choice: per program, one job of each op the daemon serves (detect,
   repair, lint) plus a detect with static_prune, the only flag that
   brings in another layer (static).  Detect jobs use SRW: an MRW
   detect reply on mergesort lists 444k races in a 23 MB frame, and
   whether the result cache held two of them at once moved the daemon's
   peak RSS by a third from one seed to the next.  MRW detection still
   runs inside every repair job. *)
let variants =
  let srw = ("mode", J.Str "srw") in
  [
    ("detect", [ srw ]);
    ("detect", [ srw; ("static_prune", J.Bool true) ]);
    ("repair", []);
    ("lint", []);
  ]

(* Each program is sent in this many revisions that differ only in a
   trailing comment, as an editor sends a file again after a save, so
   the same work reaches the daemon as distinct frames.  Lint goes with
   the first revision only: its answer takes 2-5 ms, close to a cache
   hit, and sent every time it would put the median job on that path
   instead of on a computed result.  Per program that is 10 frames:
   detect 60%, repair 30%, lint 10%; repairs, the paper's operation,
   are about half of the slowest tenth of jobs, where p90 falls. *)
let revisions = 3

type frame = {
  fkey : string;  (** program, revision and variant: one per distinct frame *)
  fjob : string;  (** program and variant: the same work in every revision *)
  fop : string;
  fprog : Mhj.Ast.program;
  fpname : string;
  fflags : (string * J.t) list;
  fsrc : string;
}

type daemon = { pid : int; sock : string; out : in_channel; mutable alive : bool }

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> In_channel.input_all ic)
  with Sys_error _ -> ""

(* Resident-set high-water mark of another process, from /proc. *)
let vm_hwm_kb pid =
  read_file (Fmt.str "/proc/%d/status" pid)
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         match String.split_on_char ':' l with
         | [ "VmHWM"; v ] -> Scanf.sscanf_opt v " %d kB" Fun.id
         | _ -> None)
  |> Option.value ~default:0

let run_dir = ".perfbench-run"

(* run.py builds it before it starts the runner *)
let tdrepair = "_build/default/bin/tdrepair.exe"

(* Mergesort's repair takes about 2 s; on a host running at half speed
   it passed the daemon's 5 s default hard watchdog, which by design
   answers "degraded".  The benchmark measures throughput, not that
   threshold. *)
let hard_watchdog_ms = 60_000

let start_daemon () =
  if not (Sys.file_exists run_dir) then Unix.mkdir run_dir 0o755;
  (* a relative socket path stays under the sun_path length limit
     wherever the checkout lives *)
  let sock = Fmt.str "%s/serve-%d.sock" run_dir (Unix.getpid ()) in
  (try Sys.remove sock with Sys_error _ -> ());
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process tdrepair
      [|
        tdrepair; "serve"; "--socket"; sock; "--workers";
        string_of_int connections; "--hard-watchdog-ms";
        string_of_int hard_watchdog_ms;
      |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let d = { pid; sock; out = ic; alive = true } in
  let rec wait () =
    match input_line ic with
    | l when String.starts_with ~prefix:"tdrepair serve: listening" l -> ()
    | _ -> wait ()
    | exception End_of_file -> failwith "serve daemon exited before listening"
  in
  wait ();
  d

let stop_daemon d =
  if d.alive then begin
    d.alive <- false;
    (try
       let c = Client.connect d.sock in
       ignore (Client.request c {|{"op": "shutdown"}|});
       Client.close c
     with _ -> Unix.kill d.pid Sys.sigterm);
    let deadline = Unix.gettimeofday () +. 30. in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ when Unix.gettimeofday () < deadline ->
          Unix.sleepf 0.01;
          wait ()
      | 0, _ ->
          Unix.kill d.pid Sys.sigkill;
          ignore (Unix.waitpid [] d.pid)
      | _ -> ()
    in
    wait ();
    close_in_noerr d.out;
    try Sys.remove d.sock with Sys_error _ -> ()
  end

let member_int k j =
  match J.member k j with Some (J.Int n) -> n | _ -> 0

let member_str k j = match J.member k j with Some (J.Str s) -> s | _ -> ""

(* The reply a cache hit must equal byte for byte: the first computed
   reply with the three fields a hit sets by definition. *)
let as_hit reply =
  match reply with
  | J.Obj kvs ->
      J.to_string
        (J.Obj
           (List.map
              (function
                | "attempts", _ -> ("attempts", J.Int 0)
                | "cached", _ -> ("cached", J.Bool true)
                | "spans", _ -> ("spans", J.List [])
                | kv -> kv)
              kvs))
  | j -> J.to_string j

let serve_mixed ~seed =
  let progs =
    List.map (fun (name, src) -> (name, src, compile src)) (table1_sources ())
  in
  let frames =
    List.concat_map
      (fun (pname, src, prog) ->
        List.concat
          (List.init revisions (fun rev ->
               let src =
                 if rev = 0 then src else Fmt.str "%s\n// revision %d\n" src rev
               in
               List.mapi (fun i v -> (i, v)) variants
               |> List.filter_map (fun (i, (op, flags)) ->
                      if rev > 0 && op = "lint" then None
                      else
                        Some
                          {
                            fkey = Fmt.str "%s.r%d.%d" pname rev i;
                            fjob = Fmt.str "%s.%d" pname i;
                            fop = op;
                            fprog = prog;
                            fpname = pname;
                            fflags = flags;
                            fsrc = src;
                          }))))
      progs
  in
  (* The job sequence of one pass: every distinct frame once (120), in
     one fixed shuffled order, and after every third frame from the
     twelfth on a byte-for-byte repeat of one sent 12 to 40 frames
     earlier — inside the daemon's 64-entry cache: 156 jobs, 23%
     repeats.  The seed picks the repeats.
     The order of the distinct frames decides which large replies sit
     in the cache together; with an earlier job mix, seeding it moved
     the daemon's peak RSS by a fifth between seeds. *)
  let order = Array.of_list (shuffle (Tdrutil.Prng.create ~seed:0) frames) in
  let sequence k =
    let rng = Tdrutil.Prng.create ~seed:((seed * 1009) + k) in
    let out = ref [] in
    Array.iteri
      (fun i f ->
        out := f :: !out;
        if i >= 12 && i mod 3 = 0 then
          let back = 12 + Tdrutil.Prng.int rng (min i 40 - 12 + 1) in
          out := order.(i - back) :: !out)
      order;
    Array.of_list (List.rev !out)
  in
  let wire ~trace f =
    let flags = if trace then ("trace", J.Bool true) :: f.fflags else f.fflags in
    J.to_string
      (J.Obj
         [
           ("op", J.Str f.fop);
           ("id", J.Str f.fkey);
           ("src", J.Str f.fsrc);
           ("flags", J.Obj flags);
         ])
  in
  let daemon = ref (Some (start_daemon ())) in
  let peak = ref 0 in
  (* in-process answers, computed once per program and variant *)
  let expected_races = Hashtbl.create 64 in
  let in_process_races f =
    match Hashtbl.find_opt expected_races f.fjob with
    | Some n -> n
    | None ->
        let flag k = List.assoc_opt k f.fflags in
        let mode =
          if flag "mode" = Some (J.Str "srw") then Espbags.Detector.Srw
          else Espbags.Detector.Mrw
        in
        let keep =
          if flag "static_prune" = Some (J.Bool true) then
            Some (Static.Prune.keep_fn (Static.Prune.make f.fprog))
          else None
        in
        let vclock =
          match flag "backend" with
          | Some (J.Str "vclock") -> true
          | Some (J.Str "auto") -> fst (Vclock.Select.choose f.fprog) = `Vclock
          | _ -> false
        in
        let races =
          if vclock then
            let mode =
              match mode with
              | Espbags.Detector.Srw -> Vclock.Seq.Srw
              | Mrw -> Vclock.Seq.Mrw
            in
            Vclock.Seq.races (fst (Vclock.Seq.detect ?keep mode f.fprog))
          else
            Espbags.Detector.races
              (fst (Espbags.Detector.detect ?keep mode f.fprog))
        in
        let n = List.length (Repair.Isolate.suppress f.fprog races) in
        Hashtbl.replace expected_races f.fjob n;
        n
  in
  let racy_scores = Hashtbl.create 16 in
  let racy_score f =
    match Hashtbl.find_opt racy_scores f.fpname with
    | Some s -> s
    | None ->
        let s = Score.of_tree (Rt.Interp.run f.fprog).tree in
        Hashtbl.replace racy_scores f.fpname s;
        s
  in
  (* repaired / racy parallelism of a repair reply, scored once per
     program; later revisions and passes must return the same program *)
  let repaired = Hashtbl.create 64 in
  let repaired_ratio f report =
    let src = member_str "program" report in
    match Hashtbl.find_opt repaired f.fjob with
    | Some (src0, r) ->
        check f.fkey (src0 = src) "repair differs from the first one";
        r
    | None ->
        let fixed =
          Score.of_tree (Rt.Interp.run (Mhj.Front.compile src)).tree
        in
        let r = ratio f.fkey (racy_score f) fixed in
        Hashtbl.replace repaired f.fjob (src, r);
        r
  in
  (* the pass's first computed reply per frame *)
  let first_reply = Hashtbl.create 128 in
  let check_reply p f line rtt =
    let name = f.fkey in
    match J.of_string line with
    | exception J.Parse_error e -> fail name ("unparseable reply: " ^ e)
    | reply -> (
        let status = member_str "status" reply in
        check name (status = "ok") ("status " ^ status);
        let report = Option.value ~default:J.Null (J.member "report" reply) in
        let first = Hashtbl.find_opt first_reply name in
        let cached = J.member "cached" reply = Some (J.Bool true) in
        let kind = if cached then "hit" else "miss" in
        p.ops <- (String.concat ":" [ f.fop; kind; name ], rtt) :: p.ops;
        if cached then begin
          count p "serve.cache_hits" 1;
          check name
            (Option.map as_hit first = Some line)
            "cached reply is not byte-identical to the first reply"
        end
        else begin
          count p "serve.retries" (max 0 (member_int "attempts" reply - 1));
          (match first with
          | Some first ->
              check name
                (J.member "report" first = Some report)
                "recomputed report differs"
          | None -> Hashtbl.replace first_reply name reply);
          match f.fop with
          | "detect" ->
              p.accesses <- p.accesses + member_int "accesses" report;
              check name
                (member_int "races" report = in_process_races f)
                "race count differs from the in-process result"
          | "repair" ->
              check name
                (J.member "converged" report = Some (J.Bool true))
                "repair did not converge";
              (* one ratio per repaired program and pass, however often
                 its frame missed the cache *)
              if first = None && status = "ok" then
                p.ratios <- repaired_ratio f report :: p.ratios
          | _ -> ()
        end)
  in
  let run_pass p =
    (* the previous pass's checks leave garbage in this process *)
    Gc.compact ();
    let d =
      match !daemon with
      | Some d ->
          daemon := None;
          d
      | None -> start_daemon ()
    in
    Fun.protect
      ~finally:(fun () ->
        peak := max !peak (vm_hwm_kb d.pid);
        stop_daemon d)
      (fun () ->
        let probe = Client.connect d.sock in
        let health () =
          let t0 = Clock.now_ns () in
          let r = Client.request probe {|{"op": "health"}|} in
          let s = Clock.elapsed_s t0 in
          match r with
          | Some line -> (J.of_string line, s)
          | None -> failwith "serve daemon closed the health connection"
        in
        for _ = 1 to health_probes do
          let _, s = health () in
          p.ops <- ("health", s) :: p.ops
        done;
        let jobs = sequence !pass_no in
        let n = Array.length jobs in
        let frames = Array.map (wire ~trace:p.traced) jobs in
        let results = Array.make n None in
        let next = ref 0 and lock = Mutex.create () in
        let take () =
          Mutex.protect lock (fun () ->
              let i = !next in
              incr next;
              i)
        in
        (* closed loop: each connection sends its next job only after the
           reply to its previous one *)
        let client () =
          let c = Client.connect d.sock in
          let rec loop () =
            let i = take () in
            if i < n then begin
              let t0 = Clock.now_ns () in
              let reply = Client.request c frames.(i) in
              let t1 = Clock.now_ns () in
              results.(i) <- Some (t0, t1, reply);
              loop ()
            end
          in
          Fun.protect ~finally:(fun () -> Client.close c) loop
        in
        let threads = List.init connections (fun _ -> Thread.create client ()) in
        List.iter Thread.join threads;
        let final, s = health () in
        p.ops <- ("health", s) :: p.ops;
        Client.close probe;
        attempted := !attempted + n;
        let metrics = Option.value ~default:J.Null (J.member "metrics" final) in
        count p "serve.jobs_shed" (member_int "serve.jobs_shed" metrics);
        Hashtbl.reset first_reply;
        let t_first = ref Int64.max_int and t_last = ref Int64.min_int in
        Array.iteri
          (fun i r ->
            let f = jobs.(i) in
            match r with
            | None -> fail f.fkey "no result"
            | Some (_, _, None) -> fail f.fkey "daemon closed the connection"
            | Some (t0, t1, Some line) ->
                t_first := min !t_first t0;
                t_last := max !t_last t1;
                check_reply p f line (Int64.to_float (Int64.sub t1 t0) /. 1e9))
          results;
        p.wall_s <- Int64.to_float (Int64.sub !t_last !t_first) /. 1e9;
        (* client-side spans of a traced pass: one per job, overlapping
           across the two connections *)
        if p.traced then
          p.events <-
            List.filter_map
              (Option.map (fun (t0, t1, _) ->
                   J.List
                     [
                       J.Str "serve.request";
                       J.Int (Int64.to_int t0);
                       J.Int (Int64.to_int (Int64.sub t1 t0));
                       J.Int 0;
                     ]))
              (Array.to_list results))
  in
  let extras () =
    (* the static pre-pass the prune-flagged jobs ask for, run here so
       its counts are read from the program's own Prune.stats *)
    let kept = ref 0 and discharged = ref 0 in
    List.iter
      (fun (_, _, prog) ->
        let st = Static.Prune.stats (Static.Prune.make prog) in
        let get k = Option.value ~default:0 (List.assoc_opt k st) in
        kept := !kept + get "prune.kept";
        discharged := !discharged + get "prune.discharged")
      progs;
    [
      ("prune.kept", float_of_int !kept);
      ("prune.discharged", float_of_int !discharged);
    ]
  in
  {
    run_pass;
    extras;
    peak_rss_kb = (fun () -> !peak);
    close = (fun () -> Option.iter stop_daemon !daemon);
  }

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let arg name default =
  let rec find = function
    | k :: v :: _ when k = "--" ^ name -> v
    | _ :: rest -> find rest
    | [] -> (
        match default with
        | Some d -> d
        | None -> failwith ("missing --" ^ name))
  in
  find (List.tl (Array.to_list Sys.argv))

let events_json () =
  List.map
    (fun (e : Obs.Trace.event) ->
      J.List
        [
          J.Str e.name;
          J.Int (Int64.to_int e.ts_ns);
          J.Int (Int64.to_int e.dur_ns);
          J.Int e.depth;
        ])
    (Obs.Trace.events ())

let pass_json p =
  J.Obj
    [
      ("traced", J.Bool p.traced);
      ("wall_s", J.Float p.wall_s);
      ( "ops",
        J.List
          (List.rev_map (fun (n, s) -> J.List [ J.Str n; J.Float s ]) p.ops) );
      ( "counts",
        J.Obj
          (Hashtbl.fold (fun k v acc -> (k, J.Int v) :: acc) p.counts []) );
      ("ratios", J.List (List.rev_map (fun r -> J.Float r) p.ratios));
      ("accesses", J.Int p.accesses);
      ("detect_s", J.Float p.detect_s);
      ("events", J.List p.events);
    ]

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  let workload = arg "workload" None in
  let seed = int_of_string (arg "seed" None) in
  let w =
    match workload with
    | "table1-repair" -> table1_repair ~seed
    | "tournament-repair" -> tournament_repair ~seed
    | "scale-detect" -> scale_detect ~seed
    | "serve-mixed" -> serve_mixed ~seed
    | other -> failwith ("unknown workload " ^ other)
  in
  print_endline "ready";
  Fun.protect ~finally:w.close (fun () ->
      match mode with
      | "setup" -> ()
      | "run" ->
          let seconds = float_of_string (arg "seconds" None) in
          let traced = arg "trace" (Some "0") = "1" in
          let one_pass traced =
            let p = new_pass traced in
            if traced then begin
              Obs.Trace.reset ();
              Obs.Trace.enable ()
            end;
            w.run_pass p;
            if traced then begin
              Obs.Trace.disable ();
              if p.events = [] then p.events <- events_json ();
              Obs.Trace.reset ()
            end;
            incr pass_no;
            p
          in
          let passes =
            if traced then List.map one_pass [ false; true; false; true ]
            else
              let rec go acc measured =
                if measured >= seconds && acc <> [] then List.rev acc
                else
                  let p = one_pass false in
                  go (p :: acc) (measured +. p.wall_s)
              in
              go [] 0.
          in
          let extras = if traced then w.extras () else [] in
          let out =
            J.Obj
              [
                ("workload", J.Str workload);
                ("seed", J.Int seed);
                ("compile_s", J.Float !compile_s);
                ("passes", J.List (List.map pass_json passes));
                ( "extras",
                  J.Obj (List.map (fun (k, s) -> (k, J.Float s)) extras) );
                ("peak_rss_kb", J.Int (w.peak_rss_kb ()));
                ("attempted", J.Int !attempted);
                ( "failures",
                  J.List
                    (Hashtbl.fold
                       (fun k m acc -> J.Str (k ^ ": " ^ m) :: acc)
                       failed []) );
              ]
          in
          print_endline (J.to_string out)
      | other -> failwith ("unknown mode " ^ other))

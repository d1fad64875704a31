(* `bench detector`: per-access overhead of the race detectors on the
   Table 1 suite (finish-stripped, repair input sizes) — a three-way
   shootout between the seed implementation, the ESP-bags hot path and
   the vector-clock backend.

   For each benchmark the sweep times eight configurations of the same
   deterministic execution: uninstrumented (nop), ESP-bags SRW and MRW,
   MRW with the static prune pre-pass (`--static-prune`,
   Static.Prune.keep_fn), the seed MRW implementation kept in
   Espbags.Reference — hashtable bags, boxed-address shadow, per-access
   allocation — as the "before" side, vector-clock SRW and MRW
   (Vclock.Seq, same packed shadow, concurrency decided by clock
   coverage instead of bags), and one parallel row: the program executed
   for real under Par.Engine with the sharded vector-clock monitor
   (Vclock.Pardet) attached, detection overlapped with execution on
   TDR_BENCH_PAR_DOMAINS domains.

   The headline metric is detection throughput: monitored accesses per
   second of detector work, where detector work is the run's time minus
   the uninstrumented (nop) run of the same program — i.e. the per-access
   cost the detector itself adds.  (Total-run times are also recorded; on
   interpreter-bound programs they dilute any detector change with
   constant interpretation cost.)  The speedup columns are the ratios of
   ESP-bags and vector-clock detection throughput to the seed's.  The
   parallel row is wall-clock only: its schedule is nondeterministic, so
   it is excluded from both the byte-identity assertions and the speedup
   floor.

   The interpreter is deterministic, so S-DPST node ids are stable across
   runs; the sweep asserts the sequential detectors' race reports
   byte-identical (same order, same (src, sink, addr, kind) records —
   Espbags.Race.exact_sigs) to the seed's for both SRW and MRW, the
   pruned run's race multiset identical to the unpruned one, and the
   parallel detector's static race set (sorted static keys) equal to the
   sequential MRW oracle's.  Any mismatch aborts rather than print a
   corrupt table.

   Timing discipline: minimum of TDR_BENCH_REPEAT timed runs (default 5,
   plus a warmup), with a [Gc.full_major] before every configuration so
   one configuration's garbage is not collected on another's clock.  The
   spread of the runs feeds the noise gate (Gate.measurable).

   Environment knobs: TDR_BENCH_REPEAT, TDR_BENCH_PAR_DOMAINS (default
   2), TDR_BENCH_SUITE (comma-separated benchmark names; default all),
   TDR_BENCH_DETECTOR_JSON (default BENCH_detector.json; "-" disables).
   The quick variant (`bench detector-quick`, @ci) does a single run per
   configuration and writes the JSON only when TDR_BENCH_DETECTOR_JSON
   is set explicitly, keeping all the race-set identity assertions. *)

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> default)
  | None -> default

let env_float name default =
  match Sys.getenv_opt name with
  | Some s -> (
      match float_of_string_opt s with Some f -> f | None -> default)
  | None -> default

let par_domains () = max 1 (env_int "TDR_BENCH_PAR_DOMAINS" 2)

let suite () =
  match Sys.getenv_opt "TDR_BENCH_SUITE" with
  | None | Some "" -> Benchsuite.Suite.all
  | Some spec -> (
      let names = String.split_on_char ',' spec in
      match
        List.filter
          (fun (b : Benchsuite.Bench.t) -> List.mem b.name names)
          Benchsuite.Suite.all
      with
      | [] ->
          failwith
            (Fmt.str
               "detector bench: TDR_BENCH_SUITE=%S matches no benchmark \
                (try 'tdrepair benchmarks')"
               spec)
      | bs -> bs)

type row = {
  name : string;
  accesses : int;
  races : int;
  nop_s : Gate.timing;
  srw_s : Gate.timing;
  mrw_s : Gate.timing;
  analysis_s : Gate.timing;  (** Static.Prune.make, paid once per program *)
  mrw_pruned_s : Gate.timing;
  skipped : int;
  ref_srw_s : Gate.timing;
  ref_mrw_s : Gate.timing;
  vc_srw_s : Gate.timing;
  vc_mrw_s : Gate.timing;
  par_mrw_s : Gate.timing;
      (** wall-clock of the parallel run with the sharded monitor
          attached; execution and detection overlap, so there is no
          meaningful nop baseline to subtract *)
}

let mrw_aps r = float_of_int r.accesses /. Gate.det_time r.mrw_s r.nop_s

let vc_mrw_aps r = float_of_int r.accesses /. Gate.det_time r.vc_mrw_s r.nop_s

let ref_mrw_aps r = float_of_int r.accesses /. Gate.det_time r.ref_mrw_s r.nop_s

let mrw_speedup r = mrw_aps r /. ref_mrw_aps r

let vc_mrw_speedup r = vc_mrw_aps r /. ref_mrw_aps r

(* Both sides' detection time above the noise floor? *)
let row_measurable r =
  Gate.measurable r.mrw_s r.nop_s && Gate.measurable r.ref_mrw_s r.nop_s

let vc_row_measurable r =
  Gate.measurable r.vc_mrw_s r.nop_s && Gate.measurable r.ref_mrw_s r.nop_s

let identical name what a b =
  if a <> b then
    failwith
      (Fmt.str "detector bench: %s: %s race records differ (%d vs %d) — \
                detector bug"
         name what (List.length a) (List.length b))

let measure ~warmup ~repeat (b : Benchsuite.Bench.t) : row =
  let prog = Benchsuite.Bench.stripped_program b in
  (* The configurations are timed in interleaved rounds (every
     configuration once per round, minimum over rounds) rather than
     back-to-back: heap size and allocator state drift over a long bench
     process, and interleaving exposes every configuration to the same
     drift instead of letting it bias whichever ran last.  A full major
     collection before each run keeps one configuration's garbage off
     another's clock. *)
  let once f =
    Gc.full_major ();
    let r, s = Clock.time f in
    ignore (Sys.opaque_identity r);
    s
  in
  let pr = Static.Prune.make prog in
  let nop () = ignore (Rt.Interp.run prog) in
  let srw_f () = fst (Espbags.Detector.detect Espbags.Detector.Srw prog) in
  let mrw_f () = fst (Espbags.Detector.detect Espbags.Detector.Mrw prog) in
  let analysis () = ignore (Static.Prune.make prog) in
  let pruned_f () =
    fst
      (Espbags.Detector.detect
         ~keep:(Static.Prune.keep_fn pr)
         Espbags.Detector.Mrw prog)
  in
  let ref_srw_f () = fst (Espbags.Reference.detect Espbags.Detector.Srw prog) in
  let ref_mrw_f () = fst (Espbags.Reference.detect Espbags.Detector.Mrw prog) in
  let vc_srw_f () = fst (Vclock.Seq.detect Vclock.Seq.Srw prog) in
  let vc_mrw_f () = fst (Vclock.Seq.detect Vclock.Seq.Mrw prog) in
  let par_f () =
    fst
      (Vclock.Pardet.detect
         ~mode:(Par.Engine.Domains { n = par_domains (); seed = 1 })
         prog)
  in
  (* A 100%-inline fuzz schedule IS depth-first execution: same access
     set, same allocation order, even for benchmarks whose control flow
     reads racy data.  The sharded parallel detector is asserted against
     the sequential oracle on this schedule; the [Domains] row above is
     timing-only, since a racy program may genuinely execute a different
     access set under a different interleaving. *)
  let par_df_f () =
    fst
      (Vclock.Pardet.detect
         ~policy:{ Par.Engine.inline_pct = 100; yield_pct = 0 }
         ~mode:(Par.Engine.Fuzz { seed = 1 })
         prog)
  in
  for _ = 1 to warmup do
    nop ();
    ignore (srw_f ());
    ignore (mrw_f ());
    ignore (pruned_f ());
    ignore (ref_srw_f ());
    ignore (ref_mrw_f ());
    ignore (vc_srw_f ());
    ignore (vc_mrw_f ());
    ignore (par_f ())
  done;
  let nop_s = ref []
  and srw_s = ref []
  and mrw_s = ref []
  and analysis_s = ref []
  and mrw_pruned_s = ref []
  and ref_srw_s = ref []
  and ref_mrw_s = ref []
  and vc_srw_s = ref []
  and vc_mrw_s = ref []
  and par_mrw_s = ref [] in
  let keep cell s = cell := s :: !cell in
  for _ = 1 to max 1 repeat do
    keep nop_s (once nop);
    keep srw_s (once (fun () -> ignore (srw_f ())));
    keep mrw_s (once (fun () -> ignore (mrw_f ())));
    keep analysis_s (once analysis);
    keep mrw_pruned_s (once (fun () -> ignore (pruned_f ())));
    keep ref_srw_s (once (fun () -> ignore (ref_srw_f ())));
    keep ref_mrw_s (once (fun () -> ignore (ref_mrw_f ())));
    keep vc_srw_s (once (fun () -> ignore (vc_srw_f ())));
    keep vc_mrw_s (once (fun () -> ignore (vc_mrw_f ())));
    keep par_mrw_s (once (fun () -> ignore (par_f ())))
  done;
  let nop_s = Gate.timing !nop_s
  and srw_s = Gate.timing !srw_s
  and mrw_s = Gate.timing !mrw_s
  and analysis_s = Gate.timing !analysis_s
  and mrw_pruned_s = Gate.timing !mrw_pruned_s
  and ref_srw_s = Gate.timing !ref_srw_s
  and ref_mrw_s = Gate.timing !ref_mrw_s
  and vc_srw_s = Gate.timing !vc_srw_s
  and vc_mrw_s = Gate.timing !vc_mrw_s
  and par_mrw_s = Gate.timing !par_mrw_s in
  let srw = srw_f ()
  and mrw = mrw_f ()
  and pruned = pruned_f ()
  and ref_srw = ref_srw_f ()
  and ref_mrw = ref_mrw_f ()
  and vc_srw = vc_srw_f ()
  and vc_mrw = vc_mrw_f ()
  and par_df = par_df_f () in
  identical b.name "ESP-bags SRW vs seed"
    (Espbags.Race.exact_sigs (Espbags.Detector.races srw))
    (Espbags.Race.exact_sigs (Espbags.Reference.races ref_srw));
  identical b.name "ESP-bags MRW vs seed"
    (Espbags.Race.exact_sigs (Espbags.Detector.races mrw))
    (Espbags.Race.exact_sigs (Espbags.Reference.races ref_mrw));
  identical b.name "vclock SRW vs seed"
    (Espbags.Race.exact_sigs (Vclock.Seq.races vc_srw))
    (Espbags.Race.exact_sigs (Espbags.Reference.races ref_srw));
  identical b.name "vclock MRW vs seed"
    (Espbags.Race.exact_sigs (Vclock.Seq.races vc_mrw))
    (Espbags.Race.exact_sigs (Espbags.Reference.races ref_mrw));
  identical b.name "MRW vs pruned MRW"
    (List.sort compare (Espbags.Race.exact_sigs (Espbags.Detector.races mrw)))
    (List.sort compare
       (Espbags.Race.exact_sigs (Espbags.Detector.races pruned)));
  (* The engine reorders and re-duplicates reports even on a
     deterministic schedule, so the parallel detector is held to static
     race-set equality (sorted distinct keys), not byte identity. *)
  identical b.name "parallel vclock static race set vs sequential MRW"
    (Vclock.Pardet.races par_df)
    (List.sort_uniq compare
       (List.map Espbags.Race.static_key_of_race (Espbags.Detector.races mrw)));
  {
    name = b.name;
    accesses = mrw.Espbags.Detector.n_accesses;
    races = Espbags.Detector.race_count mrw;
    nop_s;
    srw_s;
    mrw_s;
    analysis_s;
    mrw_pruned_s;
    skipped = pruned.Espbags.Detector.n_skipped;
    ref_srw_s;
    ref_mrw_s;
    vc_srw_s;
    vc_mrw_s;
    par_mrw_s;
  }

(* Per-row columns.  Rates and speedups derive from detection times, so
   each is gated on the configurations it subtracts; the overheads are
   plain ratios of run times and need no gate. *)
let row_json r =
  let mrw_ok = Gate.measurable r.mrw_s r.nop_s
  and vc_ok = Gate.measurable r.vc_mrw_s r.nop_s
  and ref_ok = Gate.measurable r.ref_mrw_s r.nop_s in
  Obs.Json.Obj
    ([
       ("name", Obs.Json.Str r.name);
       ("accesses", Int r.accesses);
       ("races", Int r.races);
       ("nop_s", Float r.nop_s.best);
       ("srw_s", Float r.srw_s.best);
       ("mrw_s", Float r.mrw_s.best);
       ("prune_analysis_s", Float r.analysis_s.best);
       ("mrw_pruned_s", Float r.mrw_pruned_s.best);
       ("skipped_accesses", Int r.skipped);
       ("ref_srw_s", Float r.ref_srw_s.best);
       ("ref_mrw_s", Float r.ref_mrw_s.best);
       ("vc_srw_s", Float r.vc_srw_s.best);
       ("vc_mrw_s", Float r.vc_mrw_s.best);
       ("par_mrw_wall_s", Float r.par_mrw_s.best);
       ("mrw_overhead", Float (r.mrw_s.best /. r.nop_s.best));
       ("ref_mrw_overhead", Float (r.ref_mrw_s.best /. r.nop_s.best));
     ]
    @ Gate.column "mrw_det_accesses_per_s" ~ok:mrw_ok (mrw_aps r)
    @ Gate.column "vc_mrw_det_accesses_per_s" ~ok:vc_ok (vc_mrw_aps r)
    @ Gate.column "ref_mrw_det_accesses_per_s" ~ok:ref_ok (ref_mrw_aps r)
    @ Gate.column "mrw_speedup_vs_seed" ~ok:(row_measurable r) (mrw_speedup r)
    @ Gate.column "vc_mrw_speedup_vs_seed" ~ok:(vc_row_measurable r)
        (vc_mrw_speedup r))

(* Summary statistics cover only rows whose detection times are above
   the noise floor on both sides; over no such row they are null. *)
let json_of_rows ~repeat rows =
  let mrows = List.filter row_measurable rows in
  let vrows = List.filter vc_row_measurable rows in
  let srows =
    List.filter
      (fun r ->
        Gate.measurable r.srw_s r.nop_s && Gate.measurable r.ref_srw_s r.nop_s)
      rows
  in
  let geomean_over rs f =
    exp
      (List.fold_left (fun acc r -> acc +. log (f r)) 0. rs
      /. float_of_int (max 1 (List.length rs)))
  in
  let total_over rs f = List.fold_left (fun acc r -> acc +. f r) 0. rs in
  let accesses r = float_of_int r.accesses in
  let over rs name v = Gate.column name ~ok:(rs <> []) v in
  Gate.document
    ([
       ("repeat", Obs.Json.Int repeat);
       ("par_domains", Int (par_domains ()));
       ("measured_rows", Int (List.length mrows));
       ("vc_measured_rows", Int (List.length vrows));
       ( "total_accesses",
         Int (List.fold_left (fun n r -> n + r.accesses) 0 mrows) );
     ]
    @ over mrows "aggregate_mrw_speedup_vs_seed"
        (total_over mrows (fun r -> Gate.det_time r.ref_mrw_s r.nop_s)
        /. total_over mrows (fun r -> Gate.det_time r.mrw_s r.nop_s))
    @ over vrows "aggregate_vc_mrw_speedup_vs_seed"
        (total_over vrows (fun r -> Gate.det_time r.ref_mrw_s r.nop_s)
        /. total_over vrows (fun r -> Gate.det_time r.vc_mrw_s r.nop_s))
    @ over mrows "aggregate_mrw_det_accesses_per_s"
        (total_over mrows accesses
        /. total_over mrows (fun r -> Gate.det_time r.mrw_s r.nop_s))
    @ over vrows "aggregate_vc_mrw_det_accesses_per_s"
        (total_over vrows accesses
        /. total_over vrows (fun r -> Gate.det_time r.vc_mrw_s r.nop_s))
    @ over mrows "aggregate_ref_mrw_det_accesses_per_s"
        (total_over mrows accesses
        /. total_over mrows (fun r -> Gate.det_time r.ref_mrw_s r.nop_s))
    @ over mrows "geomean_mrw_speedup_vs_seed" (geomean_over mrows mrw_speedup)
    @ over vrows "geomean_vc_mrw_speedup_vs_seed"
        (geomean_over vrows vc_mrw_speedup)
    @ over srows "geomean_srw_speedup_vs_seed"
        (geomean_over srows (fun r ->
             Gate.det_time r.ref_srw_s r.nop_s
             /. Gate.det_time r.srw_s r.nop_s)))
    (List.map row_json rows)

let sweep ~quick () =
  let repeat = if quick then 1 else env_int "TDR_BENCH_REPEAT" 5 in
  let warmup = if quick then 0 else 1 in
  Fmt.pr
    "== detector shootout: seed / ESP-bags / vector clocks (%d-domain \
     parallel row) ==@."
    (par_domains ());
  Fmt.pr
    "(speedups in accesses/sec of detection time = run minus \
     uninstrumented baseline; par(ms) is wall-clock of detection \
     overlapped with parallel execution)@.";
  Fmt.pr "%-14s %10s %6s %9s %9s %9s %9s %9s %8s %8s@." "benchmark"
    "accesses" "races" "nop(ms)" "seed(ms)" "mrw(ms)" "vc(ms)" "par(ms)"
    "mrw-spd" "vc-spd";
  let rows =
    List.map
      (fun b ->
        let r = measure ~warmup ~repeat b in
        let spd ok v = if ok then Fmt.str "%7.2fx" v else "    n/a" in
        Fmt.pr "%-14s %10d %6d %9.2f %9.2f %9.2f %9.2f %9.2f %s %s@." r.name
          r.accesses r.races (1e3 *. r.nop_s.best)
          (1e3 *. r.ref_mrw_s.best) (1e3 *. r.mrw_s.best)
          (1e3 *. r.vc_mrw_s.best) (1e3 *. r.par_mrw_s.best)
          (spd (row_measurable r) (mrw_speedup r))
          (spd (vc_row_measurable r) (vc_mrw_speedup r));
        r)
      (suite ())
  in
  let mrows = List.filter row_measurable rows in
  let vrows = List.filter vc_row_measurable rows in
  let geomean_over rs f =
    exp
      (List.fold_left (fun acc r -> acc +. log (f r)) 0. rs
      /. float_of_int (max 1 (List.length rs)))
  in
  let total_over rs f = List.fold_left (fun acc r -> acc +. f r) 0. rs in
  let agg =
    total_over mrows (fun r -> Gate.det_time r.ref_mrw_s r.nop_s)
    /. total_over mrows (fun r -> Gate.det_time r.mrw_s r.nop_s)
  in
  let vc_agg =
    total_over vrows (fun r -> Gate.det_time r.ref_mrw_s r.nop_s)
    /. total_over vrows (fun r -> Gate.det_time r.vc_mrw_s r.nop_s)
  in
  Fmt.pr
    "race sets byte-identical to the seed on all %d benchmark(s), \
     parallel static race sets equal to the sequential MRW oracle; MRW \
     speedup vs seed over the %d with measurable detection time: %.2fx \
     aggregate, %.2fx geomean; vclock MRW over %d: %.2fx aggregate, \
     %.2fx geomean@."
    (List.length rows) (List.length mrows) agg
    (geomean_over mrows mrw_speedup)
    (List.length vrows) vc_agg
    (geomean_over vrows vc_mrw_speedup);
  (* Guard against the observability hooks (PR 5) creeping into the MRW
     hot loop: with tracing disabled the instrumented detector must stay
     faster than the seed implementation.  The floor is deliberately loose
     (1.0x by default, i.e. "at least as fast as the seed", far below the
     steady-state speedup) because CI machines are noisy and quick mode
     times a single run; TDR_BENCH_MIN_SPEEDUP overrides it.  Skipped
     entirely when no row's detection time is above the noise floor.  The
     parallel row never participates: its clock is wall time of a
     nondeterministic schedule. *)
  (if mrows <> [] then
     let floor = env_float "TDR_BENCH_MIN_SPEEDUP" 1.0 in
     if agg < floor then
       failwith
         (Fmt.str
            "detector bench: aggregate MRW speedup vs seed %.2fx is below \
             the %.2fx floor (TDR_BENCH_MIN_SPEEDUP) — instrumentation \
             overhead regression?"
            agg floor));
  Gate.emit ~what:"detector" ~var:"TDR_BENCH_DETECTOR_JSON"
    ~default:"BENCH_detector.json" ~quick (json_of_rows ~repeat rows)

let run () = sweep ~quick:false ()

(* CI variant: single timed run per configuration, JSON only when
   TDR_BENCH_DETECTOR_JSON is set; the race-set identity assertions
   (ESP-bags and vclock vs seed, pruned vs unpruned, parallel static set
   vs sequential oracle) still run on the whole suite. *)
let run_quick () = sweep ~quick:true ()

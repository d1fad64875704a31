(* The paper's §7.1 experiment, at test-friendly input sizes: for every
   Table 1 benchmark, (a) the expert version is race-free, (b) stripping
   its finishes introduces races, (c) the tool repairs the stripped
   version in few iterations, (d) the repaired program is race-free,
   computes the same outputs, and restores the expert critical path. *)

(* Small-size variants of each benchmark so the full matrix stays fast. *)
let small_sources : (string * string * bool) list =
  (* name, source, stripping-introduces-races *)
  [
    ("Fibonacci", Benchsuite.Fibonacci.source ~n:8, true);
    ("Quicksort", Benchsuite.Quicksort.source ~n:80 ~seed:11, true);
    ("Mergesort", Benchsuite.Mergesort.source ~n:48 ~seed:2, true);
    ("Spanning Tree", Benchsuite.Spanning_tree.source ~nodes:40 ~neighbors:3, true);
    ("Nqueens", Benchsuite.Nqueens.source ~n:5, true);
    ("Series", Benchsuite.Series.source ~rows:6 ~points:5, true);
    ("SOR", Benchsuite.Sor.source ~size:10 ~iters:2, true);
    ("Crypt", Benchsuite.Crypt.source ~n:64 ~chunks:4, true);
    ("Sparse", Benchsuite.Sparse.source ~size:16 ~nz_per_row:3 ~iters:2 ~bands:4, true);
    ("LUFact", Benchsuite.Lufact.source ~n:8, true);
    ("FannKuch", Benchsuite.Fannkuch.source ~n:4, true);
    ("Mandelbrot", Benchsuite.Mandelbrot.source ~size:10 ~max_iter:8, true);
  ]

let races prog =
  Espbags.Detector.race_count
    (fst (Espbags.Detector.detect Espbags.Detector.Mrw prog))

let cpl prog = Sdpst.Analysis.critical_path_length (Rt.Interp.run prog).tree

let check_benchmark (name, src, expect_races) () =
  let expert = Mhj.Front.compile src in
  Alcotest.(check int) (name ^ ": expert race-free") 0 (races expert);
  let stripped = Mhj.Transform.strip_finishes expert in
  if expect_races then
    Alcotest.(check bool)
      (name ^ ": stripping introduces races")
      true
      (races stripped > 0);
  let report = Repair.Driver.repair stripped in
  Alcotest.(check bool) (name ^ ": converged") true report.converged;
  Alcotest.(check bool)
    (name ^ ": at most 2 repair iterations")
    true
    (List.length report.iterations <= 2);
  Alcotest.(check int) (name ^ ": repaired race-free") 0 (races report.program);
  let e = Rt.Interp.run expert and r = Rt.Interp.run report.program in
  Alcotest.(check string) (name ^ ": same output") e.output r.output;
  (* Parallelism restored: the repaired CPL is within 15% of the expert's
     (it is often exactly equal; small deviations come from cost-model
     bookkeeping of the extra finish nodes). *)
  let ce = cpl expert and cr = cpl report.program in
  if cr > ce + (ce * 15 / 100) + 10 then
    Alcotest.failf "%s: repaired CPL %d much worse than expert %d" name cr ce

let test_table1_inventory () =
  Alcotest.(check int) "twelve benchmarks" 12 (List.length Benchsuite.Suite.all);
  let names = Benchsuite.Suite.names in
  List.iter
    (fun expected ->
      if not (List.mem expected names) then
        Alcotest.failf "missing benchmark %s" expected)
    [
      "Fibonacci"; "Quicksort"; "Mergesort"; "Spanning Tree"; "Nqueens";
      "Series"; "SOR"; "Crypt"; "Sparse"; "LUFact"; "FannKuch"; "Mandelbrot";
    ];
  Alcotest.(check (option string))
    "find is case-insensitive" (Some "Fibonacci")
    (Option.map
       (fun (b : Benchsuite.Bench.t) -> b.name)
       (Benchsuite.Suite.find "fibonacci"))

let test_repair_sizes_compile () =
  List.iter
    (fun (b : Benchsuite.Bench.t) ->
      match Benchsuite.Bench.repair_program b with
      | exception e ->
          Alcotest.failf "%s (repair size) does not compile: %s" b.name
            (Printexc.to_string e)
      | _ -> ())
    Benchsuite.Suite.all

let test_perf_sizes_compile () =
  List.iter
    (fun (b : Benchsuite.Bench.t) ->
      match Benchsuite.Bench.perf_program b with
      | exception e ->
          Alcotest.failf "%s (perf size) does not compile: %s" b.name
            (Printexc.to_string e)
      | _ -> ())
    Benchsuite.Suite.all

(* Deterministic counters of the canonical run, pinned exactly: the
   depth-first execution, its S-DPST and ESP-bags MRW detection must not
   drift when the evaluator is reworked.  Covers the 12 stripped Table 1
   programs at repair size and the scale presets shrunk to test size. *)
let counters prog =
  let det, res = Espbags.Detector.detect Espbags.Detector.Mrw prog in
  [
    res.Rt.Interp.work;
    res.tree.Sdpst.Node.n_nodes;
    det.Espbags.Detector.n_accesses;
    Espbags.Detector.race_count det;
  ]

let shrink (cfg : Benchsuite.Progen.scale_config) :
    Benchsuite.Progen.scale_config =
  let r n = max 1 (n / 32) in
  let shape : Benchsuite.Progen.scale_shape =
    match cfg.shape with
    | Grid g -> Grid { g with reps = r g.reps }
    | Deep d -> Deep { d with reps = r d.reps }
    | Hot h -> Hot { h with reps = r h.reps }
    | Phased p -> Phased { p with reps = r p.reps }
    | Sparse s -> Sparse { s with reps = r s.reps; pad_len = r s.pad_len }
  in
  { cfg with shape }

(* name, [work; S-DPST nodes; MRW accesses; MRW races] *)
let pinned_table1 =
  [
    ("Fibonacci", [ 75037; 19162; 6386; 3193 ]);
    ("Quicksort", [ 238139; 40477; 31500; 13018 ]);
    ("Mergesort", [ 405234; 93960; 60292; 444489 ]);
    ("Spanning Tree", [ 144055; 20366; 24711; 1791 ]);
    ("Nqueens", [ 56483; 9854; 2491; 4 ]);
    ("Series", [ 71521; 10478; 106; 3 ]);
    ("SOR", [ 76147; 7156; 16437; 12992 ]);
    ("Crypt", [ 174557; 24094; 21089; 6000 ]);
    ("Sparse", [ 39654; 4520; 7617; 1900 ]);
    ("LUFact", [ 42520; 6872; 9534; 48070 ]);
    ("FannKuch", [ 257542; 40363; 49347; 39 ]);
    ("Mandelbrot", [ 1335892; 105500; 39053; 50 ]);
  ]

let pinned_scale =
  [
    ("grid-1m", [ 126005; 19477; 32796; 8 ]);
    ("deep-1m", [ 124446; 17931; 32784; 4 ]);
    ("hot-1m", [ 51488; 14502; 24756; 16 ]);
    ("phased-1m", [ 65949; 20708; 24804; 32 ]);
    ("sparse-1m", [ 126005; 19477; 32796; 8 ]);
  ]

let test_pinned_counters () =
  let rows = Alcotest.(list (pair string (list int))) in
  let table1 =
    List.map
      (fun (b : Benchsuite.Bench.t) ->
        (b.name, counters (Benchsuite.Bench.stripped_program b)))
      Benchsuite.Suite.all
  in
  Alcotest.check rows "Table 1 counters" pinned_table1 table1;
  Alcotest.check rows "scale counters" pinned_scale
    (List.map
       (fun (name, cfg) ->
         ( name,
           counters
             (Mhj.Front.compile
                (Benchsuite.Progen.generate_scaled (shrink cfg))) ))
       Benchsuite.Progen.scale_presets);
  (* perfbench's table1-repair [rt.work] runs each program before and
     after repair; an inserted finish charges nothing, so both runs do
     the same work *)
  Alcotest.(check int) "Table 1 work, twice" 5_833_562
    (2 * List.fold_left (fun acc (_, c) -> acc + List.hd c) 0 table1)

let () =
  Alcotest.run "benchsuite"
    [
      ( "inventory",
        [
          Alcotest.test_case "Table 1" `Quick test_table1_inventory;
          Alcotest.test_case "repair sizes compile" `Quick
            test_repair_sizes_compile;
          Alcotest.test_case "perf sizes compile" `Quick
            test_perf_sizes_compile;
        ] );
      ( "counters",
        [ Alcotest.test_case "pinned" `Quick test_pinned_counters ] );
      ( "repair",
        List.map
          (fun ((name, _, _) as case) ->
            Alcotest.test_case name `Quick (check_benchmark case))
          small_sources );
    ]

(* The noise gate of the detection benchmarks: a run-minus-baseline
   difference is published only when it clears the floor and the spread
   of both sides' samples. *)

let timing = Gate.timing

let check what want run nop =
  Alcotest.(check bool) what want
    (Gate.measurable (timing run) (timing nop))

let test_timing () =
  let t = timing [ 0.30; 0.25; 0.41 ] in
  Alcotest.(check (float 1e-12)) "best is the minimum" 0.25 t.best;
  Alcotest.(check (float 1e-12)) "spread is max - min" 0.16 t.spread;
  Alcotest.(check (float 0.)) "one sample, no spread" 0.
    (timing [ 0.5 ]).spread

let test_gate () =
  (* a clear difference with tight samples *)
  check "clear difference" true [ 1.00; 1.01 ] [ 0.50; 0.51 ];
  (* a baseline slower than the run is never a rate *)
  check "baseline slower than the run" false [ 0.50 ] [ 0.60 ];
  (* below the 5% floor *)
  check "below the relative floor" false [ 1.02 ] [ 1.00 ];
  (* the difference (0.10 s) is narrower than the run's spread (0.30 s) *)
  check "run spread wider than the difference" false [ 0.40; 0.70 ]
    [ 0.30; 0.31 ];
  (* ... or than the baseline's *)
  check "baseline spread wider than the difference" false [ 0.40; 0.41 ]
    [ 0.30; 0.55 ];
  Alcotest.(check (float 1e-9)) "det_time floors at 1us" 1e-6
    (Gate.det_time (timing [ 0.5 ]) (timing [ 0.6 ]))

let () =
  Alcotest.run "gate"
    [
      ( "gate",
        [
          Alcotest.test_case "timing of samples" `Quick test_timing;
          Alcotest.test_case "measurable" `Quick test_gate;
        ] );
    ]

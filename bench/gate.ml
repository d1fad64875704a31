(* The noise gate shared by the detection benchmarks (`bench detector`,
   `bench scale`).

   Detector cost is a run's time minus the uninstrumented (nop) run of
   the same program.  A difference below the floor — absolute, and
   relative to the baseline — is clock noise, not a measurement: on
   interpreter-bound programs the run-to-run variance of the baseline
   itself exceeds the detector's contribution, and a baseline that ran
   slower than the detector leaves only the 1us clamp.  A rate or ratio
   derived from such a difference is never published: every gated
   column is written with its own [<column>_measurable] flag, and its
   value is JSON null whenever the flag is false. *)

(* Every timed run of one configuration, kept as its minimum (the
   reported time) and its spread (max - min, the run-to-run noise). *)
type timing = { best : float; spread : float }

let timing samples =
  let best = List.fold_left Float.min infinity samples in
  { best; spread = List.fold_left Float.max neg_infinity samples -. best }

(* Detection time: run minus baseline, floored at 1us so clock jitter on
   a near-free configuration cannot yield a zero or negative
   denominator.  Only meaningful where [measurable] holds. *)
let det_time run nop = Float.max (run.best -. nop.best) 1e-6

(* The difference must clear the floor and also exceed the spread of
   both sides' samples: a difference the noise of either configuration
   could produce on its own is not a measurement. *)
let measurable run nop =
  let d = run.best -. nop.best in
  d >= Float.max 3e-4 (0.05 *. nop.best) && d > run.spread && d > nop.spread

(* A gated column: the value when [ok], else null, plus its flag. *)
let column name ~ok v =
  [
    (name, if ok then Obs.Json.Float v else Obs.Json.Null);
    (name ^ "_measurable", Obs.Json.Bool ok);
  ]

(* A benchmark file: the top-level fields, then one row per line. *)
let document fields rows =
  let field (k, v) =
    Fmt.str "  %s: %s,\n" (Obs.Json.to_string (Str k)) (Obs.Json.to_string v)
  in
  let row r = "    " ^ Obs.Json.to_string r in
  String.concat "" ("{\n" :: List.map field fields)
  ^ "  \"rows\": [\n"
  ^ String.concat ",\n" (List.map row rows)
  ^ "\n  ]\n}\n"

(* Assert that no gated column in a rendered benchmark file — top level
   or any row — carries a value while its gate is false. *)
let check_document what doc =
  let check_obj (obj : Obs.Json.t) =
    match obj with
    | Obj kvs ->
        List.iter
          (fun (k, flag) ->
            if
              flag = Obs.Json.Bool false
              && Filename.check_suffix k "_measurable"
            then
              let col = Filename.chop_suffix k "_measurable" in
              match Obs.Json.member col obj with
              | None | Some Null -> ()
              | Some v ->
                  failwith
                    (Fmt.str
                       "%s bench: column %s is %s although its gate failed"
                       what col (Obs.Json.to_string v)))
          kvs
    | _ -> failwith (Fmt.str "%s bench: a row is not an object" what)
  in
  let j = Obs.Json.of_string doc in
  check_obj j;
  match Obs.Json.member "rows" j with
  | Some (List rows) -> List.iter check_obj rows
  | _ -> failwith (Fmt.str "%s bench: no rows" what)

(* Write [doc] where the TDR_BENCH_*_JSON variable [var] says: "-"
   disables, a path overrides, and unset means [default] in full runs
   and nothing in quick ones (the @ci aliases must not litter the build
   directory).  The gates are checked first, whether or not the file is
   written. *)
let emit ~what ~var ~default ~quick doc =
  check_document what doc;
  let dest =
    match Sys.getenv_opt var with
    | Some "-" -> None
    | Some path -> Some path
    | None -> if quick then None else Some default
  in
  match dest with
  | None -> ()
  | Some path ->
      Out_channel.with_open_text path (fun oc -> output_string oc doc);
      Fmt.pr "[%s data written to %s]@." what path

(* See detect.mli. *)

type result = {
  backend : [ `Espbags | `Vclock ];
  races : Espbags.Race.t list;
  pairs : Espbags.Race.t list Lazy.t;
  discharged : Espbags.Race.t list;
  exec : Rt.Interp.result;
  prune : Static.Prune.t option;
  stats : (string * int) list;
}

let count d key = List.assoc key d.stats

let backend (config : Config.t) prog =
  match config.backend with
  | (`Espbags | `Vclock) as b -> (b, "")
  | `Auto -> Vclock.Select.choose prog

let run (config : Config.t) prog =
  let backend, _ = backend config prog in
  let prune =
    if config.static_prune then
      Some
        (Guard.at_stage Diag.Lint (fun () ->
             Obs.Trace.with_span "static-prune" (fun () ->
                 Static.Prune.make prog)))
    else None
  in
  let keep = Option.map Static.Prune.keep_fn prune in
  let fuel = Guard.fuel config.budgets in
  let layout =
    Option.map (fun n -> Tdrutil.Islab.Chunked n) config.shadow_chunk
  in
  let spill = Option.map Espbags.Spill.config config.spill in
  let mode = config.mode in
  let races, stats, exec =
    Guard.at_stage Diag.Detect (fun () ->
        Obs.Trace.with_span "detect" (fun () ->
            match backend with
            | `Espbags ->
                let det, exec =
                  Espbags.Detector.detect ?fuel ?keep ?layout ?spill mode prog
                in
                (Espbags.Detector.races det, Espbags.Detector.stats det, exec)
            | `Vclock ->
                let det, exec =
                  Vclock.Seq.detect ?fuel ?keep ?layout ?spill mode prog
                in
                (Vclock.Seq.races det, Vclock.Seq.stats det, exec)))
  in
  let races, discharged = Isolate.split prog races in
  let pairs = lazy (Espbags.Race.dedupe_by_steps races) in
  { backend; races; pairs; discharged; exec; prune; stats }

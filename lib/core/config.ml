(* See config.mli. *)

module J = Obs.Json

type backend = [ `Espbags | `Vclock | `Auto ]
type placement = [ `Batch | `Incremental ]
type strategy = [ `Finish | `Isolated | `Elide | `Chunk | `Tournament ]

type t = {
  mode : Espbags.Detector.mode;
  backend : backend;
  placement : placement;
  strategy : strategy;
  budgets : Guard.budgets;
  static_prune : bool;
  static_verify : bool;
  validate_par : Par.Validate.request option;
  shadow_chunk : int option;
  spill : string option;
  sets : (string * int) list;
}

let default =
  {
    mode = Espbags.Detector.Mrw;
    backend = `Espbags;
    placement = `Batch;
    strategy = `Finish;
    budgets = Guard.unlimited;
    static_prune = false;
    static_verify = false;
    validate_par = None;
    shadow_chunk = None;
    spill = None;
    sets = [];
  }

let modes = [ ("mrw", Espbags.Detector.Mrw); ("srw", Espbags.Detector.Srw) ]
let backends = [ ("espbags", `Espbags); ("vclock", `Vclock); ("auto", `Auto) ]
let placements = [ ("batch", `Batch); ("incremental", `Incremental) ]

let strategies =
  [
    ("finish", `Finish);
    ("isolated", `Isolated);
    ("elide", `Elide);
    ("chunk", `Chunk);
    ("tournament", `Tournament);
  ]

let name table v = fst (List.find (fun (_, x) -> x = v) table)

(* ------------------------------------------------------------------ *)
(* Canonical form                                                      *)
(* ------------------------------------------------------------------ *)

let to_json
    {
      mode;
      backend;
      placement;
      strategy;
      budgets = { Guard.fuel; sdpst_nodes; dp_work };
      static_prune;
      static_verify;
      validate_par;
      shadow_chunk;
      spill;
      sets;
    } =
  let int_opt = function None -> J.Null | Some n -> J.Int n in
  J.Obj
    [
      ("mode", J.Str (name modes mode));
      ("backend", J.Str (name backends backend));
      ("placement", J.Str (name placements placement));
      ("strategy", J.Str (name strategies strategy));
      ("budget_fuel", int_opt fuel);
      ("budget_sdpst", int_opt sdpst_nodes);
      ("budget_dp", int_opt dp_work);
      ("static_prune", J.Bool static_prune);
      ("static_verify", J.Bool static_verify);
      ( "validate_par",
        match validate_par with
        | None -> J.Null
        | Some { Par.Validate.schedules; seed; budget_ms } ->
            J.Obj
              [
                ("schedules", J.Int schedules);
                ("seed", J.Int seed);
                ("budget_ms", int_opt budget_ms);
              ] );
      ("shadow_chunk", int_opt shadow_chunk);
      ("spill", match spill with None -> J.Null | Some p -> J.Str p);
      ("set", J.Obj (List.map (fun (g, v) -> (g, J.Int v)) sets));
    ]

exception Bad of string

let bad fmt = Fmt.kstr (fun m -> raise (Bad m)) fmt

let enum table key = function
  | J.Str s when List.mem_assoc s table -> List.assoc s table
  | _ ->
      bad "%S must be one of %s" key
        (String.concat ", " (List.map (fun (s, _) -> Fmt.str "%S" s) table))

let int key = function J.Int n -> n | _ -> bad "%S must be an integer" key
let bool key = function J.Bool b -> b | _ -> bad "%S must be a boolean" key
let str key = function J.Str s -> s | _ -> bad "%S must be a string" key
let opt f key = function J.Null -> None | v -> Some (f key v)

let request key = function
  | J.Obj kvs ->
      List.fold_left
        (fun (r : Par.Validate.request) (k, v) ->
          match k with
          | "schedules" -> { r with schedules = int "validate_par.schedules" v }
          | "seed" -> { r with seed = int "validate_par.seed" v }
          | "budget_ms" ->
              { r with budget_ms = opt int "validate_par.budget_ms" v }
          | k -> bad "unknown key \"validate_par.%s\"" k)
        Par.Validate.default_request kvs
  | _ -> bad "%S must be an object" key

let field c (k, v) =
  let b = c.budgets in
  match k with
  | "mode" -> { c with mode = enum modes k v }
  | "backend" -> { c with backend = enum backends k v }
  | "placement" -> { c with placement = enum placements k v }
  | "strategy" -> { c with strategy = enum strategies k v }
  | "budget_fuel" -> { c with budgets = { b with fuel = opt int k v } }
  | "budget_sdpst" -> { c with budgets = { b with sdpst_nodes = opt int k v } }
  | "budget_dp" -> { c with budgets = { b with dp_work = opt int k v } }
  | "static_prune" -> { c with static_prune = bool k v }
  | "static_verify" -> { c with static_verify = bool k v }
  | "validate_par" -> { c with validate_par = opt request k v }
  | "shadow_chunk" -> { c with shadow_chunk = opt int k v }
  | "spill" -> { c with spill = opt str k v }
  | "set" -> (
      match v with
      | J.Obj kvs ->
          { c with sets = List.map (fun (g, n) -> (g, int ("set." ^ g) n)) kvs }
      | _ -> bad "\"set\" must be an object of int overrides")
  | k -> bad "unknown key %S" k

let of_json = function
  | J.Obj kvs -> (
      try Ok (List.fold_left field default kvs) with Bad m -> Error m)
  | _ -> Error "the config must be a JSON object"

let pp ppf c = J.pp ppf (to_json c)

let key c = J.to_string (to_json c)

let apply_sets sets prog =
  List.fold_left
    (fun p (g, v) ->
      try Mhj.Transform.set_global_int p g v
      with Invalid_argument m ->
        raise (Diag.Fail (Diag.make ~stage:Diag.Typecheck m)))
    prog sets

module J = Telemetry.Tjson
module Hjson = Harness.Hjson
module Spec = Harness.Spec

let version = "qcongest-serve/v1"

type error = { code : string; detail : string }

type submit_options = { audit : bool; retries : int; deadline_s : float option }

let default_options = { audit = false; retries = 1; deadline_s = None }

type submit =
  | Sweep of { spec : Spec.t; options : submit_options }
  | Check_sweep of { spec : Spec.t }
  | Run of { spec : Spec.t; job : Spec.job; options : submit_options }

type request =
  | Ping
  | Submit of submit
  | Status of string
  | Result of string
  | Events of string
  | Metrics
  | Jobs
  | Shutdown

let builtins =
  [
    ("ci-smoke", Spec.ci_smoke);
    ("thm11-scaling", Spec.thm11_scaling);
    ("table1-measured", Spec.table1_measured);
  ]

(* --------------------------- request side -------------------------- *)

let err code detail = Error { code; detail }

let field v name get = Option.bind (Hjson.member name v) get

let spec_of v =
  match (field v "builtin" Hjson.to_string_opt, Hjson.member "spec" v) with
  | Some _, Some _ -> err "bad-request" "give either \"builtin\" or \"spec\", not both"
  | Some name, None -> (
    match List.assoc_opt name builtins with
    | Some s -> Ok s
    | None ->
      err "bad-spec"
        (Printf.sprintf "unknown built-in spec %S (have: %s)" name
           (String.concat ", " (List.map fst builtins))))
  | None, Some inline -> (
    (* Inline specs ride the same schema as spec files: re-print the
       subtree and reuse the validating [Spec.of_json]. *)
    match Spec.of_json (Hjson.print inline) with
    | Ok s -> Ok s
    | Error m -> err "bad-spec" ("inline spec: " ^ m))
  | None, None -> err "bad-request" "submit needs a \"builtin\" name or an inline \"spec\""

let options_of v =
  let audit = Option.value ~default:false (field v "audit" Hjson.to_bool_opt) in
  let retries = Option.value ~default:1 (field v "retries" Hjson.to_int_opt) in
  let deadline_s = field v "deadline_s" Hjson.to_float_opt in
  if retries < 1 then err "bad-request" "\"retries\" must be >= 1"
  else if (match deadline_s with Some d -> not (Float.is_finite d) || d <= 0.0 | None -> false)
  then err "bad-request" "\"deadline_s\" must be a positive finite number of seconds"
  else Ok { audit; retries; deadline_s }

let run_cell_of v spec =
  match
    ( field v "algo" Hjson.to_string_opt,
      field v "n" Hjson.to_int_opt,
      field v "seed" Hjson.to_int_opt )
  with
  | Some algo_name, Some n, Some seed -> (
    match Spec.algo_of_name algo_name with
    | None -> err "bad-request" (Printf.sprintf "unknown algorithm %S" algo_name)
    | Some algo ->
      if n < 2 then err "bad-request" "\"n\" must be >= 2"
      else
        Ok
          {
            Spec.id = Spec.job_id spec algo ~n ~seed;
            Spec.algo;
            Spec.n;
            Spec.seed;
          })
  | _ -> err "bad-request" "run needs \"algo\", \"n\" and \"seed\""

let submit_of v =
  match field v "kind" Hjson.to_string_opt with
  | Some "sweep" ->
    Result.bind (spec_of v) (fun spec ->
        Result.map (fun options -> Sweep { spec; options }) (options_of v))
  | Some "check-sweep" -> Result.map (fun spec -> Check_sweep { spec }) (spec_of v)
  | Some "run" ->
    Result.bind (spec_of v) (fun spec ->
        Result.bind (run_cell_of v spec) (fun job ->
            Result.map (fun options -> Run { spec; job; options }) (options_of v)))
  | Some other ->
    err "bad-request"
      (Printf.sprintf "unknown submit kind %S (expected sweep, check-sweep or run)" other)
  | None -> err "bad-request" "submit needs a \"kind\""

let job_ref v k =
  match field v "job" Hjson.to_string_opt with
  | Some id -> Ok (k id)
  | None -> err "bad-request" "missing \"job\" id"

let parse_request v =
  let id = field v "id" Hjson.to_string_opt in
  let req =
    match v with
    | Hjson.Obj _ -> (
      match field v "proto" Hjson.to_string_opt with
      | Some p when p <> version ->
        err "bad-proto" (Printf.sprintf "unsupported protocol %S (this daemon speaks %s)" p version)
      | Some _ | None -> (
        match field v "op" Hjson.to_string_opt with
        | Some "ping" -> Ok Ping
        | Some "submit" -> Result.map (fun s -> Submit s) (submit_of v)
        | Some "status" -> job_ref v (fun id -> Status id)
        | Some "result" -> job_ref v (fun id -> Result id)
        | Some "events" -> job_ref v (fun id -> Events id)
        | Some "metrics" -> Ok Metrics
        | Some "jobs" -> Ok Jobs
        | Some "shutdown" -> Ok Shutdown
        | Some other -> err "bad-request" (Printf.sprintf "unknown op %S" other)
        | None -> err "bad-request" "missing \"op\""))
    | _ -> err "bad-request" "request must be a JSON object"
  in
  (id, req)

(* The content the seeded-deterministic job id hashes: what will run,
   never when or for whom. *)
let submit_key = function
  | Sweep { spec; options } ->
    Printf.sprintf "sweep;%s;audit=%b;retries=%d;deadline=%s" (Spec.to_json spec)
      options.audit options.retries
      (match options.deadline_s with None -> "none" | Some d -> J.float d)
  | Check_sweep { spec } -> Printf.sprintf "check-sweep;%s" (Spec.to_json spec)
  | Run { spec = _; job; options } ->
    Printf.sprintf "run;%s;deadline=%s" job.Spec.id
      (match options.deadline_s with None -> "none" | Some d -> J.float d)

let submit_kind = function
  | Sweep _ -> "sweep"
  | Check_sweep _ -> "check-sweep"
  | Run _ -> "run"

(* --------------------------- response side ------------------------- *)

let id_field = function None -> [] | Some id -> [ ("id", J.str id) ]

let ok_line ?id fields =
  J.obj ((("proto", J.str version) :: id_field id) @ (("ok", J.bool true) :: fields))

let error_line ?id ~code ~detail () =
  J.obj
    ((("proto", J.str version) :: id_field id)
    @ [
        ("ok", J.bool false);
        ("error", J.obj [ ("code", J.str code); ("detail", J.str detail) ]);
      ])

let event_line ~job ~event fields =
  J.obj
    ([ ("proto", J.str version); ("event", J.str event); ("job", J.str job) ] @ fields)

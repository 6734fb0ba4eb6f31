(* Chaos-injection certifier for the supervised execution layer.

   Each certificate stages a real failure against real sweeps in a
   throwaway directory — a run killed mid-batch with its checkpoint
   store corrupted in place, a planted never-terminating job, an
   injected transient fault, an injected permanent fault — and then
   certifies the supervision invariants: no row lost except
   quarantined ones, resume byte-identical to an uninterrupted run,
   deadlines firing within tolerance, retry schedules deterministic,
   poison jobs quarantined with the sweep still completing.

   [negative_control] arms one sabotage per certificate (a silently
   deleted row, a supervisor that forgot to arm the deadline, an
   ignored retry policy, a lost quarantine file), so the audit must
   come back Fail — the proof that it can reject. *)

module J = Telemetry.Tjson
module Hjson = Harness.Hjson
module Spec = Harness.Spec
module Store = Harness.Store
module Runner = Harness.Runner
module Fit = Harness.Fit

(* ---------------------------- plumbing ----------------------------- *)

let temp_dir =
  let counter = ref 0 in
  let rec fresh () =
    incr counter;
    let p =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "qcongest_chaos.%d.%d" (Unix.getpid ()) !counter)
    in
    match Unix.mkdir p 0o700 with
    | () -> p
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> fresh ()
  in
  fresh

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

let file_lines path =
  List.filter (fun l -> l <> "") (String.split_on_char '\n' (read_file path))

(* A tiny but real sweep: two fast algorithms, two sizes, one seed —
   four jobs, each cheap enough that chaos runs it several times. *)
let tiny_spec ~name ~seed =
  Spec.make ~name
    ~algos:[ Spec.Classical_diameter; Spec.Sssp_two_approx ]
    ~family:(Spec.Chain { cliques = 2 })
    ~max_w:4 ~sizes:[ 6; 9 ] ~seeds:[ seed ] ()

let row_member row name get =
  match Hjson.parse row with
  | Ok v -> Option.bind (Hjson.member name v) get
  | Error _ -> None

let row_status row = row_member row "status" Hjson.to_string_opt
let row_attempts row = row_member row "attempts" Hjson.to_int_opt

let row_error_kind row =
  match Hjson.parse row with
  | Ok v ->
    Option.bind (Hjson.member "error" v) (fun e ->
        Option.bind (Hjson.member "kind" e) Hjson.to_string_opt)
  | Error _ -> None

(* Per-certificate check/violation accumulator, sweep_audit idiom. *)
type ledger = { mutable checked : int; mutable violations : Report.violation list }

let ledger () = { checked = 0; violations = [] }

let check l cond ~code ~data detail =
  l.checked <- l.checked + 1;
  if not cond then l.violations <- Report.violation ~code ~data detail :: l.violations

let finish l ?notes ~name ~claim () =
  Report.certificate ?notes ~name ~claim ~checked:l.checked (List.rev l.violations)

(* A protocol that never terminates: node 0 starts a token and every
   recipient bounces every copy back, forever. *)
let infinite_protocol : (unit, unit) Congest.Engine.protocol =
  {
    name = "chaos-infinite";
    size_words = (fun () -> 1);
    init =
      (fun view ->
        match Congest.Node_view.to_all view () with
        | first :: _ when view.Congest.Node_view.id = 0 -> ((), Congest.Engine.send [ first ])
        | _ -> ((), Congest.Engine.no_action));
    on_round =
      (fun _view ~round:_ () ~inbox ->
        ((), Congest.Engine.send (List.map (fun e -> (e.Congest.Engine.src, ())) inbox)));
  }

(* The round-limit backstop under the planted infinite protocol: if a
   broken deadline never fires, the audit must fail fast (with a
   round-limit row or violation), not hang. *)
let backstop = { Congest.Engine.default_config with max_rounds = 2_000_000 }

let flip_byte line =
  let i = String.length line / 2 in
  let b = Bytes.of_string line in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  Bytes.to_string b

(* --------------------------- chaos-resume -------------------------- *)

let resume_certificate ~seed ~negative_control =
  let l = ledger () in
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let spec = tiny_spec ~name:"chaos-resume" ~seed in
  let total = List.length (Spec.jobs spec) in
  let ref_store = Store.load ~path:(Filename.concat dir "reference.jsonl") () in
  let (_ : int * int) = Runner.run ~jobs:1 spec ref_store in
  let ref_report = Runner.report spec ref_store in
  (* Kill a second run mid-batch: three of four jobs checkpointed. *)
  let vpath = Filename.concat dir "victim.jsonl" in
  let victim = Store.load ~path:vpath () in
  let (_ : int * int) = Runner.run ~jobs:1 ~max_jobs:3 spec victim in
  Store.close victim;
  (* Corrupt the checkpoint in place: bit-flip the first row, splice a
     foreign line after the second, truncate the third mid-row. *)
  (match file_lines vpath with
  | [ a; b; c ] ->
    write_file vpath
      (String.concat "\n"
         [
           flip_byte a;
           b;
           "this is not a checkpoint row {\"id\":42";
           String.sub c 0 (String.length c - 7);
         ])
  | lines ->
    check l false ~code:"setup"
      ~data:[ ("lines", J.int (List.length lines)) ]
      "expected exactly 3 checkpointed rows before corruption");
  let reloaded = Store.load ~path:vpath () in
  check l
    (Store.count reloaded = 1)
    ~code:"survivor-lost"
    ~data:[ ("survivors", J.int (Store.count reloaded)) ]
    "mid-file corruption must keep the intact row around it";
  check l
    (Store.quarantined_lines reloaded = 2)
    ~code:"corruption-not-quarantined"
    ~data:[ ("quarantined", J.int (Store.quarantined_lines reloaded)) ]
    "the bit-flipped row and the spliced line must both be quarantined";
  check l
    (Store.dropped_lines reloaded = 1)
    ~code:"tail-not-truncated"
    ~data:[ ("dropped", J.int (Store.dropped_lines reloaded)) ]
    "the truncated trailing row is a partial append and must be dropped";
  check l
    (Sys.file_exists (Store.corrupt_path reloaded)
    && List.length (file_lines (Store.corrupt_path reloaded)) = 2)
    ~code:"corrupt-lines-lost"
    ~data:[ ("path", J.str (Store.corrupt_path reloaded)) ]
    "quarantined lines must be preserved in the corrupt sibling for forensics";
  (* Resume over the repaired store. *)
  let executed, failures = Runner.run ~jobs:1 spec reloaded in
  check l
    (executed = 3 && failures = 0)
    ~code:"resume-miscounted"
    ~data:[ ("executed", J.int executed); ("failed", J.int failures) ]
    "resume must re-execute exactly the quarantined/truncated jobs";
  Store.close reloaded;
  if negative_control then begin
    (* Sabotage: silently delete the last checkpoint row and present
       the store as complete. *)
    match List.rev (file_lines vpath) with
    | _last :: rest -> write_file vpath (String.concat "\n" (List.rev rest) ^ "\n")
    | [] -> ()
  end;
  let final = Store.load ~path:vpath () in
  check l
    (Store.count final = total)
    ~code:"row-lost"
    ~data:[ ("rows", J.int (Store.count final)); ("expected", J.int total) ]
    "no row may be lost across kill, corruption and resume";
  check l
    (Runner.report spec final = ref_report)
    ~code:"report-divergence" ~data:[]
    "the resumed report must be byte-identical to the uninterrupted run's";
  Store.close final;
  Store.close ref_store;
  finish l ~name:"chaos-resume"
    ~claim:
      "a sweep killed mid-batch with a mid-file-corrupted store resumes to a \
       byte-identical report, losing no row"
    ~notes:[ ("jobs", J.int total) ]
    ()

(* -------------------------- chaos-deadline ------------------------- *)

let deadline_certificate ~seed ~deadline_s ~negative_control =
  let l = ledger () in
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let spec = tiny_spec ~name:"chaos-deadline" ~seed in
  let g = Runner.make_graph spec ~n:6 ~seed in
  (* Engine level: the planted infinite protocol must be interrupted
     by the cooperative deadline, not by the round-limit backstop. *)
  let t0 = Unix.gettimeofday () in
  let outcome =
    match
      Congest.Engine.with_deadline ~seconds:deadline_s (fun () ->
          Congest.Engine.run ~config:backstop g infinite_protocol)
    with
    | _ -> `Quiesced
    | exception Congest.Engine.Deadline_exceeded info -> `Deadline info
    | exception Congest.Engine.Round_limit_exceeded _ -> `Round_limit
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match outcome with
  | `Deadline info ->
    check l true ~code:"deadline-not-raised" ~data:[] "";
    check l
      (info.Congest.Engine.elapsed_s >= deadline_s)
      ~code:"deadline-fired-early"
      ~data:
        [ ("elapsed_s", J.float info.Congest.Engine.elapsed_s);
          ("budget_s", J.float deadline_s) ]
      "a cooperative deadline can only fire after its budget has elapsed";
    check l
      (elapsed <= deadline_s +. 2.0)
      ~code:"deadline-fired-late"
      ~data:[ ("elapsed_s", J.float elapsed); ("budget_s", J.float deadline_s) ]
      "the deadline must fire within tolerance of its budget, not eventually";
    check l
      (info.Congest.Engine.budget_s = deadline_s)
      ~code:"budget-misreported"
      ~data:[ ("budget_s", J.float info.Congest.Engine.budget_s) ]
      "Deadline_exceeded must carry the budget it enforced"
  | `Quiesced | `Round_limit ->
    check l false ~code:"deadline-not-raised"
      ~data:[ ("elapsed_s", J.float elapsed) ]
      "the planted infinite protocol must be stopped by Deadline_exceeded");
  (* Runner level: the planted job must settle as a timeout row. *)
  let victim = List.hd (Spec.jobs spec) in
  let execute spec (j : Spec.job) ~attempt =
    if j.Spec.id = victim.Spec.id then
      Runner.protect ~attempt j (fun () ->
          (if negative_control then
             (* Sabotage: the supervisor forgot to arm the deadline;
                the job dies on the round limit instead. *)
             ignore
               (Congest.Engine.run
                  ~config:{ Congest.Engine.default_config with max_rounds = 100_000 }
                  g infinite_protocol)
           else
             ignore
               (Congest.Engine.with_deadline ~seconds:deadline_s (fun () ->
                    Congest.Engine.run ~config:backstop g infinite_protocol)));
          "{}")
    else Runner.run_job ~attempt spec j
  in
  let store = Store.load ~path:(Filename.concat dir "deadline.jsonl") () in
  let (_ : int * int) = Runner.run ~jobs:1 ~execute spec store in
  (match Store.find store victim.Spec.id with
  | Some row ->
    check l
      (row_status row = Some "timeout" && row_error_kind row = Some "deadline")
      ~code:"timeout-row-missing"
      ~data:
        [ ("id", J.str victim.Spec.id);
          ("status", J.str (Option.value ~default:"?" (row_status row))) ]
      "a job stopped by its deadline must checkpoint as a status:\"timeout\" row"
  | None ->
    check l false ~code:"timeout-row-missing"
      ~data:[ ("id", J.str victim.Spec.id) ]
      "the planted job settled no row at all");
  check l
    (Store.count store = List.length (Spec.jobs spec))
    ~code:"sweep-wedged"
    ~data:[ ("rows", J.int (Store.count store)) ]
    "the sweep must complete around the timed-out job";
  Store.close store;
  finish l ~name:"chaos-deadline"
    ~claim:
      "a planted never-terminating job is stopped by the cooperative wall-clock \
       deadline within tolerance and surfaces as a timeout row, with the sweep \
       completing"
    ~notes:[ ("budget_s", J.float deadline_s) ]
    ()

(* --------------------------- chaos-retry --------------------------- *)

let retry_policy =
  { Runner.max_attempts = 4; backoff_s = 0.004; multiplier = 2.0; jitter = 0.25;
    retry_seed = 7 }

let retry_certificate ~seed ~negative_control =
  let l = ledger () in
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let spec = tiny_spec ~name:"chaos-retry" ~seed in
  let flaky = List.nth (Spec.jobs spec) 1 in
  let run_once name =
    let sleeps = ref [] in
    let store = Store.load ~path:(Filename.concat dir name) () in
    let execute spec (j : Spec.job) ~attempt =
      if j.Spec.id = flaky.Spec.id && attempt <= 2 then
        Runner.protect ~attempt j (fun () -> failwith "injected transient fault")
      else Runner.run_job ~attempt spec j
    in
    (* Sabotage: the retry policy is silently ignored. *)
    let retry = if negative_control then Runner.no_retry else retry_policy in
    let (_ : int * int) =
      Runner.run ~jobs:1 ~retry ~sleep:(fun d -> sleeps := d :: !sleeps) ~execute spec
        store
    in
    (store, List.rev !sleeps)
  in
  let store1, sleeps1 = run_once "retry-a.jsonl" in
  let store2, sleeps2 = run_once "retry-b.jsonl" in
  (match Store.find store1 flaky.Spec.id with
  | Some row ->
    check l
      (row_status row = Some "ok" && row_attempts row = Some 3)
      ~code:"retry-not-honored"
      ~data:
        [ ("status", J.str (Option.value ~default:"?" (row_status row)));
          ("attempts", J.int (Option.value ~default:0 (row_attempts row))) ]
      "a transient double fault must succeed on the third attempt and record it"
  | None ->
    check l false ~code:"retry-not-honored"
      ~data:[ ("id", J.str flaky.Spec.id) ]
      "the flaky job was never checkpointed to the main store");
  let expected_sleeps =
    match Runner.backoff_schedule retry_policy ~job_id:flaky.Spec.id with
    | d1 :: d2 :: _ -> [ d1; d2 ]
    | short -> short
  in
  check l (sleeps1 = expected_sleeps) ~code:"schedule-mismatch"
    ~data:
      [ ("slept", J.arr (List.map J.float sleeps1));
        ("expected", J.arr (List.map J.float expected_sleeps)) ]
    "the observed backoff sleeps must equal the job's seeded schedule";
  check l
    (sleeps1 = sleeps2 && Store.find store1 flaky.Spec.id = Store.find store2 flaky.Spec.id)
    ~code:"retry-nondeterministic" ~data:[]
    "two identical flaky sweeps must retry on identical schedules to identical rows";
  check l
    (not (Sys.file_exists (Runner.quarantine_path store1)))
    ~code:"spurious-quarantine" ~data:[]
    "a job that eventually succeeds must not be quarantined";
  Store.close store1;
  Store.close store2;
  finish l ~name:"chaos-retry"
    ~claim:
      "transient faults are retried on a deterministic seeded backoff schedule; \
       same seed, same schedule, same rows"
    ()

(* ------------------------- chaos-quarantine ------------------------ *)

let quarantine_certificate ~seed ~negative_control =
  let l = ledger () in
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let spec = tiny_spec ~name:"chaos-quarantine" ~seed in
  let poison = List.hd (Spec.jobs spec) in
  let retry = { retry_policy with Runner.max_attempts = 2; backoff_s = 0.0; jitter = 0.0 } in
  let execute spec (j : Spec.job) ~attempt =
    if j.Spec.id = poison.Spec.id then
      Runner.protect ~attempt j (fun () -> failwith "injected permanent fault")
    else Runner.run_job ~attempt spec j
  in
  let store = Store.load ~path:(Filename.concat dir "quarantine.jsonl") () in
  let total = List.length (Spec.jobs spec) in
  let executed, failures = Runner.run ~jobs:1 ~retry ~sleep:(fun _ -> ()) ~execute spec store in
  check l
    (executed = total && failures = 1)
    ~code:"sweep-wedged"
    ~data:[ ("executed", J.int executed); ("failed", J.int failures) ]
    "the sweep must complete with the poison job counted as its one failure";
  check l
    (Store.count store = total - 1 && not (Store.mem store poison.Spec.id))
    ~code:"poison-in-main"
    ~data:[ ("rows", J.int (Store.count store)) ]
    "a job failing every attempt must not be checkpointed to the main store";
  if negative_control then begin
    (* Sabotage: the poison row vanishes entirely. *)
    try Sys.remove (Runner.quarantine_path store) with Sys_error _ -> ()
  end;
  (match
     if Sys.file_exists (Runner.quarantine_path store) then
       Store.find (Store.load ~lock:false ~path:(Runner.quarantine_path store) ()) poison.Spec.id
     else None
   with
  | Some row ->
    check l
      (row_status row = Some "failed" && row_attempts row = Some 2)
      ~code:"quarantine-row-wrong"
      ~data:
        [ ("status", J.str (Option.value ~default:"?" (row_status row)));
          ("attempts", J.int (Option.value ~default:0 (row_attempts row))) ]
      "the quarantined row must record the final failed attempt"
  | None ->
    check l false ~code:"quarantine-row-lost"
      ~data:[ ("id", J.str poison.Spec.id) ]
      "the poison job's final row must survive in the quarantine sibling");
  (* A resume treats quarantined jobs as settled. *)
  let resumed, _ = Runner.run ~jobs:1 ~retry ~sleep:(fun _ -> ()) ~execute spec store in
  check l (resumed = 0) ~code:"quarantine-not-settled"
    ~data:[ ("re_executed", J.int resumed) ]
    "a resume must not re-execute quarantined jobs";
  let report = Runner.report spec store in
  let report_int name =
    match Hjson.parse report with
    | Ok v -> Option.value ~default:(-1) (Option.bind (Hjson.member name v) Hjson.to_int_opt)
    | Error _ -> -1
  in
  check l
    (report_int "quarantined" = 1 && report_int "missing" = 0)
    ~data:
      [ ("quarantined", J.int (report_int "quarantined"));
        ("missing", J.int (report_int "missing")) ]
    ~code:"report-miscounts"
    "the report must count the poison job as quarantined, not missing";
  (* Degradation: the poisoned series has one size left — no slope to
     fit — so a gate on it must come back Inconclusive, never Pass. *)
  let degraded = Runner.degraded_series spec store in
  let poison_series = Spec.algo_name poison.Spec.algo in
  check l
    (List.mem poison_series degraded)
    ~code:"degradation-unmarked"
    ~data:[ ("degraded", J.arr (List.map J.str degraded)) ]
    "a series with too few ok rows must be marked degraded";
  let verdict =
    Fit.evaluate ~degraded
      [ { Spec.series = poison_series; expected = 1.0; tol = 100.0; min_r2 = 0.0 } ]
      ~series:(Runner.series_points spec store)
  in
  check l
    (verdict.Fit.status = Fit.Inconclusive && Fit.exit_code verdict = 3)
    ~code:"spurious-verdict"
    ~data:[ ("status", J.str (Fit.status_name verdict.Fit.status)) ]
    "gates over a degraded series must be Inconclusive (exit 3), not a verdict";
  Store.close store;
  finish l ~name:"chaos-quarantine"
    ~claim:
      "a job failing K attempts is quarantined to the sibling store; the sweep \
       completes, reports count it, and gates over the degraded series are \
       Inconclusive"
    ~notes:[ ("max_attempts", J.int retry.Runner.max_attempts) ]
    ()

(* ------------------------------ entry ------------------------------ *)

let certify ?(seed = 11) ?(deadline_s = 0.05) ?(negative_control = false) () =
  [
    resume_certificate ~seed ~negative_control;
    deadline_certificate ~seed ~deadline_s ~negative_control;
    retry_certificate ~seed ~negative_control;
    quarantine_certificate ~seed ~negative_control;
  ]

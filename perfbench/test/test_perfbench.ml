(* Smoke sizes of both workloads, untraced and traced, checked
   against the metric schema BENCHMARK.json declares; the negative
   control (every output tampered) must count as failed; the
   thm11-ring48 layers' self times must add up to the traced op wall.

   argv: the qcongest executable, then BENCHMARK.json. *)

module P = Perfbench
module H = Harness.Hjson

let failures = ref 0

let check what cond =
  if cond then Printf.printf "ok   %s\n%!" what
  else begin
    Printf.printf "FAIL %s\n%!" what;
    incr failures
  end

let field path v =
  List.fold_left (fun acc name -> Option.bind acc (H.member name)) (Some v) path

let str v = Option.bind v H.to_string_opt
let num v = Option.bind v H.to_float_opt

(* (name, unit) of a metric list in BENCHMARK.json. *)
let declared bench key =
  match field [ key ] bench with
  | Some (H.Arr ms) ->
    List.filter_map
      (fun m ->
        match (str (H.member "name" m), str (H.member "unit" m)) with
        | Some n, Some u -> Some (n, u)
        | _ -> None)
      ms
  | _ -> []

let out_dir = "_perfbench_test"

let config ~exe workload ~trace ~tamper =
  {
    P.Common.workload;
    seed = 7;
    seconds = 0.5;
    trace;
    smoke = true;
    tamper;
    qcongest = exe;
    out_dir;
  }

(* The result line has exactly the contract's keys, and every metric
   of [schema] prints by name with its unit and a finite value. *)
let line_matches schema line =
  match H.parse line with
  | Error _ -> false
  | Ok (H.Obj kvs as v) -> (
    List.map fst kvs = [ "correct"; "attempted"; "failed"; "metrics" ]
    &&
    match field [ "metrics" ] v with
    | Some (H.Obj ms) ->
      List.map fst ms = List.map fst schema
      && List.for_all
           (fun (name, unit) ->
             str (field [ "metrics"; name; "unit" ] v) = Some unit
             && match num (field [ "metrics"; name; "value" ] v) with
                | Some x -> Float.is_finite x
                | None -> false)
           schema
    | _ -> false)
  | Ok _ -> false

let ok_share (o : P.Common.outcome) =
  List.assoc "ok_share" (List.map (fun (n, v, _) -> (n, v)) (P.Report.metrics ~trace:false o))

let () =
  let exe = Sys.argv.(1) in
  (* The runs log to stderr, and the daemons they start inherit it. *)
  Telemetry.Export.mkdir_p out_dir;
  let log =
    Unix.openfile (Filename.concat out_dir "test.log") Unix.[ O_WRONLY; O_CREAT; O_TRUNC ] 0o644
  in
  Unix.dup2 log Unix.stderr;
  Unix.close log;
  let bench = H.parse_exn (In_channel.with_open_bin Sys.argv.(2) In_channel.input_all) in
  check "BENCHMARK.json end_to_end = Report.end_to_end"
    (declared bench "end_to_end" = P.Report.end_to_end);
  check "BENCHMARK.json per_layer = Report.per_layer"
    (declared bench "per_layer" = P.Report.per_layer);
  check "BENCHMARK.json workloads = Bench.workloads"
    (match field [ "workloads" ] bench with
    | Some (H.Arr ws) ->
      List.filter_map (fun w -> str (H.member "name" w)) ws = List.map fst P.Bench.workloads
    | _ -> false);
  List.iter
    (fun (w, _) ->
      let o, _, line = P.Bench.run (config ~exe w ~trace:false ~tamper:false) in
      check (w ^ ": untraced run is correct") (P.Report.correct o && o.P.Common.attempted > 0);
      check (w ^ ": every end-to-end metric prints with its unit")
        (line_matches P.Report.end_to_end line);
      check (w ^ ": ok_share = 1") (ok_share o = 1.0);
      let o, rec_, line = P.Bench.run (config ~exe w ~trace:true ~tamper:false) in
      check (w ^ ": traced run is correct") (P.Report.correct o);
      check (w ^ ": every per-layer metric prints with its unit")
        (line_matches P.Report.per_layer line);
      if w = "thm11-ring48" then begin
        (* A timing comparison: other tests share the cores, so a fresh
           traced run gets two more tries. *)
        let rec attempt k rec_ =
          let parts = P.W_thm11.self_times rec_ in
          let total = P.Common.sum (List.map (fun (l, d, _) -> l +. d) parts) in
          let wall = P.Common.sum (List.map (fun (_, _, wl) -> wl) parts) in
          if (parts <> [] && Float.abs (total -. wall) <= 0.1 *. wall) || k = 3 then (total, wall)
          else
            let _, rec_, _ = P.Bench.run (config ~exe w ~trace:true ~tamper:false) in
            attempt (k + 1) rec_
        in
        let total, wall = attempt 1 rec_ in
        check
          (Printf.sprintf "thm11-ring48: layer self times %.4f s within a tenth of op wall %.4f s"
             total wall)
          (Float.abs (total -. wall) <= 0.1 *. wall)
      end;
      let o, _, _ = P.Bench.run (config ~exe w ~trace:false ~tamper:true) in
      check (w ^ ": negative control: tampered outputs count as failed")
        ((not (P.Report.correct o)) && o.P.Common.failed > 0 && ok_share o < 1.0))
    P.Bench.workloads;
  (* Same-input ops that disagree by one word break the run. *)
  let broken = ref [] and w = P.Common.witness () in
  P.Common.expect w broken ~input:"x" ~counter:"words" 100.0;
  P.Common.expect w broken ~input:"x" ~counter:"words" 100.0;
  check "same-input readings that agree pass" (!broken = []);
  P.Common.expect w broken ~input:"x" ~counter:"words" 101.0;
  check "a one-word disagreement is reported" (List.length !broken = 1);
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end

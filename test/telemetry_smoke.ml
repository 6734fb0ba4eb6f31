(* Telemetry smoke test: drive a multi-phase run with a sink attached,
   export every artifact format, and self-validate — replay must
   reconstruct the trace, the Chrome trace must be well-formed with
   balanced spans, and the JSONL/CSV files must land on disk. Runs as
   part of `dune runtest` and standalone via the `telemetry-smoke`
   alias (artifacts under ARTIFACTS_DIR, default bench_artifacts/);
   exits nonzero on the first failure. *)

module E = Telemetry.Events

let failures = ref 0

let check name ok =
  Printf.printf "%-46s %s\n" name (if ok then "ok" else "FAIL");
  if not ok then incr failures

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let count_substring s sub =
  let c = ref 0 in
  for i = 0 to String.length s - String.length sub do
    if String.sub s i (String.length sub) = sub then incr c
  done;
  !c

let read_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let scenario ~tag ~faults =
  let g =
    Graphlib.Gen.gnp_connected ~n:20 ~p:0.2
      ~weighting:(Graphlib.Gen.Uniform { max_w = 4 })
      ~rng:(Util.Rng.create ~seed:7)
  in
  let sink, drain = E.collector () in
  let runner = Congest.Runner.create ~sink () in
  let config = { Congest.Engine.default_config with faults; sink = Some sink } in
  let tree =
    Congest.Runner.time_phase runner "bfs-tree" (fun () ->
        Congest.Tree.build ~config g ~root:0)
  in
  let _ =
    Congest.Runner.time_phase runner "degree-convergecast" (fun () ->
        Congest.Tree.convergecast ~config g tree
          ~values:(Array.init 20 (Graphlib.Wgraph.degree g))
          ~combine:( + ) ~size_words:(fun _ -> 1))
  in
  let events = drain () in
  let total = Congest.Runner.total runner in

  check (tag ^ ": replay reconstructs the trace")
    (Congest.Replay.trace_of_events events = total);

  let dir = Telemetry.Export.artifacts_dir () in
  let path name = Filename.concat dir ("telemetry_smoke." ^ tag ^ "." ^ name) in
  Telemetry.Export.write_events_jsonl ~path:(path "events.jsonl") events;
  Telemetry.Export.write_chrome_trace ~process_name:("telemetry-smoke:" ^ tag)
    ~path:(path "chrome.json") events;
  Telemetry.Export.write_file ~path:(path "timeline.csv")
    (Telemetry.Export.timeline_csv events);
  Telemetry.Export.write_file ~path:(path "heatmap.csv") (Telemetry.Export.heatmap_csv events);
  let metrics = Telemetry.Metrics.create () in
  Congest.Runner.export_metrics runner metrics;
  Telemetry.Export.write_file ~path:(path "metrics.json")
    (Telemetry.Metrics.to_json (Telemetry.Metrics.snapshot metrics));

  let chrome = read_file (path "chrome.json") in
  check (tag ^ ": chrome trace has traceEvents") (contains chrome "\"traceEvents\":[");
  check (tag ^ ": chrome spans balanced")
    (let b = count_substring chrome "\"ph\":\"B\"" in
     b = 2 && b = count_substring chrome "\"ph\":\"E\"");
  check (tag ^ ": jsonl line per event")
    (count_substring (read_file (path "events.jsonl")) "\n" = List.length events);
  check (tag ^ ": timeline csv has rounds")
    (count_substring (read_file (path "timeline.csv")) "\n" > 1);
  check (tag ^ ": metrics carry the round total")
    (contains (read_file (path "metrics.json"))
       (Printf.sprintf "\"congest.rounds\":{\"type\":\"counter\",\"value\":%d}"
          total.Congest.Engine.rounds));
  Printf.printf "%-46s rounds=%d messages=%d events=%d\n" (tag ^ ": totals")
    total.Congest.Engine.rounds total.Congest.Engine.messages (List.length events)

let () =
  scenario ~tag:"fault-free" ~faults:None;
  scenario ~tag:"faulty" ~faults:(Some (Congest.Fault.make ~seed:42 ~drop:0.1 ~delay:2 ~duplicate:0.05 ()));
  if !failures > 0 then begin
    Printf.eprintf "telemetry-smoke: %d failure(s)\n" !failures;
    exit 1
  end;
  print_endline "telemetry-smoke: all artifacts written and self-validated"

(* One run of one workload: dispatch, write the trace, print the
   result line. *)

let workloads =
  [
    ("thm11-ring48", W_thm11.run);
    ("serve-mixed", W_serve.run);
  ]

let write_trace (cfg : Common.config) rec_ =
  Telemetry.Export.mkdir_p cfg.Common.out_dir;
  let path =
    Filename.concat cfg.Common.out_dir
      (Printf.sprintf "trace-%s-%d.json" cfg.Common.workload cfg.Common.seed)
  in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (Span.to_json rec_));
  Common.log "wrote %s" path

(* The outcome, the run's spans and its result line. *)
let run (cfg : Common.config) =
  match List.assoc_opt cfg.Common.workload workloads with
  | None -> invalid_arg ("unknown workload " ^ cfg.Common.workload)
  | Some run ->
    let outcome, rec_ = run cfg in
    Common.log "%s: %d ops, op wall p50 %.4f s, reference kernel %.4f s, op walls (s): %s"
      cfg.Common.workload outcome.Common.attempted
      (Common.median outcome.Common.op_walls)
      outcome.Common.ref_s
      (String.concat " "
         (List.map (Printf.sprintf "%.3f")
            (List.filteri (fun i _ -> i < 40) outcome.Common.op_walls)));
    if cfg.Common.trace then write_trace cfg rec_;
    List.iter (fun b -> Common.log "BROKEN: %s" b) outcome.Common.broken;
    (outcome, rec_, Report.result_line ~trace:cfg.Common.trace outcome)

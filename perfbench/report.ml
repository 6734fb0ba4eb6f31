(* The metrics BENCHMARK.json declares, and the one JSON line a run
   prints last. Op timings are in refs: host seconds over the time of
   the [Refspeed] kernel, measured on the same host next to the ops.
   The raw seconds are the host.* layers and go to the log. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("op_p50_ref", "ref");
    ("op_p90_ref", "ref");
    ("ops_per_ref", "1/ref");
    ("alloc_words_per_op", "words");
    ("peak_rss_mb", "MB");
    ("ok_share", "share");
  ]

let per_layer =
  [
    ("graph.gen_s", "s");
    ("graph.gen_minor_words", "words");
    ("graph.apsp_s", "s");
    ("congest.tree_build_s", "s");
    ("congest.msgs_per_s", "1/s");
    ("congest.minor_words_per_msg", "words/msg");
    ("congest.promoted_words_per_msg", "words/msg");
    ("congest.major_gcs_per_op", "count");
    ("core.eval_centralized_s", "s");
    ("core.prepare_s", "s");
    ("core.prepare_minor_words", "words");
    ("core.touched_ratio", "share");
    ("core.inner_search_s", "s");
    ("dqo.search_self_s", "s");
    ("dqo.outer_iterations", "count");
    ("dqo.outer_measurements", "count");
    ("dqo.inner_iterations", "count");
    ("sim.rounds_per_op", "rounds");
    ("serve.ack_p50_s", "s");
    ("serve.run_p50_s", "s");
    ("serve.recheck_p50_s", "s");
    ("serve.wait_s_per_op", "s");
    ("serve.daemon_cpu_s_per_op", "s");
    ("serve.cache.oracle.hit_ratio", "share");
    ("serve.cache.instance.hit_ratio", "share");
    ("serve.requests_rejected", "count");
    ("trace.overhead_s", "s");
    ("host.ref_s", "s");
    ("host.op_p50_wall_s", "s");
  ]

let correct (o : Common.outcome) = o.Common.failed = 0 && o.Common.broken = []

(* (name, value, unit) for every metric of the run's mode. A layer the
   workload does not exercise reads 0 (README.md lists which workload
   feeds which layer). *)
let metrics ~trace (o : Common.outcome) =
  let open Common in
  if trace then
    let layers =
      ("host.ref_s", o.ref_s) :: ("host.op_p50_wall_s", median o.op_walls) :: o.layers
    in
    List.map
      (fun (name, unit) -> (name, Option.value ~default:0.0 (List.assoc_opt name layers), unit))
      per_layer
  else
    let value = function
      | "setup_s" -> o.setup_s
      | "op_p50_ref" -> median o.op_refs
      | "op_p90_ref" -> percentile 90.0 o.op_refs
      | "ops_per_ref" -> o.ops_per_ref
      | "alloc_words_per_op" -> o.alloc_words_per_op
      | "peak_rss_mb" -> o.peak_rss_mb
      | "ok_share" -> ratio (float_of_int (o.attempted - o.failed)) (float_of_int o.attempted)
      | other -> invalid_arg other
    in
    List.map (fun (name, unit) -> (name, value name, unit)) end_to_end

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

(* A metric that is not a finite number fails the run. *)
let result_line ~trace (o : Common.outcome) =
  let module J = Telemetry.Tjson in
  let ms = metrics ~trace o in
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) ms in
  J.obj
    [
      ("correct", J.bool (correct o && finite));
      ("attempted", J.int o.Common.attempted);
      ("failed", J.int o.Common.failed);
      ( "metrics",
        J.obj
          (List.map
             (fun (name, v, unit) -> (name, J.obj [ ("value", number v); ("unit", J.str unit) ]))
             ms) );
    ]

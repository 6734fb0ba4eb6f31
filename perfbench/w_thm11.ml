(* thm11-ring48: [Core.Algorithm.run … Diameter] with the default
   config on rings of 6 cliques of 8 (n = 48, m = 174, W = 16) — the
   paper's algorithm end to end. The instances are a fixed list of
   (graph seed, algorithm seed) pairs. A run covers the whole list in
   passes, in an order the workload seed rotates, until the window
   closes after a whole pass; so every instance weighs the same in
   every run, the allocation per op is exact, and each instance's
   repeats check one another to the word. *)

open Common
module A = Core.Algorithm

let shape cfg = if cfg.smoke then (3, 6) else (6, 8)
let max_w = 16

(* Twenty instances make a pass of about 5 s; smoke instances take
   milliseconds. *)
let list_length cfg = if cfg.smoke then 4 else 20

(* Instance [j] (0-based) is graph seed j+1 with algorithm seed j+1;
   a pass starts at instance [seed mod length]. *)
let instance_seeds cfg =
  let k = list_length cfg in
  let first = ((cfg.seed mod k) + k) mod k in
  List.init k (fun i ->
      let j = (first + i) mod k in
      (j, (j + 1, j + 1)))

(* Graph generation, from the [graph.gen] spans. *)
let gen_layers rec_ =
  let gens = Span.named rec_ "graph.gen" in
  [
    ("graph.gen_s", median (List.map Span.wall gens));
    ("graph.gen_minor_words", median (List.map (fun s -> s.Span.minor_words) gens));
  ]

(* The engine, from the [congest.tree_build] spans; [msgs] is what one
   build sends. *)
let congest_layers rec_ ~msgs =
  let builds = Span.named rec_ "congest.tree_build" in
  let build_s = median (List.map Span.wall builds) in
  let per_msg f = ratio (mean (List.map f builds)) msgs in
  [
    ("congest.tree_build_s", build_s);
    ("congest.msgs_per_s", ratio msgs build_s);
    ("congest.minor_words_per_msg", per_msg (fun s -> s.Span.minor_words));
    ("congest.promoted_words_per_msg", per_msg (fun s -> s.Span.promoted_words));
    ("congest.major_gcs_per_op", mean (List.map (fun s -> float_of_int s.Span.major_gcs) builds));
  ]

(* Tracing overhead: the median, over (untraced, traced) walls of the
   same input run back to back, of the difference. *)
let overhead pairs = median (List.map (fun (u, t) -> t -. u) pairs)

(* Run [setup] again and again for [seconds] and keep the last value;
   the set-up time is the mean rep. A set-up takes about a millisecond,
   and the host flips between a fast and a slow state every few tens of
   milliseconds, so single reps, and their median, read bimodal from
   run to run. The reps let the GC run as it would: a full collection
   before each rep grew the major heap to 50 MB, four times what the
   ops need, and that showed in [peak_rss_mb]. *)
let repeated_setup ~seconds setup =
  let t0 = now () in
  let rec go reps =
    let v = setup () in
    let t = now () in
    if t >= t0 +. seconds then (v, (t -. t0) /. float_of_int reps) else go (reps + 1)
  in
  go 1

let gen cfg gseed =
  let cliques, clique_size = shape cfg in
  Graphlib.Gen.cliques_cycle ~cliques ~clique_size
    ~weighting:(Graphlib.Gen.Uniform { max_w })
    ~rng:(Util.Rng.create ~seed:gseed)

(* The estimate brackets the recomputed weighted diameter:
   exact <= estimate <= (1+eps)^2 * exact. *)
let result_ok ~exact (r : A.result) =
  let ex = float_of_int exact in
  let ub = ((1.0 +. r.A.params.Core.Params.eps) ** 2.0) *. ex in
  r.A.within_guarantee && r.A.exact = exact
  && r.A.estimate >= ex -. 1e-6
  && r.A.estimate <= ub +. 1e-6

(* Replay the op's layers through their public entry points, each in
   its own span: the BFS tree, the sampled sets (same seed), the
   centralized values of every set, the real pipeline and inner search
   of every touched set, and the ground truth. Returns the tree's
   message count. *)
let replay rec_ ~op g ~aseed (r : A.result) =
  let config = A.default_config in
  let span name f = Span.with_span rec_ ~op name f in
  let tree, trace =
    span "congest.tree_build" (fun () -> Congest.Tree.build g ~root:config.A.leader)
  in
  let n = Graphlib.Wgraph.n g in
  let params, sets, rng =
    span "core.sets_sample" (fun () ->
        let d_hat = max 1 (2 * tree.Congest.Tree.depth) in
        let params =
          Core.Params.of_graph_params ?eps_override:config.A.eps_override
            ?num_sets:config.A.num_sets ~n ~d_hat ()
        in
        let rng = Util.Rng.create ~seed:aseed in
        let sets = Core.Sets.sample ~rng ~n ~params in
        (params, sets.Core.Sets.sets, rng))
  in
  let rw = Core.Params.reweight_params params in
  let k = params.Core.Params.k in
  Array.iter
    (fun s ->
      span "core.eval_centralized" (fun () ->
          ignore (Core.Inner.eval_centralized g ~params:rw ~k ~objective:Core.Inner.Maximize ~s)))
    sets;
  let ctx = { Nanongkai.Approx.g; tree; params = rw; k; rng = Util.Rng.split rng } in
  List.iter
    (fun i ->
      match span "core.prepare" (fun () -> Core.Inner.prepare ~ctx ~s:sets.(i)) with
      | None -> ()
      | Some prep ->
        span "core.inner_search" (fun () ->
            ignore
              (Core.Inner.search prep ~objective:Core.Inner.Maximize
                 ~delta:(config.A.delta /. 2.0) ~c:config.A.c ~rng:ctx.Nanongkai.Approx.rng)))
    r.A.touched_sets;
  span "graph.apsp" (fun () ->
      ignore (Graphlib.Apsp.weighted_diameter g);
      ignore (Graphlib.Apsp.eccentricities g);
      ignore (Graphlib.Bfs.diameter (Graphlib.Wgraph.with_unit_weights g)));
  trace.Congest.Engine.messages

(* Per traced op: (the replayed layers' self times, the dqo search's
   self time, the op wall). The search's self time is the op wall
   minus every replayed layer, so the parts only overshoot the wall
   when the replay cost more than the op itself. *)
let self_times rec_ =
  let all = Span.spans rec_ in
  List.filter_map
    (fun (o : Span.t) ->
      if o.Span.name <> "thm11.op" then None
      else
        let layers =
          sum
            (List.filter_map
               (fun (s : Span.t) ->
                 if s.Span.op = o.Span.op && s.Span.id <> o.Span.id then Some (Span.self_time all s)
                 else None)
               all)
        in
        let wall = Span.wall o in
        Some (layers, Float.max 0.0 (wall -. layers), wall))
    all

(* Per-layer metrics of a traced run, per op unless named otherwise.
   [traced] holds (untraced wall, traced wall, tree messages, result)
   per instance. *)
let layers rec_ traced =
  let results = List.filter_map (function _, _, _, Ok r -> Some r | _ -> None) traced in
  let per_op name f = (name, mean (List.map f results)) in
  let spans = Span.spans rec_ in
  let ops = float_of_int (List.length traced) in
  let total f name =
    ratio
      (sum (List.filter_map (fun s -> if s.Span.name = name then Some (f s) else None) spans))
      ops
  in
  let msgs = mean (List.map (fun (_, _, m, _) -> float_of_int m) traced) in
  let sets =
    match results with r :: _ -> float_of_int r.A.params.Core.Params.num_sets | [] -> 0.0
  in
  gen_layers rec_
  @ congest_layers rec_ ~msgs
  @ [
    ("graph.apsp_s", total Span.wall "graph.apsp");
    ("core.eval_centralized_s", total Span.wall "core.eval_centralized");
    ("core.prepare_s", total Span.wall "core.prepare");
    ("core.prepare_minor_words", total (fun s -> s.Span.minor_words) "core.prepare");
    per_op "core.touched_ratio" (fun r -> ratio (float_of_int (List.length r.A.touched_sets)) sets);
    ("core.inner_search_s", total Span.wall "core.inner_search");
    ("dqo.search_self_s", mean (List.map (fun (_, dqo, _) -> dqo) (self_times rec_)));
    per_op "dqo.outer_iterations" (fun r -> float_of_int r.A.outer_iterations);
    per_op "dqo.outer_measurements" (fun r -> float_of_int r.A.outer_measurements);
    per_op "dqo.inner_iterations" (fun r -> float_of_int r.A.inner_iterations_total);
    per_op "sim.rounds_per_op" (fun r -> float_of_int r.A.rounds);
    ("trace.overhead_s", overhead (List.map (fun (u, t, _, _) -> (u, t)) traced));
  ]

let run cfg =
  let seeds = instance_seeds cfg in
  let rec_ = Span.create () in
  let gen_all () = List.map (fun (_, (gseed, _)) -> gen cfg gseed) seeds in
  let graphs, setup_s = repeated_setup ~seconds:(if cfg.smoke then 0.05 else 2.0) gen_all in
  (* The traced run's [graph.gen] spans come from one more pass. *)
  if cfg.trace then
    List.iter
      (fun (_, (gseed, _)) ->
        ignore (Span.with_span rec_ ~op:(-1) "graph.gen" (fun () -> gen cfg gseed)))
      seeds;
  (* Each instance with its exact weighted diameter, for the checks. *)
  let insts =
    List.map2
      (fun g (j, (_, aseed)) ->
        (j, g, aseed, Graphlib.Dist.to_int_exn (Graphlib.Apsp.weighted_diameter g)))
      graphs seeds
  in
  let broken = ref [] and w = witness () in
  let failed = ref 0 and attempted = ref 0 in
  (* [id] names the op in its spans; [j] is its instance. *)
  let op ?(anchor = true) ~traced id (j, g, aseed, exact) =
    let go () = A.run g A.Diameter ~rng:(Util.Rng.create ~seed:aseed) in
    Gc.full_major ();
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let result =
      try Ok (if traced then Span.with_span rec_ ~op:id "thm11.op" go else go ())
      with e -> Error e
    in
    let wall = now () -. t0 in
    let words = Gc.minor_words () -. w0 in
    incr attempted;
    (match result with
    | Error e ->
      log "thm11-ring48 instance %d raised %s" j (Printexc.to_string e);
      incr failed
    | Ok r ->
      let r = if cfg.tamper then { r with A.estimate = r.A.estimate *. 10.0 } else r in
      if not (result_ok ~exact r) then incr failed;
      let input = Printf.sprintf "instance %d" j in
      let same counter v = if anchor then expect w broken ~input ~counter v in
      (* A span allocates a few words inside the op it wraps. *)
      same (if traced then "minor_words (traced)" else "minor_words") words;
      same "rounds" (float_of_int r.A.rounds);
      same "outer_iterations" (float_of_int r.A.outer_iterations);
      same "outer_measurements" (float_of_int r.A.outer_measurements);
      same "inner_iterations" (float_of_int r.A.inner_iterations_total);
      same "touched" (float_of_int (List.length r.A.touched_sets)));
    (wall, words, result)
  in
  (* Warm-up, excluded from every metric: the first instance twice. The
     first call of a process allocates for one-time initialisation; the
     second anchors the instance's same-input check. *)
  ignore (op ~anchor:false ~traced:false (-1) (List.hd insts));
  ignore (op ~traced:false (-1) (List.hd insts));
  attempted := 0;
  failed := 0;
  (* Whole passes over the list until the window closes, each after a
     reading of the reference kernel. [step] runs one instance and
     returns what the run keeps of it; each is paired with its pass's
     reading. *)
  let passes step =
    let deadline = now () +. cfg.seconds in
    let next = ref 0 in
    let rec go acc =
      if now () >= deadline && acc <> [] then List.concat (List.rev acc)
      else
        let ref_s = Refspeed.measure () in
        go
          (List.map
             (fun i ->
               incr next;
               (step !next i, ref_s))
             insts
          :: acc)
    in
    go []
  in
  let walls, words, layers =
    if not cfg.trace then
      let ops = passes (fun id i -> op ~traced:false id i) in
      ( List.map (fun ((wall, _, _), r) -> (wall, r)) ops,
        List.map (fun ((_, w, _), _) -> w) ops,
        [] )
    else
      (* Traced run: each instance runs untraced, then traced and
         replayed layer by layer. *)
      let traced =
        passes (fun id ((_, g, aseed, _) as i) ->
            let untraced, _, _ = op ~traced:false (-1) i in
            let wall, _, result = op ~traced:true id i in
            (* The replay, like every op, starts from a collected heap. *)
            Gc.full_major ();
            let msgs = match result with Ok r -> replay rec_ ~op:id g ~aseed r | Error _ -> 0 in
            (untraced, wall, msgs, result))
      in
      (List.map (fun ((u, _, _, _), r) -> (u, r)) traced, [], layers rec_ (List.map fst traced))
  in
  let op_refs = List.map (fun (wall, r) -> wall /. r) walls in
  ( {
      setup_s;
      op_walls = List.map fst walls;
      op_refs;
      ops_per_ref = ratio (float_of_int (List.length op_refs)) (sum op_refs);
      ref_s = median (List.map snd walls);
      attempted = !attempted;
      failed = !failed;
      alloc_words_per_op = mean words;
      peak_rss_mb = Sysinfo.peak_rss_mb ();
      broken = !broken;
      layers;
    },
    rec_ )

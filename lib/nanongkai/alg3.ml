type msg = { j : int; scale : int; dist : int }

type output = {
  dtilde : float array array;
  delays : int array;
  stretch : int;
  delay_trace : Congest.Engine.trace;
  concurrent_trace : Congest.Engine.trace;
  charged_rounds : int;
  congestion_ok : bool;
}

let concurrent_protocol ~sources ~delays ~params :
    (Bh_instance.state array, msg) Congest.Engine.protocol =
  let b = Array.length sources in
  let cfg view j =
    Bh_instance.make_cfg ~params ~n:view.Congest.Node_view.n ~max_w:view.Congest.Node_view.max_w
      ~offset:(delays.(j) + 1)
      ~is_source:(view.Congest.Node_view.id = sources.(j))
  in
  (* Offsets start at round 1 so that even Δ=0 instances have a
     strictly-future wake to request at init. *)
  let decide_all view insts ~round =
    let sends = ref [] and wakes = ref [] in
    let insts =
      Array.mapi
        (fun j inst ->
          let inst, effect = Bh_instance.decide (cfg view j) inst ~round in
          (match effect.Bh_instance.broadcast with
          | Some (scale, dist) ->
            let msg = { j; scale; dist } in
            Congest.Node_view.iter view (fun v _ -> sends := (v, msg) :: !sends)
          | None -> ());
          (match effect.Bh_instance.wake with Some r -> wakes := r :: !wakes | None -> ());
          inst)
        insts
    in
    (insts, Congest.Engine.act ~sends:!sends ~wakes:(List.sort_uniq compare !wakes) ())
  in
  {
    name = "alg3-multi-source";
    size_words = (fun _ -> 1);
    init =
      (fun view ->
        let insts = Array.init b (fun j -> Bh_instance.init (cfg view j)) in
        let source_wakes =
          List.concat (List.init b (fun j -> Bh_instance.initial_wakes (cfg view j)))
        in
        (* Every instance starts at offset >= 1, so no sends at init;
           sources just arm their phase-base wake-ups. *)
        (insts, Congest.Engine.act ~wakes:(List.sort_uniq compare source_wakes) ()));
    on_round =
      (fun view ~round insts ~inbox ->
        let insts = Array.copy insts in
        List.iter
          (fun { Congest.Engine.src = u; msg = { j; scale; dist } } ->
            match Congest.Node_view.edge_weight view u with
            | None -> ()
            | Some w ->
              let scaled_w = Graphlib.Reweight.scaled_weight params ~i:scale ~w in
              insts.(j) <- Bh_instance.on_message (cfg view j) insts.(j) ~round ~scale ~dist ~scaled_w)
          inbox;
        decide_all view insts ~round);
  }

let run ?delays_override g ~tree ~sources ~params ~rng =
  let b = Array.length sources in
  if b = 0 then invalid_arg "Alg3.run: no sources";
  let n = Graphlib.Wgraph.n g in
  let seen = Hashtbl.create b in
  Array.iter
    (fun s ->
      if s < 0 || s >= n then invalid_arg "Alg3.run: source out of range";
      if Hashtbl.mem seen s then invalid_arg "Alg3.run: duplicate source";
      Hashtbl.replace seen s ())
    sources;
  let lambda = max 1 (Util.Int_math.ilog2_ceil (max 2 n)) in
  (* Leader samples the delays and disseminates them down the tree. *)
  let delays =
    match delays_override with
    | Some d ->
      if Array.length d <> b then invalid_arg "Alg3.run: delays_override length";
      Array.copy d
    | None -> Array.init b (fun _ -> Util.Rng.int rng ((b * lambda) + 1))
  in
  let _, delay_trace =
    Congest.Tree.broadcast_tokens g tree
      ~tokens:(List.init b (fun j -> (j, delays.(j))))
      ~size_words:(fun _ -> 1)
  in
  let states, concurrent_trace =
    Congest.Engine.run ~config:{ Congest.Engine.default_config with bandwidth = lambda } g (concurrent_protocol ~sources ~delays ~params)
  in
  let max_w = Graphlib.Wgraph.max_weight g in
  let dtilde =
    Array.init b (fun j ->
        Array.init n (fun v ->
            let cfg =
              Bh_instance.make_cfg ~params ~n ~max_w ~offset:(delays.(j) + 1)
                ~is_source:(v = sources.(j))
            in
            Bh_instance.finalize cfg states.(v).(j)))
  in
  {
    dtilde;
    delays;
    stretch = lambda;
    delay_trace;
    concurrent_trace;
    charged_rounds =
      delay_trace.Congest.Engine.rounds + (concurrent_trace.Congest.Engine.rounds * lambda);
    congestion_ok = concurrent_trace.Congest.Engine.congestion_violations = 0;
  }

type msg = { scale : int; dist : int }

type state = { inst : Bh_instance.state; sent : int }

type output = {
  dtilde : float array;
  trace : Congest.Engine.trace;
  broadcasts_per_node : int array;
}

let protocol ~src ~params : (state, msg) Congest.Engine.protocol =
  let cfg view =
    Bh_instance.make_cfg ~params ~n:view.Congest.Node_view.n ~max_w:view.Congest.Node_view.max_w
      ~offset:0 ~is_source:(view.Congest.Node_view.id = src)
  in
  let apply_effect view (st, effect) =
    let sends =
      match effect.Bh_instance.broadcast with
      | None -> []
      | Some (scale, dist) -> Congest.Node_view.to_all view { scale; dist }
    in
    let wakes = match effect.Bh_instance.wake with None -> [] | Some r -> [ r ] in
    let sent = if sends = [] then 0 else 1 in
    ((st, sent), Congest.Engine.act ~sends ~wakes ())
  in
  {
    name = "alg1-bounded-hop-sssp";
    size_words = (fun _ -> 1);
    init =
      (fun view ->
        let c = cfg view in
        let inst = Bh_instance.init c in
        let wakes = Bh_instance.initial_wakes c in
        let (inst, sent), action = apply_effect view (Bh_instance.decide c inst ~round:0) in
        ({ inst; sent }, { action with Congest.Engine.wakes = wakes @ action.Congest.Engine.wakes }))
    ;
    on_round =
      (fun view ~round s ~inbox ->
        let c = cfg view in
        let inst =
          List.fold_left
            (fun inst { Congest.Engine.src = u; msg = { scale; dist } } ->
              match Congest.Node_view.edge_weight view u with
              | None -> inst
              | Some w ->
                let scaled_w = Graphlib.Reweight.scaled_weight params ~i:scale ~w in
                Bh_instance.on_message c inst ~round ~scale ~dist ~scaled_w)
            s.inst inbox
        in
        let (inst, sent), action = apply_effect view (Bh_instance.decide c inst ~round) in
        ({ inst; sent = s.sent + sent }, action));
  }

let run g ~src ~params =
  if src < 0 || src >= Graphlib.Wgraph.n g then invalid_arg "Alg1.run";
  let states, trace = Congest.Engine.run g (protocol ~src ~params) in
  let n = Graphlib.Wgraph.n g in
  let cfg id =
    Bh_instance.make_cfg ~params ~n ~max_w:(Graphlib.Wgraph.max_weight g) ~offset:0
      ~is_source:(id = src)
  in
  {
    dtilde = Array.mapi (fun id s -> Bh_instance.finalize (cfg id) s.inst) states;
    trace;
    broadcasts_per_node = Array.map (fun s -> s.sent) states;
  }

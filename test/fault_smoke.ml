(* Fast loss-sweep smoke test: reliable BFS-tree construction must
   reproduce the fault-free levels on every family at every drop rate.
   Runs as part of `dune runtest` and standalone via the `fault-smoke`
   alias; exits nonzero on the first mismatch. *)

let families =
  [
    ( "path16",
      fun () ->
        Graphlib.Gen.path ~n:16
          ~weighting:(Graphlib.Gen.Uniform { max_w = 4 })
          ~rng:(Util.Rng.create ~seed:3) );
    ( "gnp20",
      fun () ->
        Graphlib.Gen.gnp_connected ~n:20 ~p:0.2
          ~weighting:(Graphlib.Gen.Uniform { max_w = 4 })
          ~rng:(Util.Rng.create ~seed:4) );
    ( "cliques3x5",
      fun () ->
        Graphlib.Gen.cliques_cycle ~cliques:3 ~clique_size:5
          ~weighting:(Graphlib.Gen.Uniform { max_w = 4 })
          ~rng:(Util.Rng.create ~seed:5) );
  ]

let () =
  let failures = ref 0 in
  List.iter
    (fun (name, mk) ->
      let g = mk () in
      let base, _ = Congest.Tree.build g ~root:0 in
      List.iter
        (fun drop ->
          let faults = Congest.Fault.make ~seed:42 ~drop ~delay:1 () in
          let config = { Congest.Engine.default_config with faults = Some faults } in
          let tree, tr = Congest.Tree.build ~config g ~root:0 in
          let ok = tree.Congest.Tree.level = base.Congest.Tree.level in
          Printf.printf "%-12s drop=%.2f rounds=%-5d messages=%-5d dropped=%-4d levels %s\n"
            name drop tr.Congest.Engine.rounds tr.Congest.Engine.messages
            tr.Congest.Engine.dropped
            (if ok then "ok" else "MISMATCH");
          if not ok then incr failures)
        [ 0.0; 0.1; 0.3 ])
    families;
  if !failures > 0 then begin
    Printf.eprintf "fault-smoke: %d mismatch(es)\n" !failures;
    exit 1
  end;
  print_endline "fault-smoke: all sweeps reproduced the fault-free BFS levels"

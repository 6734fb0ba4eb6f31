(* perfbench/main.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload from the root of a checkout in which dune has built
   this executable and bin/qcongest_cli.exe (perfbench/run.py does both),
   and prints the result as the last line of stdout.
   Exit 0 on a correct run, 1 when an output failed its check or the run
   broke an invariant, 2 on a usage error. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload thm11-ring48|serve-mixed --seed N --seconds S \
     --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec pairs acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> pairs ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = pairs [] args in
  let get k = List.assoc_opt k opts in
  let int_of k = match Option.bind (get k) int_of_string_opt with Some v -> v | None -> usage () in
  let cfg =
    {
      Perfbench.Common.workload = (match get "--workload" with Some w -> w | None -> usage ());
      seed = int_of "--seed";
      seconds =
        (match Option.bind (get "--seconds") float_of_string_opt with
        | Some s when s > 0.0 -> s
        | _ -> usage ());
      trace = (match get "--trace" with Some "0" -> false | Some "1" -> true | _ -> usage ());
      smoke = false;
      tamper = false;
      qcongest = "_build/default/bin/qcongest_cli.exe";
      out_dir = "_perfbench";
    }
  in
  if not (List.mem_assoc cfg.Perfbench.Common.workload Perfbench.Bench.workloads) then usage ();
  let outcome, _, line = Perfbench.Bench.run cfg in
  print_endline line;
  exit (if Perfbench.Report.correct outcome then 0 else 1)

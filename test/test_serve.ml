(* Tests for lib/serve: the LRU and content-addressed caches (exact
   eviction order, capacity bounds, metric mirroring), the invariant
   that the memoized oracle and instance caches change cost but never
   certificates (byte-identity with the direct path), the total wire
   protocol, and the daemon end to end — concurrent clients against an
   in-process daemon, results bit-identical to the one-shot runner,
   graceful drain releasing every resource. *)

module Lru = Serve.Cache.Lru
module Spec = Harness.Spec

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* ------------------------------- Lru ------------------------------- *)

let test_lru_eviction_order () =
  let c = Lru.create ~name:"t" ~capacity:3 () in
  let get k = ignore (Lru.find_or_add c k (fun () -> k)) in
  get "a";
  get "b";
  get "c";
  (* Touch [a]: recency is now b < c < a. *)
  get "a";
  (* Inserting [d] must evict exactly the least recently used, [b]. *)
  get "d";
  check "capacity bound" 3 (Lru.length c);
  checkb "b evicted (LRU)" false (Lru.mem c "b");
  checkb "a retained (touched)" true (Lru.mem c "a");
  checkb "c retained" true (Lru.mem c "c");
  checkb "d resident" true (Lru.mem c "d");
  (* Re-inserting [b] evicts the next-oldest, [c]. *)
  get "b";
  checkb "c evicted next" false (Lru.mem c "c");
  checkb "a still resident" true (Lru.mem c "a");
  let s = Lru.stats c in
  check "misses count computes" 5 s.Lru.misses;
  check "hits count reuses" 1 s.Lru.hits;
  check "evictions counted" 2 s.Lru.evictions

let test_lru_capacity_bound () =
  let c = Lru.create ~name:"t" ~capacity:4 () in
  for i = 1 to 100 do
    ignore (Lru.find_or_add c (string_of_int i) (fun () -> i))
  done;
  check "length never exceeds capacity" 4 (Lru.length c);
  check "capacity echoed" 4 (Lru.capacity c);
  check "evictions = insertions - capacity" 96 (Lru.stats c).Lru.evictions;
  for i = 97 to 100 do
    checkb (Printf.sprintf "%d survives (most recent)" i) true (Lru.mem c (string_of_int i))
  done;
  (* A hit must return the cached value without re-running the thunk. *)
  let v = Lru.find_or_add c "100" (fun () -> Alcotest.fail "thunk ran on a hit") in
  check "cached value returned" 100 v

let test_lru_disabled_and_validation () =
  checkb "negative capacity rejected" true
    (match Lru.create ~name:"t" ~capacity:(-1) () with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let c = Lru.create ~name:"t" ~capacity:0 () in
  let runs = ref 0 in
  for _ = 1 to 3 do
    ignore
      (Lru.find_or_add c "k" (fun () ->
           incr runs;
           !runs))
  done;
  check "capacity 0 computes every time" 3 !runs;
  check "nothing resident" 0 (Lru.length c);
  check "all lookups are misses" 3 (Lru.stats c).Lru.misses

let test_lru_metrics_mirroring () =
  let m = Telemetry.Metrics.create () in
  let c = Lru.create ~metrics:m ~name:"oracle" ~capacity:1 () in
  ignore (Lru.find_or_add c "a" (fun () -> 0));
  ignore (Lru.find_or_add c "a" (fun () -> 1));
  ignore (Lru.find_or_add c "b" (fun () -> 2));
  let snap = Telemetry.Metrics.snapshot m in
  let counter name = Option.value ~default:(-1) (Telemetry.Metrics.counter_value snap name) in
  check "hits mirrored" 1 (counter "serve.cache.oracle.hits");
  check "misses mirrored" 2 (counter "serve.cache.oracle.misses");
  check "evictions mirrored" 1 (counter "serve.cache.oracle.evictions");
  (* And the Prometheus rendering CI greps for. *)
  let text = Telemetry.Export.prometheus snap in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  checkb "prometheus series present" true (contains text "qcongest_serve_cache_oracle_hits 1")

(* --------------------------- Content keys --------------------------- *)

let e2e_spec =
  Spec.make ~name:"serve-e2e"
    ~algos:[ Spec.Classical_diameter; Spec.Thm11_diameter; Spec.Three_halves ]
    ~family:(Spec.Ring { cliques = 4 }) ~max_w:8 ~sizes:[ 12; 16 ] ~seeds:[ 1; 2 ] ()

let test_fingerprints () =
  let g1 = Harness.Runner.make_graph e2e_spec ~n:16 ~seed:1 in
  let g1' = Harness.Runner.make_graph e2e_spec ~n:16 ~seed:1 in
  let g2 = Harness.Runner.make_graph e2e_spec ~n:16 ~seed:2 in
  checks "equal graphs, equal fingerprints" (Serve.Cache.graph_fingerprint g1)
    (Serve.Cache.graph_fingerprint g1');
  checkb "different seed, different fingerprint" false
    (Serve.Cache.graph_fingerprint g1 = Serve.Cache.graph_fingerprint g2);
  checkb "different size, different cell key" false
    (Serve.Cache.cell_key e2e_spec ~n:12 ~seed:1 = Serve.Cache.cell_key e2e_spec ~n:16 ~seed:1);
  checkb "different seed, different cell key" false
    (Serve.Cache.cell_key e2e_spec ~n:16 ~seed:1 = Serve.Cache.cell_key e2e_spec ~n:16 ~seed:2);
  (* The instance cache is shared across algorithms of a cell: one
     build, every later job of the cell a hit. *)
  let graph_of_job, lru = Serve.Cache.instances ~capacity:8 () in
  let jobs = Spec.jobs e2e_spec in
  List.iter (fun j -> ignore (graph_of_job e2e_spec j)) jobs;
  check "one residency per (n, seed) cell" 4 (Lru.length lru);
  check "one miss per cell" 4 (Lru.stats lru).Lru.misses;
  check "every other job is a hit" (List.length jobs - 4) (Lru.stats lru).Lru.hits

(* ------------------- Oracle cache: byte-identity ------------------- *)

(* The ground-truth derivations through a memoized oracle must equal
   the direct recomputation on every cell — the caches change cost,
   never answers. Capacity 2 forces evictions mid-sweep, so the
   recompute-after-eviction path is covered too. *)
let prop_cached_expected_exact_identical =
  QCheck.Test.make ~name:"memoized oracle = direct oracle on expected_exact" ~count:25
    QCheck.(pair (int_range 2 32) (int_range 0 9999))
    (fun (n, seed) ->
      let spec =
        Spec.make ~name:"prop"
          ~algos:
            [
              Spec.Thm11_diameter; Spec.Thm11_radius; Spec.Classical_diameter;
              Spec.Classical_radius; Spec.Lm_unweighted; Spec.Three_halves;
              Spec.Sssp_two_approx;
            ]
          ~family:(Spec.Ring { cliques = 3 }) ~max_w:16 ~sizes:[ n ] ~seeds:[ seed ] ()
      in
      let oracle, _ = Serve.Cache.oracle ~capacity:2 () in
      List.for_all
        (fun j ->
          Check.Sweep_audit.expected_exact ~oracle spec j
          = Check.Sweep_audit.expected_exact spec j)
        (Spec.jobs spec))

(* Full-certificate byte-identity on real rows: run a small sweep once,
   audit it cold (direct oracle, rebuilt instances) and warm (memoized
   oracle + instance cache), and require the serialized reports to be
   byte-identical — the acceptance property the daemon's check path
   relies on. *)
let test_cached_audit_byte_identical () =
  let rows =
    List.map (fun j -> (j, Harness.Runner.run_job e2e_spec j)) (Spec.jobs e2e_spec)
  in
  let direct =
    List.concat_map (fun (j, raw) -> Check.Sweep_audit.audit_row e2e_spec j raw) rows
  in
  let oracle, _ = Serve.Cache.oracle ~capacity:4 () in
  let graph_of_job, _ = Serve.Cache.instances ~capacity:4 () in
  let warm =
    List.concat_map
      (fun (j, raw) -> Check.Sweep_audit.audit_row ~oracle ~graph_of_job e2e_spec j raw)
      rows
  in
  checkb "violation lists identical" true (direct = warm);
  (* Second pass over the same oracle instance: now fully warm. *)
  let warm2 =
    List.concat_map
      (fun (j, raw) -> Check.Sweep_audit.audit_row ~oracle ~graph_of_job e2e_spec j raw)
      rows
  in
  checkb "fully-warm pass identical" true (direct = warm2);
  (* And through the certifier that consumes eccentricity arrays
     directly: same rng seed, cached vs direct oracle, byte-equal
     certificate JSON. *)
  let g = Harness.Runner.make_graph e2e_spec ~n:16 ~seed:1 in
  let cert_direct =
    Check.Approx_audit.thm11 g Core.Algorithm.Diameter ~rng:(Util.Rng.create ~seed:7)
  in
  let cert_warm =
    Check.Approx_audit.thm11 ~oracle g Core.Algorithm.Diameter
      ~rng:(Util.Rng.create ~seed:7)
  in
  checks "thm11 certificate byte-identical"
    (Check.Report.certificate_to_json cert_direct)
    (Check.Report.certificate_to_json cert_warm)

(* ----------------------------- Protocol ---------------------------- *)

let parse_line line =
  Serve.Protocol.parse_request (Harness.Hjson.parse_exn line)

let expect_error ~code line =
  match parse_line line with
  | _, Error e -> checks ("error code for " ^ line) code e.Serve.Protocol.code
  | _, Ok _ -> Alcotest.failf "accepted %s" line

let test_protocol_total () =
  (* Any well-formed JSON maps to a request or a structured error —
     never an exception. *)
  expect_error ~code:"bad-request" "[1,2]";
  (* A missing proto field is tolerated (the [raw] escape hatch); a
     wrong one is refused. *)
  (match parse_line {|{"op":"ping"}|} with
  | None, Ok Serve.Protocol.Ping -> ()
  | _ -> Alcotest.fail "proto-less ping should be tolerated");
  expect_error ~code:"bad-proto" {|{"proto":"qcongest-serve/v0","op":"ping"}|};
  expect_error ~code:"bad-request" {|{"proto":"qcongest-serve/v1","op":"frobnicate"}|};
  expect_error ~code:"bad-request" {|{"proto":"qcongest-serve/v1","op":"status"}|};
  expect_error ~code:"bad-request"
    {|{"proto":"qcongest-serve/v1","op":"submit","kind":"sweep","builtin":"ci-smoke","retries":0}|};
  (* Budgets must be positive and finite: 1e999 parses to infinity,
     which would disable supervision. *)
  List.iter
    (fun d ->
      expect_error ~code:"bad-request"
        (Printf.sprintf
           {|{"proto":"qcongest-serve/v1","op":"submit","kind":"sweep","builtin":"ci-smoke","deadline_s":%s}|}
           d))
    [ "0"; "-1.5"; "1e999"; "-1e999" ];
  (match
     parse_line
       {|{"proto":"qcongest-serve/v1","op":"submit","kind":"sweep","builtin":"ci-smoke","deadline_s":2.5}|}
   with
  | _, Ok (Serve.Protocol.Submit (Serve.Protocol.Sweep { options; _ })) ->
    checkb "finite deadline kept" true (options.Serve.Protocol.deadline_s = Some 2.5)
  | _ -> Alcotest.fail "finite deadline_s refused");
  expect_error ~code:"bad-spec"
    {|{"proto":"qcongest-serve/v1","op":"submit","kind":"sweep","builtin":"no-such-spec"}|};
  expect_error ~code:"bad-spec"
    {|{"proto":"qcongest-serve/v1","op":"submit","kind":"sweep","spec":{"nope":1}}|};
  expect_error ~code:"bad-request"
    {|{"proto":"qcongest-serve/v1","op":"submit","kind":"run","builtin":"ci-smoke","algo":"thm11-diameter","n":1,"seed":0}|};
  expect_error ~code:"bad-request"
    {|{"proto":"qcongest-serve/v1","op":"submit","kind":"run","builtin":"ci-smoke","algo":"no-such-algo","n":16,"seed":0}|};
  (* The id is echoed even on errors, and decoded on success. *)
  (match parse_line {|{"proto":"qcongest-serve/v1","id":"x7","op":"nope"}|} with
  | Some "x7", Error _ -> ()
  | _ -> Alcotest.fail "id not echoed on error");
  (match parse_line {|{"proto":"qcongest-serve/v1","id":"x8","op":"ping"}|} with
  | Some "x8", Ok Serve.Protocol.Ping -> ()
  | _ -> Alcotest.fail "ping not decoded");
  match
    parse_line
      {|{"proto":"qcongest-serve/v1","op":"submit","kind":"sweep","builtin":"ci-smoke","audit":true}|}
  with
  | None, Ok (Serve.Protocol.Submit (Serve.Protocol.Sweep { spec; options })) ->
    checks "builtin resolved" "ci-smoke" spec.Spec.name;
    checkb "audit decoded" true options.Serve.Protocol.audit
  | _ -> Alcotest.fail "sweep submit not decoded"

let test_protocol_lines_and_keys () =
  let open Serve.Protocol in
  let reparse line =
    checkb ("single line: " ^ line) false (String.contains line '\n');
    Harness.Hjson.parse_exn line
  in
  let ok = reparse (ok_line ~id:"i1" [ ("pong", "true") ]) in
  checkb "ok:true" true (Harness.Hjson.member "ok" ok = Some (Harness.Hjson.Bool true));
  checkb "id echoed" true (Harness.Hjson.member "id" ok = Some (Harness.Hjson.Str "i1"));
  let err = reparse (error_line ~code:"bad-frame" ~detail:"d" ()) in
  checkb "ok:false" true (Harness.Hjson.member "ok" err = Some (Harness.Hjson.Bool false));
  let ev = reparse (event_line ~job:"j1" ~event:"progress" [ ("completed", "3") ]) in
  checkb "event tagged with job" true
    (Harness.Hjson.member "job" ev = Some (Harness.Hjson.Str "j1"));
  (* Deterministic job-id hashing: identical submissions share a key,
     different options do not. *)
  let sub options = Sweep { spec = Spec.ci_smoke; options } in
  checks "identical submissions, identical keys"
    (submit_key (sub default_options))
    (submit_key (sub default_options));
  checkb "options change the key" false
    (submit_key (sub default_options)
    = submit_key (sub { default_options with retries = 3 }))

(* --------------------------- Daemon e2e ---------------------------- *)

let temp_dir () =
  let path = Filename.temp_file "qcongest_serve" "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

(* Sockets must fit sockaddr_un: keep them in /tmp, not the (possibly
   deep) build dir. *)
let temp_socket tag =
  let path = Filename.concat (Filename.get_temp_dir_name ()) (Printf.sprintf "qc-%s-%d.sock" tag (Unix.getpid ())) in
  if Sys.file_exists path then Sys.remove path;
  path

let start_daemon cfg =
  let ready = Atomic.make false in
  let th =
    Thread.create
      (fun () -> Serve.Daemon.run ~on_ready:(fun () -> Atomic.set ready true) cfg)
      ()
  in
  let rec wait n =
    if Atomic.get ready then ()
    else if n = 0 then Alcotest.fail "daemon never became ready"
    else (
      Thread.delay 0.02;
      wait (n - 1))
  in
  wait 500;
  th

let field v name = Option.bind (Harness.Hjson.member name v) Harness.Hjson.to_string_opt

let test_daemon_end_to_end () =
  let dir = temp_dir () in
  let socket = temp_socket "e2e" in
  let cfg =
    {
      (Serve.Daemon.default_config ~socket) with
      Serve.Daemon.artifacts = Some dir;
      runner_jobs = Some 1;
    }
  in
  let th = start_daemon cfg in
  let spec_json = Spec.to_json e2e_spec in
  (* Two concurrent clients: A drives the full sweep, B races single
     runs and status polls against the same daemon. *)
  let sweep_result = ref None in
  let client_a =
    Thread.create
      (fun () ->
        let c = Serve.Client.connect ~socket in
        Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
        let reply =
          Serve.Client.submit c
            [ ("kind", Telemetry.Tjson.str "sweep"); ("spec", spec_json) ]
        in
        match Serve.Client.job_of_reply reply with
        | Error (code, detail) -> Alcotest.failf "sweep submit: %s %s" code detail
        | Ok job -> sweep_result := Some (Serve.Client.await c ~job))
      ()
  in
  let run_job = List.nth (Spec.jobs e2e_spec) 0 in
  let run_result = ref None in
  let client_b =
    Thread.create
      (fun () ->
        let c = Serve.Client.connect ~socket in
        Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
        (match Serve.Client.ping c with
        | Serve.Client.Ok_reply _ -> ()
        | Serve.Client.Error_reply _ -> Alcotest.fail "ping failed");
        let reply =
          Serve.Client.submit c
            [
              ("kind", Telemetry.Tjson.str "run");
              ("spec", spec_json);
              ("algo", Telemetry.Tjson.str (Spec.algo_name run_job.Spec.algo));
              ("n", Telemetry.Tjson.int run_job.Spec.n);
              ("seed", Telemetry.Tjson.int run_job.Spec.seed);
            ]
        in
        match Serve.Client.job_of_reply reply with
        | Error (code, detail) -> Alcotest.failf "run submit: %s %s" code detail
        | Ok job -> run_result := Some (Serve.Client.await c ~job))
      ()
  in
  Thread.join client_a;
  Thread.join client_b;
  (* B's row is bit-identical to the one-shot runner's row for the
     same cell — the daemon adds amortization, never divergence. *)
  (match !run_result with
  | Some (Serve.Client.Ok_reply v) ->
    let row =
      match Harness.Hjson.member "row" v with
      | Some row -> Harness.Hjson.print row
      | None -> Alcotest.fail "run result carried no row"
    in
    checks "daemon row = one-shot runner row" (Harness.Runner.run_job e2e_spec run_job) row
  | _ -> Alcotest.fail "run job did not settle ok");
  (* A's sweep checkpointed every job, rows byte-identical to direct
     execution. *)
  (match !sweep_result with
  | Some (Serve.Client.Ok_reply v) ->
    let store_path =
      match field v "store_path" with Some p -> p | None -> Alcotest.fail "no store_path"
    in
    let rows, skipped = Harness.Store.peek ~path:store_path in
    check "no damaged lines" 0 skipped;
    check "every job settled" (List.length (Spec.jobs e2e_spec)) (List.length rows);
    List.iter
      (fun j ->
        checks ("row " ^ j.Spec.id) (Harness.Runner.run_job e2e_spec j)
          (List.assoc j.Spec.id rows))
      (Spec.jobs e2e_spec);
    checkb "report artifact written" true
      (match field v "report_path" with Some p -> Sys.file_exists p | None -> false)
  | _ -> Alcotest.fail "sweep did not settle ok");
  (* Protocol hardening over a live connection: malformed frame and
     unknown job get structured errors on an intact connection. *)
  let c = Serve.Client.connect ~socket in
  let bad = Serve.Client.request c "{\"bogus" in
  (match Serve.Client.classify bad with
  | Serve.Client.Error_reply { code; _ } -> checks "malformed frame" "bad-frame" code
  | Serve.Client.Ok_reply _ -> Alcotest.fail "malformed frame accepted");
  (match Serve.Client.status c ~job:"j9999-deadbeef" with
  | Serve.Client.Error_reply { code; _ } -> checks "unknown job" "unknown-job" code
  | Serve.Client.Ok_reply _ -> Alcotest.fail "unknown job accepted");
  (* Warm check over the daemon's caches: submit the same spec's
     re-certification twice; the second is served with strictly more
     cache hits, and both verdicts pass. *)
  let check_once () =
    match
      Serve.Client.job_of_reply
        (Serve.Client.submit c
           [ ("kind", Telemetry.Tjson.str "check-sweep"); ("spec", spec_json) ])
    with
    | Error (code, detail) -> Alcotest.failf "check submit: %s %s" code detail
    | Ok job -> (
      match Serve.Client.await c ~job with
      | Serve.Client.Ok_reply v -> v
      | Serve.Client.Error_reply { code; detail } ->
        Alcotest.failf "check failed: %s %s" code detail)
  in
  let hits () =
    match Serve.Client.metrics c with
    | Serve.Client.Ok_reply v -> (
      match
        Option.bind
          (Option.bind
             (Option.bind (Harness.Hjson.member "metrics" v)
                (Harness.Hjson.member "serve.cache.oracle.hits"))
             (Harness.Hjson.member "value"))
          Harness.Hjson.to_int_opt
      with
      | Some h -> h
      | None -> 0)
    | Serve.Client.Error_reply _ -> Alcotest.fail "metrics op failed"
  in
  let v1 = check_once () in
  let hits_cold = hits () in
  let v2 = check_once () in
  let hits_warm = hits () in
  checkb "first check passes" true (field v1 "status" = Some "pass");
  checkb "second check passes" true (field v2 "status" = Some "pass");
  checks "check verdict stable across cache states"
    (Option.value ~default:"?" (field v1 "status"))
    (Option.value ~default:"?" (field v2 "status"));
  checkb "second identical check served warmer" true (hits_warm > hits_cold);
  (* Graceful shutdown: drains, releases the store lock, removes the
     socket. *)
  (match Serve.Client.shutdown c with
  | Serve.Client.Ok_reply _ -> ()
  | Serve.Client.Error_reply _ -> Alcotest.fail "shutdown refused");
  Serve.Client.close c;
  Thread.join th;
  checkb "socket removed" false (Sys.file_exists socket);
  checkb "store lock released" false
    (Sys.file_exists (Filename.concat dir "serve-e2e.jsonl.lock"))

(* The [events]/[done] interleaving, driven step by step: the worker
   has settled the job (state [Done], [done] line queued in the outbox)
   when the [events] request arrives, and the main loop appends the
   [done] line only afterwards. The subscriber must still receive it. *)
let test_events_between_settle_and_done () =
  let module D = Serve.Daemon.Internal in
  let module J = Telemetry.Tjson in
  let d =
    D.create
      { (Serve.Daemon.default_config ~socket:"unused") with
        Serve.Daemon.artifacts = Some (temp_dir ()) }
  in
  let ours, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let c = D.connect d ours in
  let ic = Unix.in_channel_of_descr theirs in
  let reply () =
    match Harness.Hjson.parse (input_line ic) with
    | Ok v -> v
    | Error e -> Alcotest.failf "unparsable reply: %s" e
  in
  let cell = List.nth (Spec.jobs e2e_spec) 0 in
  D.request d c
    (J.obj
       [
         ("op", J.str "submit");
         ("kind", J.str "run");
         ("spec", Spec.to_json e2e_spec);
         ("algo", J.str (Spec.algo_name cell.Spec.algo));
         ("n", J.int cell.Spec.n);
         ("seed", J.int cell.Spec.seed);
       ]);
  let job =
    match field (reply ()) "job" with Some j -> j | None -> Alcotest.fail "submit refused"
  in
  D.work d;
  D.request d c (J.obj [ ("op", J.str "events"); ("job", J.str job) ]);
  D.deliver d [ c ];
  Unix.close ours;
  checkb "events acknowledged" true
    (Harness.Hjson.member "ok" (reply ()) = Some (Harness.Hjson.Bool true));
  let rec rest acc =
    match reply () with v -> rest (v :: acc) | exception End_of_file -> List.rev acc
  in
  let events = List.filter_map (fun v -> field v "event") (rest []) in
  Alcotest.(check (list string)) "late subscriber receives done" [ "done" ] events;
  close_in ic

let () =
  Alcotest.run "serve"
    [
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "capacity bound" `Quick test_lru_capacity_bound;
          Alcotest.test_case "disabled and validation" `Quick test_lru_disabled_and_validation;
          Alcotest.test_case "metrics mirroring" `Quick test_lru_metrics_mirroring;
        ] );
      ( "cache",
        [
          Alcotest.test_case "fingerprints and cell keys" `Quick test_fingerprints;
          QCheck_alcotest.to_alcotest prop_cached_expected_exact_identical;
          Alcotest.test_case "cached audit byte-identical" `Slow
            test_cached_audit_byte_identical;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "total parsing" `Quick test_protocol_total;
          Alcotest.test_case "lines and keys" `Quick test_protocol_lines_and_keys;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "end to end, concurrent clients" `Slow test_daemon_end_to_end;
          Alcotest.test_case "events between settle and done" `Quick
            test_events_between_settle_and_done;
        ] );
    ]

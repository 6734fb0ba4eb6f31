(* serve-mixed: a [qcongest serve] daemon (one worker, QCONGEST_JOBS=1)
   under a closed loop from one process over two connections. An op
   is a [submit run] on a fresh (algo, n <= 48, seed) cell or, for 1
   op in 4, a warm [check-sweep] of the store the set-up populated.
   The client waits for completion on the [events] stream, then
   fetches the result. The load runs in segments of a few seconds; the
   reference kernel is read between segments, while the daemon is
   idle. Each set-up gets a fresh socket and a fresh
   ARTIFACTS_DIR, and every daemon is drained with [shutdown] and
   reaped; the daemons' stdout and stderr go to the run's stderr. *)

open Common
module C = Serve.Client
module Spec = Harness.Spec
module H = Harness.Hjson
module J = Telemetry.Tjson

let max_w = 16

let store_spec cfg =
  Spec.make ~name:"perfbench-store"
    ~algos:[ Spec.Thm11_diameter; Spec.Classical_diameter ]
    ~family:(Spec.Ring { cliques = 3 })
    ~max_w
    ~sizes:(if cfg.smoke then [ 9; 12 ] else [ 12; 18 ])
    ~seeds:[ 1; 2 ] ()

type kind = Run of Spec.algo * int | Recheck

(* The op sequence repeats this block of eight: runs of algorithms
   whose guarantee holds on every input, at a spread of sizes so the
   latency quantiles fall inside a continuum, and two re-checks (1 op
   in 4). *)
let block cfg =
  let s n = if cfg.smoke then n / 2 else n in
  [|
    Run (Spec.Approx_apsp, s 24);
    Recheck;
    Run (Spec.Approx_apsp, s 33);
    Run (Spec.Classical_diameter, s 48);
    Run (Spec.Approx_apsp, s 36);
    Recheck;
    Run (Spec.Approx_apsp, s 30);
    Run (Spec.Classical_radius, s 48);
  |]

(* Fresh cells: run seeds never repeat within a run and never meet the
   store's seeds. *)
let op_of cfg i =
  let b = block cfg in
  match b.(i mod Array.length b) with
  | Recheck -> (Recheck, 0)
  | Run _ as k -> (k, 1_000 + ((cfg.seed land 0xFFFF) * 100_000) + i)

let fields cfg (k, seed) =
  let spec = ("spec", Spec.to_json (store_spec cfg)) in
  match k with
  | Recheck -> [ ("kind", J.str "check-sweep"); spec ]
  | Run (algo, n) ->
    [
      ("kind", J.str "run");
      spec;
      ("algo", J.str (Spec.algo_name algo));
      ("n", J.int n);
      ("seed", J.int seed);
    ]

let field path v =
  List.fold_left (fun acc name -> Option.bind acc (H.member name)) (Some v) path

let rec set path x v =
  match (path, v) with
  | [], _ -> x
  | name :: rest, H.Obj kvs ->
    H.Obj (List.map (fun (k, y) -> if k = name then (k, set rest x y) else (k, y)) kvs)
  | _ -> v

(* Every reply is ok; a run's row has status "ok" and within true, a
   re-check reports status "pass". *)
let reply_ok cfg k = function
  | C.Error_reply _ -> false
  | C.Ok_reply v -> (
    match k with
    | Run _ ->
      let v = if cfg.tamper then set [ "row"; "within" ] (H.Bool false) v else v in
      field [ "row"; "status" ] v = Some (H.Str "ok")
      && field [ "row"; "within" ] v = Some (H.Bool true)
    | Recheck ->
      let v = if cfg.tamper then set [ "status" ] (H.Str "fail") v else v in
      field [ "status" ] v = Some (H.Str "pass"))

(* ------------------------------ daemons ----------------------------- *)

type daemon = { pid : int; socket : string; dir : string }

let live = ref []

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error (_, _, _) -> ())
    !live;
  live := []

let env dir =
  let ours = [ "QCONGEST_JOBS="; "QCONGEST_SHARDS="; "ARTIFACTS_DIR=" ] in
  Array.append
    [| "QCONGEST_JOBS=1"; "QCONGEST_SHARDS=1"; "ARTIFACTS_DIR=" ^ dir |]
    (Array.of_list
       (List.filter
          (fun kv -> not (List.exists (fun p -> String.starts_with ~prefix:p kv) ours))
          (Array.to_list (Unix.environment ()))))

let rec wait_ready d ~until =
  match C.connect ~socket:d.socket with
  | c -> C.close c
  | exception Unix.Unix_error (_, _, _) ->
    if fst (Unix.waitpid [ Unix.WNOHANG ] d.pid) <> 0 then begin
      live := List.filter (( <> ) d.pid) !live;
      failwith "qcongest serve exited before it listened"
    end;
    if now () > until then failwith "qcongest serve did not listen within 30 s";
    Unix.sleepf 0.002;
    wait_ready d ~until

(* Replies and [events] lines share the connection. [read_one] reads
   one frame: a reply comes back as [Some]; an event line gives [None],
   and a [done] line for [job] sets [done_at]. *)
let read_one c ~job ~done_at =
  match C.read_frame c with
  | None -> raise (C.Protocol_error "daemon closed the connection")
  | Some (H.Stream.Junk _ | H.Stream.Oversized _) -> raise (C.Protocol_error "bad frame")
  | Some (H.Stream.Frame v) -> (
    match H.member "event" v with
    | None -> Some v
    | Some (H.Str "done") when H.member "job" v = Some (H.Str job) ->
      done_at := Some (now ());
      None
    | Some _ -> None)

let rec next_reply c ~job ~done_at =
  match read_one c ~job ~done_at with Some v -> v | None -> next_reply c ~job ~done_at

let send c fields = C.send_line c (J.obj (("proto", J.str Serve.Protocol.version) :: fields))

let rpc c ~job fields =
  send c fields;
  C.classify (next_reply c ~job ~done_at:(ref None))

(* Wait for [job] on its event stream. An [events] subscription made
   after the job settled but before its [done] line reached the
   history never sees that line, so a [status] request pipelined
   behind the subscription settles that case. *)
let await_done c ~job =
  let done_at = ref None in
  send c [ ("op", J.str "events"); ("job", J.str job) ];
  send c [ ("op", J.str "status"); ("job", J.str job) ];
  let reply () =
    match C.classify (next_reply c ~job ~done_at) with
    | C.Ok_reply v -> v
    | C.Error_reply { code; detail } -> raise (C.Protocol_error (code ^ ": " ^ detail))
  in
  ignore (reply ());
  let state = H.member "state" (reply ()) in
  let rec wait () =
    match (!done_at, state) with
    | Some t, _ -> t
    | None, Some (H.Str ("done" | "failed")) -> now ()
    | None, _ ->
      ignore (read_one c ~job ~done_at);
      wait ()
  in
  wait ()

(* Submit, wait for the job's [done] event, fetch the result.
   Returns (ack time, done time, result reply). *)
let submit_and_wait c fields =
  let ack = rpc c ~job:"" (("op", J.str "submit") :: fields) in
  let t_ack = now () in
  match C.job_of_reply ack with
  | Error (code, detail) -> (t_ack, t_ack, C.Error_reply { code; detail })
  | Ok job ->
    let t_done = await_done c ~job in
    (t_ack, t_done, rpc c ~job [ ("op", J.str "result"); ("job", J.str job) ])

let start cfg ~tag =
  let pid = Unix.getpid () in
  let dir = Filename.concat cfg.out_dir (Printf.sprintf "serve-%d-%s" pid tag) in
  let socket = Filename.concat cfg.out_dir (Printf.sprintf "q%d-%s.sock" pid tag) in
  rm_rf dir;
  rm_rf socket;
  Telemetry.Export.mkdir_p dir;
  let exe = cfg.qcongest in
  let dpid =
    Unix.create_process_env exe
      [| exe; "serve"; "--socket"; socket; "--artifacts"; dir; "--jobs"; "1" |]
      (env dir) Unix.stdin Unix.stderr Unix.stderr
  in
  live := dpid :: !live;
  let d = { pid = dpid; socket; dir } in
  wait_ready d ~until:(now () +. 30.0);
  let c = C.connect ~socket in
  Fun.protect ~finally:(fun () -> C.close c) (fun () ->
      let spec = Spec.to_json (store_spec cfg) in
      match submit_and_wait c [ ("kind", J.str "sweep"); ("spec", spec) ] with
      | _, _, C.Ok_reply v when field [ "failed" ] v = Some (H.Num 0.0) -> ()
      | _ -> failwith "populating the sweep store failed");
  d

(* Drain with [shutdown] and reap. A daemon still alive a minute later
   is killed and breaks the run. *)
let stop d broken =
  (try
     let c = C.connect ~socket:d.socket in
     ignore (C.shutdown c);
     C.close c
   with Unix.Unix_error (_, _, _) | C.Protocol_error _ -> ());
  let until = now () +. 60.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < until ->
      Unix.sleepf 0.005;
      reap ()
    | 0, _ ->
      Unix.kill d.pid Sys.sigkill;
      ignore (Unix.waitpid [] d.pid);
      broken := "qcongest serve was still alive a minute after shutdown" :: !broken
    | _, Unix.WEXITED 0 -> ()
    | _, _ -> broken := "qcongest serve exited abnormally after shutdown" :: !broken
  in
  reap ();
  live := List.filter (( <> ) d.pid) !live;
  if Sys.file_exists d.socket then broken := "qcongest serve left its socket behind" :: !broken;
  rm_rf d.dir

(* ------------------------------- load ------------------------------- *)

type record = {
  kind : kind;
  traced : bool;
  t_submit : float;
  t_ack : float;
  t_done : float;
  t_end : float;
  ok : bool;
  ref_s : float;  (** The [Refspeed] reading of the op's segment. *)
}

let is_run r = match r.kind with Run _ -> true | Recheck -> false

(* In a traced run every other block of the op sequence is traced, so
   traced and untraced ops share one mix and one stretch of time. *)
let traced cfg i = cfg.trace && i / 8 mod 2 = 1

let record_spans rec_ ~op r =
  let parent = Span.record rec_ ~op ~name:"serve.op" ~start:r.t_submit ~stop:r.t_end () in
  let child name start stop = ignore (Span.record rec_ ~parent ~op ~name ~start ~stop ()) in
  child "serve.submit" r.t_submit r.t_ack;
  child (if is_run r then "serve.run" else "serve.recheck") r.t_ack r.t_done;
  child "serve.result" r.t_done r.t_end

let failures_logged = Atomic.make 0

let one_op cfg rec_ c ~ref_s i =
  let ((k, _) as o) = op_of cfg i in
  let traced = traced cfg i in
  let t_submit = now () in
  let r =
    match submit_and_wait c (fields cfg o) with
    | t_ack, t_done, res ->
      let ok = reply_ok cfg k res in
      (* The first few failures are enough to see what went wrong. *)
      if (not ok) && Atomic.fetch_and_add failures_logged 1 < 3 then
        log "serve-mixed op %d failed its check: %s" i
          (match res with
          | C.Ok_reply v -> H.print v
          | C.Error_reply { code; detail } -> code ^ ": " ^ detail);
      { kind = k; traced; t_submit; t_ack; t_done; t_end = now (); ok; ref_s }
    | exception e ->
      log "serve-mixed op %d raised %s" i (Printexc.to_string e);
      let t = now () in
      { kind = k; traced; t_submit; t_ack = t; t_done = t; t_end = t; ok = false; ref_s }
  in
  if traced then record_spans rec_ ~op:i r;
  r

let segment_s = 5.0

(* Two connections, each sending its next op only after the previous
   one completed, until [seconds] have passed. Between segments both
   connections are idle and the reference kernel is read. Returns the
   records, the load window in refs (each segment's wall over its
   reading) and the connection errors. *)
let load cfg rec_ d =
  let mx = Mutex.create () in
  (* Ops 0 to 7 belong to the warm-up, so every cell the load submits
     is fresh. *)
  let next = ref 8 and records = ref [] and errors = ref [] in
  let deadline = now () +. cfg.seconds in
  let locked f =
    Mutex.lock mx;
    Fun.protect ~finally:(fun () -> Mutex.unlock mx) f
  in
  let take until =
    locked (fun () ->
        if now () >= until then None
        else begin
          incr next;
          Some (!next - 1)
        end)
  in
  let client c ~ref_s until () =
    let rec loop () =
      match take until with
      | None -> ()
      | Some i ->
        let r = one_op cfg rec_ c ~ref_s i in
        locked (fun () -> records := r :: !records);
        loop ()
    in
    loop ()
  in
  let conns =
    List.filter_map
      (fun _ ->
        match C.connect ~socket:d.socket with
        | c -> Some c
        | exception e ->
          errors := Printexc.to_string e :: !errors;
          None)
      [ 1; 2 ]
  in
  let rec segments window_ref =
    if now () >= deadline then window_ref
    else
      let ref_s = Refspeed.measure () in
      let t0 = now () in
      let until = Float.min deadline (t0 +. segment_s) in
      List.iter Thread.join (List.map (fun c -> Thread.create (client c ~ref_s until) ()) conns);
      segments (window_ref +. ((now () -. t0) /. ref_s))
  in
  let window_ref =
    Fun.protect ~finally:(fun () -> List.iter C.close conns) (fun () ->
        if conns = [] then 0.0 else segments 0.0)
  in
  let records = List.sort (fun a b -> Float.compare a.t_ack b.t_ack) !records in
  (records, window_ref, !errors)

let latency r = r.t_end -. r.t_submit

(* One worker runs jobs in ack order, so a job starts when it is acked
   or when the job acked before it is done, whichever is later. *)
let waits records =
  let rec go prev_done acc = function
    | [] -> List.rev acc
    | r :: rest -> go r.t_done ((Float.max r.t_ack prev_done -. r.t_ack) :: acc) rest
  in
  go neg_infinity [] records

let counter v name =
  match field [ "metrics"; name; "value" ] v with Some (H.Num x) -> x | _ -> 0.0

let hit_ratio v cache =
  let hits = counter v ("serve.cache." ^ cache ^ ".hits") in
  ratio hits (hits +. counter v ("serve.cache." ^ cache ^ ".misses"))

let run cfg =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  Telemetry.Export.mkdir_p cfg.out_dir;
  let broken = ref [] in
  let rec_ = Span.create () in
  Fun.protect ~finally:kill_all @@ fun () ->
  (* The mean of nine set-ups: single ones read about 0.09 s or 0.13 s,
     as the host's state flips. *)
  let reps = 9 in
  let setups =
    List.init reps (fun k ->
        let d, dt = timed (fun () -> start cfg ~tag:(string_of_int k)) in
        if k < reps - 1 then stop d broken;
        (d, dt))
  in
  let d = fst (List.nth setups (reps - 1)) in
  let setup_s = mean (List.map snd setups) in
  (* Warm-up, excluded: a cold re-check fills the oracle cache. *)
  let c = C.connect ~socket:d.socket in
  ignore (one_op { cfg with trace = false } rec_ c ~ref_s:1.0 1);
  ignore (one_op { cfg with trace = false } rec_ c ~ref_s:1.0 0);
  C.close c;
  let w0 = Gc.minor_words () in
  let cpu0 = Sysinfo.cpu_s d.pid in
  let records, window_ref, errors = load cfg rec_ d in
  let cpu = Sysinfo.cpu_s d.pid -. cpu0 in
  let words = Gc.minor_words () -. w0 in
  let metrics =
    let c = C.connect ~socket:d.socket in
    Fun.protect ~finally:(fun () -> C.close c) (fun () ->
        match C.metrics c with C.Ok_reply v -> v | C.Error_reply _ -> H.Null)
  in
  let peak_rss_mb = Sysinfo.peak_rss_mb ~pid:d.pid () in
  stop d broken;
  List.iter (fun e -> broken := ("client connection failed: " ^ e) :: !broken) errors;
  let ops = float_of_int (List.length records) in
  let layers =
    if not cfg.trace then []
    else
      let tr = List.filter (fun r -> r.traced) records in
      let p50 f sel = median (List.filter_map (fun r -> if sel r then Some (f r) else None) tr) in
      let all _ = true and run = is_run and recheck r = not (is_run r) in
      [
        ("serve.ack_p50_s", p50 (fun r -> r.t_ack -. r.t_submit) all);
        ("serve.run_p50_s", p50 (fun r -> r.t_done -. r.t_ack) run);
        ("serve.recheck_p50_s", p50 (fun r -> r.t_done -. r.t_ack) recheck);
        ("serve.wait_s_per_op", mean (waits records));
        ("serve.daemon_cpu_s_per_op", ratio cpu ops);
        ("serve.cache.oracle.hit_ratio", hit_ratio metrics "oracle");
        ("serve.cache.instance.hit_ratio", hit_ratio metrics "instance");
        ("serve.requests_rejected", counter metrics "serve.requests.rejected");
        ( "trace.overhead_s",
          p50 latency all
          -. median
               (List.filter_map (fun r -> if r.traced then None else Some (latency r)) records) );
      ]
  in
  ( {
      setup_s;
      op_walls = List.map latency records;
      op_refs = List.map (fun r -> latency r /. r.ref_s) records;
      ops_per_ref = ratio ops window_ref;
      ref_s = median (List.map (fun r -> r.ref_s) records);
      attempted = List.length records;
      failed = List.length (List.filter (fun r -> not r.ok) records);
      alloc_words_per_op = ratio words ops;
      peak_rss_mb;
      broken = !broken;
      layers;
    },
    rec_ )

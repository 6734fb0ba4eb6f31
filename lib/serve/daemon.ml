module J = Telemetry.Tjson
module Hjson = Harness.Hjson
module Spec = Harness.Spec
module Store = Harness.Store
module Runner = Harness.Runner
module Metrics = Telemetry.Metrics

type config = {
  socket : string;
  artifacts : string option;
  runner_jobs : int option;
  oracle_capacity : int;
  instance_capacity : int;
  max_frame : int;
}

let default_config ~socket =
  {
    socket;
    artifacts = None;
    runner_jobs = None;
    oracle_capacity = 64;
    instance_capacity = 32;
    max_frame = Hjson.Stream.default_max_frame;
  }

(* ----------------------------- job table --------------------------- *)

type job_state = Queued | Running | Done | Failed

let state_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Failed -> "failed"

type job = {
  jid : string;
  kind : string;
  submit : Protocol.submit;
  mutable state : job_state;
  mutable result : (string * string) list;  (** ok-payload fields once [Done]. *)
  mutable error : Protocol.error option;  (** Set once [Failed]. *)
  mutable completed : int;
  mutable total : int;
  (* Main-thread-only streaming state: the full event history (so a
     late subscriber replays from the start), whether that history
     already ends in the [done] line, and the currently connected
     subscriber fds. *)
  mutable events : string list;  (** Reversed arrival order. *)
  mutable closed : bool;
  mutable subscribers : Unix.file_descr list;
}

type client = {
  fd : Unix.file_descr;
  reader : Hjson.Stream.reader;
  mutable alive : bool;
}

type t = {
  cfg : config;
  log : string -> unit;
  metrics : Metrics.t;
  oracle : Check.Oracle.t;
  graph_of_job : Spec.t -> Spec.job -> Graphlib.Wgraph.t;
  started_at : float;
  (* Shared worker/main state, all under [mx]. *)
  mx : Mutex.t;
  cv : Condition.t;  (** Signals the worker: queue grew or [stop] set. *)
  queue : job Queue.t;
  jobs : (string, job) Hashtbl.t;
  mutable order : string list;  (** Job ids, reversed submission order. *)
  mutable seq : int;
  mutable draining : bool;
  mutable stopping : bool;
  mutable worker_busy : bool;
  outbox : (string * string * bool) Queue.t;
      (** (job id, event line, is the [done] line), worker -> main. *)
  (* Self-pipe waking the select loop from the worker and from the
     SIGTERM handler. *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  sigterm : bool Atomic.t;
}

let locked t f =
  Mutex.lock t.mx;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mx) f

let wake t =
  try ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE), _, _) -> ()

let post_event ?(last = false) t jid line =
  locked t (fun () -> Queue.add (jid, line, last) t.outbox);
  wake t

(* --------------------------- job execution ------------------------- *)

let store_path t (spec : Spec.t) =
  Filename.concat
    (Telemetry.Export.artifacts_dir ?override:t.cfg.artifacts ())
    (spec.Spec.name ^ ".jsonl")

let progress_event t job path ~completed ~total =
  locked t (fun () ->
      job.completed <- completed;
      job.total <- total);
  let stats = Profile.Monitor.observe ~total ~path () in
  post_event t job.jid
    (Protocol.event_line ~job:job.jid ~event:"progress"
       [
         ("completed", J.int completed);
         ("total", J.int total);
         ("line", J.str (Profile.Monitor.render stats));
       ])

let quarantine_rows path =
  let qp = Store.sibling path ~tag:"quarantine" in
  if Sys.file_exists qp then List.length (fst (Store.peek ~path:qp)) else 0

let run_sweep t job (spec : Spec.t) (options : Protocol.submit_options) =
  let path = store_path t spec in
  match Store.load ~path () with
  | exception Store.Locked { lock_path; holder } ->
    Error
      {
        Protocol.code = "store-locked";
        detail =
          Printf.sprintf "store %s is locked by live process %d (%s)" path holder
            lock_path;
      }
  | store ->
    Fun.protect ~finally:(fun () -> Store.close store) @@ fun () ->
    let total = List.length (Spec.jobs spec) in
    let retry =
      if options.Protocol.retries = 1 then Runner.no_retry
      else { Runner.default_retry with Runner.max_attempts = options.Protocol.retries }
    in
    let executed, failed =
      Runner.run ?jobs:t.cfg.runner_jobs ~retry
        ?deadline_s:options.Protocol.deadline_s ~metrics:t.metrics spec store
        ~on_progress:(progress_event t job path)
    in
    let report = Runner.report spec store in
    let report_path =
      Telemetry.Export.write_artifact ?dir:t.cfg.artifacts
        ~name:(spec.Spec.name ^ ".sweep.json")
        report
    in
    let quarantined = quarantine_rows path in
    let base =
      [
        ("executed", J.int executed);
        ("failed", J.int failed);
        ("settled", J.int (Store.count store + quarantined));
        ("total", J.int total);
        ("quarantined", J.int quarantined);
        ("store_path", J.str path);
        ("report_path", J.str report_path);
      ]
    in
    if not options.Protocol.audit then Ok base
    else begin
      let report =
        Check.Suite.sweep_report ~oracle:t.oracle ~graph_of_job:t.graph_of_job spec store
      in
      let audit_path =
        Telemetry.Export.write_artifact ?dir:t.cfg.artifacts
          ~name:(spec.Spec.name ^ ".check.json")
          (Check.Report.to_json report)
      in
      Ok
        (base
        @ [
            ("audit_status", J.str (Check.Report.status_name (Check.Report.status report)));
            ("audit_exit_code", J.int (Check.Report.exit_code report));
            ("audit_report_path", J.str audit_path);
          ])
    end

let run_check_sweep t (spec : Spec.t) =
  let path = store_path t spec in
  if not (Sys.file_exists path) then
    Error
      {
        Protocol.code = "bad-request";
        detail = Printf.sprintf "no checkpoint store at %s (run a sweep first)" path;
      }
  else begin
    (* Read-only open: re-certification must not race (or repair) a
       store a live sweep owns — see the Store lock protocol. *)
    let store = Store.load ~lock:false ~path () in
    let report =
      Check.Suite.sweep_report ~oracle:t.oracle ~graph_of_job:t.graph_of_job spec store
    in
    let json = Check.Report.to_json report in
    let report_path =
      Telemetry.Export.write_artifact ?dir:t.cfg.artifacts
        ~name:(spec.Spec.name ^ ".check.json")
        json
    in
    Ok
      [
        ("status", J.str (Check.Report.status_name (Check.Report.status report)));
        ("exit_code", J.int (Check.Report.exit_code report));
        ("store_path", J.str path);
        ("report_path", J.str report_path);
        ("report", json);
      ]
  end

let run_single (spec : Spec.t) (cell : Spec.job) (options : Protocol.submit_options) =
  let row = Runner.run_job ?deadline_s:options.Protocol.deadline_s spec cell in
  Ok [ ("job_id", J.str cell.Spec.id); ("row", row) ]

let execute t job =
  let outcome =
    try
      match job.submit with
      | Protocol.Sweep { spec; options } -> run_sweep t job spec options
      | Protocol.Check_sweep { spec } -> run_check_sweep t spec
      | Protocol.Run { spec; job = cell; options } -> run_single spec cell options
    with exn ->
      Error { Protocol.code = "internal"; detail = Printexc.to_string exn }
  in
  locked t (fun () ->
      match outcome with
      | Ok fields ->
        job.state <- Done;
        job.result <- fields;
        Metrics.incr t.metrics "serve.jobs.done"
      | Error e ->
        job.state <- Failed;
        job.error <- Some e;
        Metrics.incr t.metrics "serve.jobs.failed");
  post_event ~last:true t job.jid
    (Protocol.event_line ~job:job.jid ~event:"done"
       [ ("status", J.str (state_name job.state)) ])

let worker_loop t =
  let rec next () =
    Mutex.lock t.mx;
    let rec wait () =
      if t.stopping && Queue.is_empty t.queue then begin
        Mutex.unlock t.mx;
        None
      end
      else
        match Queue.take_opt t.queue with
        | Some job ->
          job.state <- Running;
          t.worker_busy <- true;
          Mutex.unlock t.mx;
          Some job
        | None ->
          Condition.wait t.cv t.mx;
          wait ()
    in
    match wait () with
    | None -> ()
    | Some job ->
      execute t job;
      locked t (fun () -> t.worker_busy <- false);
      wake t;
      next ()
  in
  next ()

(* ------------------------------ wire I/O --------------------------- *)

(* Blocking write of one frame; a dead peer (EPIPE and friends) marks
   the client for removal instead of killing the daemon. *)
let write_line t (c : client) s =
  if c.alive then begin
    let data = Bytes.of_string (s ^ "\n") in
    let n = Bytes.length data in
    let rec go off =
      if off < n then
        match Unix.write c.fd data off (n - off) with
        | written -> go (off + written)
        | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _)
          ->
          c.alive <- false
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
    in
    (try go 0
     with Unix.Unix_error (_, _, _) -> c.alive <- false);
    if not c.alive then Metrics.incr t.metrics "serve.clients.dropped"
  end

let jobs_snapshot t =
  locked t (fun () ->
      List.rev_map
        (fun jid ->
          let j = Hashtbl.find t.jobs jid in
          J.obj
            [
              ("job", J.str j.jid);
              ("kind", J.str j.kind);
              ("state", J.str (state_name j.state));
              ("completed", J.int j.completed);
              ("total", J.int j.total);
            ])
        t.order)

let find_job t jid = locked t (fun () -> Hashtbl.find_opt t.jobs jid)

let submit t sub =
  locked t (fun () ->
      if t.draining then
        Error
          {
            Protocol.code = "draining";
            detail = "daemon is shutting down and not accepting new submissions";
          }
      else begin
        t.seq <- t.seq + 1;
        let jid =
          Printf.sprintf "j%04d-%s" t.seq
            (String.sub (Harness.Fnv.hex64 (Protocol.submit_key sub)) 0 8)
        in
        let job =
          {
            jid;
            kind = Protocol.submit_kind sub;
            submit = sub;
            state = Queued;
            result = [];
            error = None;
            completed = 0;
            total = 0;
            events = [];
            closed = false;
            subscribers = [];
          }
        in
        Hashtbl.replace t.jobs jid job;
        t.order <- jid :: t.order;
        Queue.add job t.queue;
        Metrics.incr t.metrics "serve.jobs.submitted";
        Metrics.incr t.metrics ("serve.jobs.submitted." ^ job.kind);
        Condition.signal t.cv;
        Ok job
      end)

let begin_drain t =
  locked t (fun () ->
      if not t.draining then begin
        t.draining <- true;
        Condition.broadcast t.cv
      end)

let pending_count t =
  locked t (fun () -> Queue.length t.queue + if t.worker_busy then 1 else 0)

let handle_request t (c : client) (id, parsed) =
  match parsed with
  | Error { Protocol.code; detail } ->
    Metrics.incr t.metrics "serve.requests.rejected";
    write_line t c (Protocol.error_line ?id ~code ~detail ())
  | Ok req -> (
    Metrics.incr t.metrics "serve.requests.total";
    match req with
    | Protocol.Ping ->
      write_line t c
        (Protocol.ok_line ?id
           [
             ("pong", J.bool true);
             ("pid", J.int (Unix.getpid ()));
             ("uptime_s", J.float (Unix.gettimeofday () -. t.started_at));
           ])
    | Protocol.Submit sub -> (
      match submit t sub with
      | Ok job ->
        write_line t c
          (Protocol.ok_line ?id
             [ ("job", J.str job.jid); ("kind", J.str job.kind) ])
      | Error { Protocol.code; detail } ->
        write_line t c (Protocol.error_line ?id ~code ~detail ()))
    | Protocol.Status jid -> (
      match find_job t jid with
      | None ->
        write_line t c
          (Protocol.error_line ?id ~code:"unknown-job"
             ~detail:(Printf.sprintf "no job %s" jid)
             ())
      | Some j ->
        let state, completed, total =
          locked t (fun () -> (j.state, j.completed, j.total))
        in
        write_line t c
          (Protocol.ok_line ?id
             [
               ("job", J.str jid);
               ("state", J.str (state_name state));
               ("completed", J.int completed);
               ("total", J.int total);
             ]))
    | Protocol.Result jid -> (
      match find_job t jid with
      | None ->
        write_line t c
          (Protocol.error_line ?id ~code:"unknown-job"
             ~detail:(Printf.sprintf "no job %s" jid)
             ())
      | Some j -> (
        match locked t (fun () -> (j.state, j.result, j.error)) with
        | Done, fields, _ ->
          write_line t c (Protocol.ok_line ?id (("job", J.str jid) :: fields))
        | Failed, _, Some { Protocol.code; detail } ->
          write_line t c (Protocol.error_line ?id ~code ~detail ())
        | Failed, _, None ->
          write_line t c
            (Protocol.error_line ?id ~code:"internal" ~detail:"job failed" ())
        | (Queued | Running), _, _ ->
          write_line t c
            (Protocol.error_line ?id ~code:"pending"
               ~detail:
                 (Printf.sprintf "job %s is %s; poll again or subscribe with events" jid
                    (state_name j.state))
               ())))
    | Protocol.Events jid -> (
      match find_job t jid with
      | None ->
        write_line t c
          (Protocol.error_line ?id ~code:"unknown-job"
             ~detail:(Printf.sprintf "no job %s" jid)
             ())
      | Some j ->
        (* The stream is over once its history holds the [done] line.
           [j.state] settles earlier, on the worker, and a subscriber
           arriving in between must stay subscribed to receive [done]. *)
        let history = List.rev j.events in
        write_line t c
          (Protocol.ok_line ?id
             [ ("job", J.str jid); ("replayed", J.int (List.length history)) ]);
        List.iter (write_line t c) history;
        if not j.closed then j.subscribers <- c.fd :: j.subscribers)
    | Protocol.Metrics ->
      let snap = Metrics.snapshot t.metrics in
      write_line t c
        (Protocol.ok_line ?id
           [
             ("prometheus", J.str (Telemetry.Export.prometheus snap));
             ("metrics", Metrics.to_json snap);
           ])
    | Protocol.Jobs -> write_line t c (Protocol.ok_line ?id [ ("jobs", J.arr (jobs_snapshot t)) ])
    | Protocol.Shutdown ->
      t.log "shutdown requested; draining";
      write_line t c (Protocol.ok_line ?id [ ("draining", J.int (pending_count t)) ]);
      begin_drain t)

let handle_frame t c = function
  | Hjson.Stream.Frame v -> handle_request t c (Protocol.parse_request v)
  | Hjson.Stream.Junk { error; raw = _ } ->
    Metrics.incr t.metrics "serve.requests.rejected";
    write_line t c (Protocol.error_line ~code:"bad-frame" ~detail:error ())
  | Hjson.Stream.Oversized { dropped; max_frame } ->
    Metrics.incr t.metrics "serve.requests.rejected";
    write_line t c
      (Protocol.error_line ~code:"oversized-frame"
         ~detail:
           (Printf.sprintf "frame of %d bytes exceeds the %d byte limit" dropped
              max_frame)
         ())

(* ------------------------------ main loop -------------------------- *)

let deliver_events t clients =
  let batch = locked t (fun () ->
      let items = List.of_seq (Queue.to_seq t.outbox) in
      Queue.clear t.outbox;
      items)
  in
  List.iter
    (fun (jid, line, last) ->
      match find_job t jid with
      | None -> ()
      | Some j ->
        j.events <- line :: j.events;
        let subs = j.subscribers in
        List.iter
          (fun fd ->
            match List.find_opt (fun c -> c.fd == fd) clients with
            | Some c -> write_line t c line
            | None -> ())
          subs;
        (* The [done] line ends the stream: subscribers got their
           closing line and can disconnect. *)
        if last then begin
          j.closed <- true;
          j.subscribers <- []
        end)
    batch

let prune_dead t clients =
  List.filter
    (fun c ->
      if c.alive then true
      else begin
        (try Unix.close c.fd with Unix.Unix_error (_, _, _) -> ());
        locked t (fun () ->
            Hashtbl.iter
              (fun _ j -> j.subscribers <- List.filter (fun fd -> fd != c.fd) j.subscribers)
              t.jobs);
        false
      end)
    clients

let stale_socket_check socket =
  if Sys.file_exists socket then begin
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect probe (Unix.ADDR_UNIX socket) with
      | () -> true
      | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) -> false
      | exception Unix.Unix_error (_, _, _) -> false
    in
    (try Unix.close probe with Unix.Unix_error (_, _, _) -> ());
    if live then
      invalid_arg
        (Printf.sprintf "Serve.Daemon.run: a daemon is already listening on %s" socket);
    (* Leftover of a crashed daemon: safe to reclaim. *)
    try Sys.remove socket with Sys_error _ -> ()
  end

let create ~log cfg =
  let metrics = Metrics.create () in
  let oracle, _ = Cache.oracle ~metrics ~capacity:cfg.oracle_capacity () in
  let graph_of_job, _ = Cache.instances ~metrics ~capacity:cfg.instance_capacity () in
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_w;
  {
    cfg;
    log;
    metrics;
    oracle;
    graph_of_job;
    started_at = Unix.gettimeofday ();
    mx = Mutex.create ();
    cv = Condition.create ();
    queue = Queue.create ();
    jobs = Hashtbl.create 64;
    order = [];
    seq = 0;
    draining = false;
    stopping = false;
    worker_busy = false;
    outbox = Queue.create ();
    wake_r;
    wake_w;
    sigterm = Atomic.make false;
  }

let new_client cfg fd =
  { fd; reader = Hjson.Stream.create ~max_frame:cfg.max_frame (); alive = true }

let run ?(on_ready = fun () -> ()) ?(log = fun _ -> ()) cfg =
  if String.length cfg.socket >= 100 then
    invalid_arg "Serve.Daemon.run: socket path too long for a unix socket";
  stale_socket_check cfg.socket;
  Telemetry.Export.mkdir_p (Filename.dirname cfg.socket);
  let t = create ~log cfg in
  (* A slow or vanished client must never kill the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (try
     Sys.set_signal Sys.sigterm
       (Sys.Signal_handle
          (fun _ ->
            Atomic.set t.sigterm true;
            wake t))
   with Invalid_argument _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket);
  Unix.listen listen_fd 16;
  log (Printf.sprintf "qcongestd listening on %s (pid %d)" cfg.socket (Unix.getpid ()));
  let worker = Thread.create worker_loop t in
  on_ready ();
  let clients = ref [] in
  let drain_byte = Bytes.create 64 in
  let finished = ref false in
  while not !finished do
    let fds = listen_fd :: t.wake_r :: List.map (fun c -> c.fd) !clients in
    let readable =
      match Unix.select fds [] [] 0.5 with
      | r, _, _ -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    if List.memq t.wake_r readable then (
      try ignore (Unix.read t.wake_r drain_byte 0 (Bytes.length drain_byte))
      with Unix.Unix_error (_, _, _) -> ());
    if Atomic.get t.sigterm then begin
      Atomic.set t.sigterm false;
      t.log "SIGTERM: draining in-flight jobs";
      begin_drain t
    end;
    deliver_events t !clients;
    if List.memq listen_fd readable then begin
      match Unix.accept listen_fd with
      | fd, _ ->
        Metrics.incr t.metrics "serve.clients.accepted";
        clients := new_client cfg fd :: !clients
      | exception Unix.Unix_error (_, _, _) -> ()
    end;
    let buf = Bytes.create 8192 in
    List.iter
      (fun c ->
        if c.alive && List.memq c.fd readable then
          match Unix.read c.fd buf 0 (Bytes.length buf) with
          | 0 -> c.alive <- false
          | n ->
            Hjson.Stream.feed_sub c.reader buf ~off:0 ~len:n;
            let rec drain_frames () =
              match Hjson.Stream.next c.reader with
              | Some frame ->
                handle_frame t c frame;
                drain_frames ()
              | None -> ()
            in
            drain_frames ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | exception Unix.Unix_error (_, _, _) -> c.alive <- false)
      !clients;
    deliver_events t !clients;
    clients := prune_dead t !clients;
    (* Drain complete: queue empty and the worker idle. *)
    let drained =
      locked t (fun () ->
          if t.draining && Queue.is_empty t.queue && not t.worker_busy then begin
            t.stopping <- true;
            Condition.broadcast t.cv;
            true
          end
          else false)
    in
    if drained then finished := true
  done;
  Thread.join worker;
  (* Late events the worker posted with its last job. *)
  deliver_events t !clients;
  List.iter
    (fun c ->
      c.alive <- false;
      try Unix.close c.fd with Unix.Unix_error (_, _, _) -> ())
    !clients;
  (try Unix.close listen_fd with Unix.Unix_error (_, _, _) -> ());
  (try Sys.remove cfg.socket with Sys_error _ -> ());
  (try Unix.close t.wake_r with Unix.Unix_error (_, _, _) -> ());
  (try Unix.close t.wake_w with Unix.Unix_error (_, _, _) -> ());
  log "qcongestd: drained and stopped"

module Internal = struct
  type daemon = t
  type conn = client

  let create cfg = create ~log:ignore cfg
  let connect t fd = new_client t.cfg fd

  let request t c line =
    handle_frame t c
      (match Hjson.parse line with
      | Ok v -> Hjson.Stream.Frame v
      | Error error -> Hjson.Stream.Junk { raw = line; error })

  let work t =
    let job =
      locked t (fun () ->
          match Queue.take_opt t.queue with
          | Some job ->
            job.state <- Running;
            job
          | None -> invalid_arg "Serve.Daemon.Internal.work: no queued job")
    in
    execute t job

  let deliver = deliver_events
end

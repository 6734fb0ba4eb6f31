(** [qcongestd]: the persistent simulation service.

    One daemon process serves any number of concurrent clients over a
    Unix-domain socket speaking {!Protocol} (JSONL frames, reassembled
    by {!Harness.Hjson.Stream}). Submissions land in a FIFO job queue
    executed by a single worker thread over the existing
    {!Harness.Runner} machinery — checkpointing into {!Harness.Store},
    seeded retry/quarantine, per-attempt deadlines — so a job's rows,
    reports and certificates are {e bit-identical} to the same
    invocation through the one-shot CLI. What the daemon adds is
    amortization: the content-addressed instance cache and the
    LRU-bounded exact-oracle cache ({!Cache}) persist across jobs, so
    repeat and overlapping work is served warm (hit/miss/eviction
    counters are visible through the [metrics] op as Prometheus
    text).

    Threading model: the main thread owns the socket (accept +
    [select] + frame parsing + replies); the worker thread owns job
    execution and communicates through a mutex-protected outbox,
    waking the main loop via a self-pipe. Progress and completion
    flow to [events] subscribers as JSONL event lines.

    Shutdown is graceful by both paths — a [shutdown] request or
    SIGTERM: new submissions are refused ([draining]), queued and
    in-flight jobs run to completion (checkpointing as they go),
    stores are closed (releasing their locks), every client fd is
    closed and the socket file removed. A SIGKILLed daemon leaves at
    worst a stale store lock and a stale socket file; both are
    reclaimed by the next writer ({!Harness.Store}'s stale-lock steal,
    this module's live-probe of an existing socket). *)

type config = {
  socket : string;  (** Unix-domain socket path (< 100 bytes). *)
  artifacts : string option;
      (** Store/report directory; defaults to the [ARTIFACTS_DIR]
          resolution of {!Telemetry.Export.artifacts_dir}. *)
  runner_jobs : int option;  (** Worker domains per sweep batch. *)
  oracle_capacity : int;  (** Oracle LRU entries (eccentricity arrays). *)
  instance_capacity : int;  (** Instance LRU entries (CSR graphs). *)
  max_frame : int;  (** Per-line byte budget of the frame reader. *)
}

val default_config : socket:string -> config
(** Oracle capacity 64, instance capacity 32, default frame budget,
    everything else inherited from the environment. *)

val run : ?on_ready:(unit -> unit) -> ?log:(string -> unit) -> config -> unit
(** Serve until drained (shutdown request or SIGTERM). Blocks the
    calling thread; [?on_ready] fires once the socket is listening
    (tests and benches start their clients from it). Installs
    SIGTERM/SIGPIPE handlers for the whole process. Raises
    [Invalid_argument] if the socket path is over-long or a live
    daemon already listens on it; a {e stale} socket file (dead
    daemon) is reclaimed silently. *)

(**/**)

(** The daemon's steps, one call each, for tests that must pin an
    interleaving the select loop and the worker thread leave to
    scheduling. Not part of the service API. *)
module Internal : sig
  type daemon
  type conn

  val create : config -> daemon
  (** Daemon state with no listening socket and no worker thread. *)

  val connect : daemon -> Unix.file_descr -> conn
  (** A client on an already connected descriptor. *)

  val request : daemon -> conn -> string -> unit
  (** Handle one request line from [conn], as the main loop does. *)

  val work : daemon -> unit
  (** Run the next queued job to settlement on the calling thread, as
      the worker does; its events wait in the outbox. *)

  val deliver : daemon -> conn list -> unit
  (** Move the outbox into job histories and out to subscribers, as
      the main loop does. *)
end

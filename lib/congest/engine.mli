(** Synchronous CONGEST execution engine.

    Time advances in rounds. In round [r] every *active* node — one
    with a non-empty inbox (messages sent in round [r-1]) or a due
    wake-up — runs its handler, which may send messages to neighbors
    (delivered at round [r+1]) and schedule a future wake-up. The
    engine is event-driven: rounds in which nothing happens are skipped
    in O(1), so simulated round counts are decoupled from wall time.

    Bandwidth is accounted per directed edge per round in words
    (1 word = Θ(log n) bits, the CONGEST bandwidth [B]). By default
    overloads are recorded in the trace rather than enforced; tests
    assert that the protocols stay within their claimed budgets.

    An optional {!Fault} configuration turns the perfect network into
    an adversarial one: messages may be dropped, delayed or
    duplicated, nodes may fail-stop, and bandwidth may be enforced
    (excess words dropped at message granularity). The adversary is
    seeded, so faulty runs are exactly reproducible; with no faults
    configured the execution is bit-for-bit the historical fault-free
    semantics. *)

type 'm envelope = { src : int; msg : 'm }

type 'm action = {
  sends : (int * 'm) list;  (** [(neighbor, message)] pairs. *)
  wakes : int list;  (** Future rounds to be re-activated at; each must
                         be strictly in the future. *)
}

val no_action : 'm action
val send : (int * 'm) list -> 'm action
val send_and_wake : (int * 'm) list -> int -> 'm action
val wake : int -> 'm action
val act : ?sends:(int * 'm) list -> ?wakes:int list -> unit -> 'm action

type ('s, 'm) protocol = {
  name : string;
  size_words : 'm -> int;
      (** Size of a message in CONGEST words; must be [>= 1]. *)
  init : Node_view.t -> 's * 'm action;
      (** Runs at round 0 for every node. *)
  on_round : Node_view.t -> round:int -> 's -> inbox:'m envelope list -> 's * 'm action;
      (** Runs whenever the node is active; [inbox] is sorted by
          sender id. *)
}

type trace = {
  rounds : int;
      (** Communication rounds consumed: 1 + the last round in which a
          message was sent, extended to the last faulty *delivery*
          round when delay jitter is injected (0 for purely local
          protocols). *)
  messages : int;  (** Total messages sent by protocol handlers
                       (includes messages later lost to faults). *)
  words : int;  (** Total words sent by protocol handlers. *)
  max_edge_load : int;
      (** Max words crossing one directed edge in one round. Under
          strict bandwidth this never exceeds the bandwidth. *)
  congestion_violations : int;
      (** Directed-edge-rounds whose load exceeded the bandwidth —
          counted once per edge-round however the overload
          accumulates. *)
  activations : int;  (** Total handler invocations (simulation work). *)
  dropped : int;
      (** Messages lost: random drops, strict-bandwidth drops, and
          deliveries to already-crashed nodes. 0 without faults. *)
  delayed : int;
      (** Message copies that suffered extra delivery jitter. *)
  duplicated : int;  (** Extra network-injected copies. *)
  crashed : int;
      (** Nodes whose fail-stop round fell within the simulated
          horizon. *)
}

val empty_trace : trace

val add_traces : trace -> trace -> trace
(** Sequential composition: rounds and fault event counters add,
    loads take the max; [crashed] takes the max too (a node crashed in
    one phase stays crashed in the next). *)

val pp_trace : Format.formatter -> trace -> unit
(** One-line rendering; fault counters are appended only when any of
    them is non-zero, so fault-free output is unchanged. *)

val trace_to_json : trace -> string
(** Compact single-object JSON encoding of every trace field (plain
    string builder, no external dependency). *)

type limit_info = {
  protocol : string;  (** [protocol.name] of the runaway protocol. *)
  round_reached : int;  (** First scheduled round beyond the limit. *)
  partial : trace;  (** Accounting up to the moment of the abort. *)
}

exception Round_limit_exceeded of limit_info

type deadline_info = {
  deadline_protocol : string;  (** [protocol.name] of the over-budget run. *)
  round_at_deadline : int;  (** Next scheduled round when the budget ran out. *)
  elapsed_s : float;
      (** Seconds since the enforcing {!with_deadline} scope opened;
          always [> budget_s]. *)
  budget_s : float;  (** The enforcing scope's [seconds]. *)
  partial_trace : trace;  (** Accounting up to the moment of the abort. *)
}

exception Deadline_exceeded of deadline_info

type config = {
  bandwidth : int;
      (** Words per directed edge per round; overloads are recorded
          (or, with [Fault.strict_bandwidth], dropped). *)
  max_rounds : int;
      (** Guard against non-terminating protocols: a run scheduling a
          round beyond it raises {!Round_limit_exceeded}. *)
  faults : Fault.t option;  (** The adversary, if any (see {!Fault}). *)
  sink : Telemetry.Events.sink option;  (** Receiver of the event stream. *)
}
(** The network settings of one run. Every layer above the engine
    ([Reliable.run], the [Tree] primitives) forwards one [config]
    unchanged, so a multi-phase algorithm states its settings once. *)

val default_config : config
(** [{ bandwidth = 1; max_rounds = 1_000_000; faults = None; sink = None }]. *)

val with_deadline : ?clock:Telemetry.Clock.t -> seconds:float -> (unit -> 'a) -> 'a
(** [with_deadline ~seconds f] runs [f] with a budget of [seconds]
    measured on [?clock] (default {!Telemetry.Clock.wall}; pass a
    manual clock for deterministic tests) from the moment the scope
    opens. Every {!run} started by [f] on this domain checks it
    cooperatively once per scheduled round — a run never observes the
    deadline mid-round: either the round runs to completion or
    {!Deadline_exceeded} is raised before it starts, reporting this
    scope's [seconds] as [budget_s]. This is the only way to supervise
    a run. The scope is domain-local, so [Util.Domain_pool] workers
    supervise their jobs independently; nested scopes only ever shrink
    the budget (the scope ending first enforces; nesting assumes both
    use the same clock). It sets only the deadline, restoring the
    previous one when [f] returns or raises. Raises [Invalid_argument]
    unless [seconds] is finite and non-negative. *)

val with_phase_spans : (unit -> 'a) -> 'a
(** [with_phase_spans f] runs [f] with phase-span emission enabled:
    every observed {!run} started by [f] on this domain brackets each
    scheduled round into [engine.heap] / [engine.delivery] /
    [engine.compute] {!Telemetry.Events.Span_begin}/[Span_end] pairs
    on its sink, stamped with the wall clock. It shares the
    domain-local scope of {!with_deadline} but sets only the span
    switch, restoring the previous value when [f] returns or raises.
    Runs without a sink are unaffected. *)

val run : ?config:config -> Graphlib.Wgraph.t -> ('s, 'm) protocol -> 's array * trace
(** Execute until quiescence (no pending messages, deliveries or
    wake-ups) under [config] (default {!default_config}). Nodes are
    processed in increasing id order within a round. An illegal action
    — a send to a non-neighbor, a message of size [< 1] word, or a
    wake not strictly in the future — raises [Invalid_argument] with
    the same message as [Engine_reference], with or without faults.

    Outside a {!with_deadline} scope no clock is ever read and
    execution — states, trace, and event stream — is bit-for-bit the
    unsupervised behaviour (pinned against [Engine_reference] by the
    golden-equivalence suite); a deadline that never fires leaves them
    unchanged too.

    [faults] injects the configured adversary (see {!Fault}): the
    drop/duplicate/delay decisions are drawn per message from the
    adversary's private seeded RNG stream, in send order, so runs are
    reproducible. A [Message] event marks every message accepted onto
    the wire (i.e. after a strict-bandwidth drop but before a random
    drop); network-injected duplicate copies emit no second [Message]
    and do not add to edge load.

    Inside a {!with_phase_spans} scope an observed run brackets each
    scheduled round's heap query, delivery work and handler execution
    into [engine.heap]/[engine.delivery]/[engine.compute] span events
    on the sink — the substrate [Profile.Span.of_events] attributes
    wall time with. Spans are pure observation: they require a sink,
    and with them off no clock is read.

    [sink] receives the full structured event stream (see
    {!Telemetry.Events}): [Run_start], per-round [Round_start],
    [Message] on every wire acceptance (duplicate copies emit a
    [Fault Duplicate] once, never a second [Message]; for a
    per-message callback wrap it with
    {!Telemetry.Events.of_on_message}), [Deliver] for fault-path
    deliveries, [Fault] for every adversary action, and [Run_end].
    The stream is complete: [Replay.trace_of_events] reconstructs this
    run's trace counters from it exactly. Event emission is pure
    observation — attaching a sink never changes states or trace. *)

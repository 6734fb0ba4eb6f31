(** Spanning-tree primitives: the backbone of every aggregation in the
    paper's algorithms.

    All operations are honest message-passing protocols run on
    {!Engine}; their round costs are measured, not assumed. The
    standard bounds hold: tree construction and convergecast take
    [O(depth)] rounds, pipelined broadcast/upcast of [k] tokens take
    [O(depth + k)] rounds with unit bandwidth.

    The tree itself (each node's parent/children/level) becomes common
    knowledge distributed across nodes; the [t] value returned to the
    driver is the collection of those local views. Protocols built on a
    tree only ever read their own node's entry. *)

type t = {
  root : int;
  parent : int array;  (** [-1] for the root. *)
  children : int array array;
  level : int array;
  depth : int;  (** Height of the tree = eccentricity of the root. *)
}

val build :
  ?config:Engine.config ->
  ?reliable:Reliable.config ->
  Graphlib.Wgraph.t ->
  root:int ->
  t * Engine.trace
(** BFS spanning tree by flooding, followed by an honest
    convergecast/broadcast so that every node learns [depth]
    ([O(depth)] rounds total). Requires a connected graph.

    [config] (default {!Engine.default_config}) is forwarded
    unchanged to every underlying {!Engine.run}. When it carries
    faults, or [?reliable] is given, every phase runs wrapped in the
    {!Reliable} ack/retransmission combinator with the [?reliable]
    settings (default {!Reliable.default_config}), so the tree built
    under a seeded lossy network matches the fault-free one — at a
    measured round/message overhead recorded in the returned trace.
    Mind the wrapper's 1-word header: with [Fault.strict_bandwidth]
    set, the bandwidth must exceed the largest payload for data to
    flow at all. A [sink] sees every phase — multi-phase operations
    emit one event-stream segment per phase ([Run_start] …
    [Run_end]), which [Replay.trace_of_events] folds back into the
    summed trace these functions return. The same conventions apply
    to every function below, and to {!Reliable.run}. *)

val convergecast :
  ?config:Engine.config ->
  ?reliable:Reliable.config ->
  Graphlib.Wgraph.t ->
  t ->
  values:'a array ->
  combine:('a -> 'a -> 'a) ->
  size_words:('a -> int) ->
  'a * Engine.trace
(** Aggregate one value per node up to the root with an associative,
    commutative [combine]; returns the root's total. [O(depth)] rounds
    when aggregates fit in one message. *)

val broadcast_tokens :
  ?config:Engine.config ->
  ?reliable:Reliable.config ->
  Graphlib.Wgraph.t ->
  t ->
  tokens:'tok list ->
  size_words:('tok -> int) ->
  'tok list array * Engine.trace
(** Pipelined broadcast of the root's token list to every node;
    [O(depth + k)] rounds. Result preserves the root's token order. *)

val upcast :
  ?config:Engine.config ->
  ?reliable:Reliable.config ->
  Graphlib.Wgraph.t ->
  t ->
  items:'tok list array ->
  compare:('tok -> 'tok -> int) ->
  size_words:('tok -> int) ->
  'tok list * Engine.trace
(** Pipelined upward collection of the distinct items held across the
    network ([compare] defines identity); the root ends with the sorted
    deduplicated list. [O(depth + k)] rounds for [k] distinct items. *)

val gather_broadcast :
  ?config:Engine.config ->
  ?reliable:Reliable.config ->
  Graphlib.Wgraph.t ->
  t ->
  items:'tok list array ->
  compare:('tok -> 'tok -> int) ->
  size_words:('tok -> int) ->
  'tok list * Engine.trace
(** {!upcast} then {!broadcast_tokens}: every node (and the caller)
    learns the full sorted item list. [O(depth + k)] rounds. *)

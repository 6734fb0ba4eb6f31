(** The Server model and the Quantum Simulation Lemma (Lemma 4.1).

    Three parties — Alice, Bob and a server whose messages are free —
    simulate a [T]-round CONGEST protocol on the gadget network by a
    sliding ownership schedule: the server starts owning all of [V_S]
    and cedes one position per round from each end of every path (and
    the tree columns above them) to Alice resp. Bob. Only messages that
    Alice or Bob must send *to the server* count toward communication,
    and per round there are at most [2h] of them (tree-boundary
    crossings), giving [O(T·h·B)] total.

    This module implements the schedule, machine-checks its validity
    (every owner has all the inputs it needs each round), and counts
    the actual chargeable words of any real protocol executed on the
    gadget via the engine's message hook. *)

type party = Alice | Bob | Server

val owner : Gadget.t -> round:int -> node:int -> party
(** Ownership at the {e end} of the given round ([round >= 0];
    round 0 = initial). Meaningful for [round < 2^{h-1}]. *)

val max_simulation_rounds : Gadget.t -> int
(** [2^h / 2 - 1]: the largest [T] the schedule supports. *)

type validity = {
  rounds_checked : int;
  valid : bool;
  first_violation : (int * int * int) option;
      (** [(round, node, neighbor)] where an owner would miss an input. *)
}

val check_schedule : Gadget.t -> rounds:int -> validity
(** For each round [r ∈ [1, rounds]] and node [v] owned by party
    [P ∈ {Alice, Bob}] at round [r]: every neighbor of [v] must be
    owned at round [r-1] by [P] or by the server. (Server-owned nodes
    may have A/B neighbors — those are the counted messages.) *)

type count = {
  protocol_rounds : int;
  chargeable_messages : int;
      (** Messages from an Alice/Bob-owned sender (at [r-1]) into a
          server-owned receiver (at [r]). *)
  chargeable_words : int;
  per_round_max : int;
  bound_2h_per_round : bool;  (** Every round stayed within [2h]. *)
}

val count_protocol :
  Gadget.t -> run:(sink:Telemetry.Events.sink -> int) -> count
(** [run ~sink] executes an arbitrary protocol on the gadget graph with
    [sink] attached to its engine runs (it counts the [Message]
    events), and returns the number of rounds it used (which must stay
    below {!max_simulation_rounds}). *)

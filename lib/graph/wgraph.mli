(** Weighted undirected graphs [(G, w)] with [w : E -> ℕ⁺].

    Nodes are integers in [[0, n-1]]. A graph is its compressed sparse
    rows ({!csr}) plus [n], [m] and [W], built once from an edge list;
    every other view (the edge list, degrees, weight lookups) is
    derived from those arrays. Graphs are immutable after
    construction. Parallel edges are collapsed to the minimum weight
    and self-loops are rejected, matching the paper's simple weighted
    graphs. *)

type edge = { u : int; v : int; w : int }

type t

val make : n:int -> edge list -> t
(** Build a graph. Raises [Invalid_argument] on out-of-range endpoints,
    self-loops, or non-positive weights. Parallel edges keep the
    minimum weight. *)

val of_edge_array : n:int -> edge array -> t
(** {!make} without the list: same validation, errors and dedup
    semantics, but O(m) auxiliary space with no intermediate lists or
    hash tables (one temporary sorted copy of the input, compacted in
    place and dropped once the CSR is filled). The batch entry point the generators use so million-edge
    instances build in O(m log m). The input array is not retained or
    mutated. *)

val n : t -> int
(** Number of nodes. *)

val m : t -> int
(** Number of (undirected) edges after de-duplication (cached at
    construction). *)

val edges : t -> edge list
(** Each undirected edge once, with [u < v], in ascending [(u, v)]
    order. Derived from the CSR on every call (O(m) allocation); hot
    loops iterate {!csr} instead. *)

type csr = {
  row_start : int array;  (** Length [n + 1]; node [u]'s arcs occupy
                              [row_start.(u) .. row_start.(u+1) - 1]. *)
  csr_dst : int array;  (** Arc targets, sorted within each row. *)
  csr_w : int array;  (** Arc weights, parallel to [csr_dst]. *)
}
(** Compressed-sparse-row form of the directed arcs (each undirected
    edge appears in both endpoint rows). Flat unboxed [int] arrays —
    the graph's only representation. Neighbor loops (BFS, Dijkstra,
    the engine's per-arc bandwidth ledger) index them directly:
    [for i = row_start.(u) to row_start.(u + 1) - 1 do ... csr_dst.(i)
    ... csr_w.(i) ... done] visits [u]'s neighbors in ascending id. *)

val csr : t -> csr
(** The graph's arrays themselves (no copy); do not mutate. *)

val degree : t -> int -> int

val find_arc : csr -> int -> int -> int
(** [find_arc c u v] is the index of [v] in [u]'s sorted row (the arc
    id of [(u, v)]), or [-1] if they are not adjacent. Binary search:
    O(log deg). No range check. *)

val weight : t -> int -> int -> int option
(** Weight of the edge between two nodes, if present, via
    {!find_arc}. *)

val max_weight : t -> int
(** [W = max_e w(e)]; 1 for edgeless graphs. *)

val is_connected : t -> bool

val with_unit_weights : t -> t
(** Same topology, all weights 1 — the graph [w*] whose diameter is the
    paper's unweighted diameter [D_G]. Shares [row_start] and
    [csr_dst] with its source; O(m), no sort. *)

val map_weights : t -> f:(u:int -> v:int -> w:int -> int) -> t
(** Reweighted copy, used for the Lemma 3.2 scaled weights [w_i].
    Shares [row_start] and [csr_dst] with its source and fills fresh
    weights in O(m), no sort. [f] is called exactly once per edge, in
    the ascending [(u, v)] order of {!edges} (so an [f] that draws
    from an RNG is reproducible), and its result weights both arcs.
    Raises [Invalid_argument "Wgraph.make: non-positive weight"] if
    [f] returns a weight [<= 0]. *)

val induced : t -> int list -> t * int array
(** [induced g nodes] is the subgraph induced by [nodes] (which must be
    distinct), with nodes renumbered [0..k-1] in the order given, plus
    the mapping from new index to original node. *)

val pp : Format.formatter -> t -> unit

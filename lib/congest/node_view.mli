(** What a CONGEST node is allowed to see.

    Protocols receive only this view, which enforces the model's
    locality: a node knows its identifier, the public parameters
    ([n] and the maximum weight [W], which the paper assumes are known
    to all nodes), and its incident edges with their weights. The
    view reads its node's row of the graph's CSR arrays; the row is
    abstract, so protocol code reaches only its own incident edges,
    through the accessors below, and never the global graph. *)

type row
(** The node's incident edges; abstract, so only the accessors below
    read it. *)

type t = {
  id : int;
  n : int;  (** Number of nodes in the network (public). *)
  max_w : int;  (** [W = max_e w(e)] (public, per Appendix A). *)
  row : row;
}

val of_graph : Graphlib.Wgraph.t -> t array
(** One view per node, indexed by id. All views share the graph's
    arrays: a view costs one 4-field record. *)

val degree : t -> int

val is_neighbor : t -> int -> bool
(** O(log deg) binary search over the sorted row. *)

val edge_weight : t -> int -> int option
(** Weight of the edge to a neighbor; [None] for a non-neighbor.
    O(log deg). *)

val iter : t -> (int -> int -> unit) -> unit
(** [iter view f] calls [f neighbor weight] for every incident edge,
    in ascending neighbor id. *)

val to_all : t -> 'm -> (int * 'm) list
(** [to_all view msg] sends [msg] to every neighbor: the send list
    [[(v, msg); ...]] in ascending neighbor id. *)

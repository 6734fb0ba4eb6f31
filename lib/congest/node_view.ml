type row = Graphlib.Wgraph.csr

type t = { id : int; n : int; max_w : int; row : row }

let of_graph g =
  let n = Graphlib.Wgraph.n g and max_w = Graphlib.Wgraph.max_weight g in
  let row = Graphlib.Wgraph.csr g in
  Array.init n (fun id -> { id; n; max_w; row })

let degree t =
  let { Graphlib.Wgraph.row_start; _ } = t.row in
  row_start.(t.id + 1) - row_start.(t.id)

let is_neighbor t v = Graphlib.Wgraph.find_arc t.row t.id v >= 0

let edge_weight t v =
  let i = Graphlib.Wgraph.find_arc t.row t.id v in
  if i < 0 then None else Some t.row.Graphlib.Wgraph.csr_w.(i)

let iter t f =
  let { Graphlib.Wgraph.row_start; csr_dst; csr_w } = t.row in
  for i = row_start.(t.id) to row_start.(t.id + 1) - 1 do
    f csr_dst.(i) csr_w.(i)
  done

let to_all t msg =
  let { Graphlib.Wgraph.row_start; csr_dst; _ } = t.row in
  List.init (degree t) (fun k -> (csr_dst.(row_start.(t.id) + k), msg))

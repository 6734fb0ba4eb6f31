type edge = { u : int; v : int; w : int }

type csr = {
  row_start : int array;
  csr_dst : int array;
  csr_w : int array;
}

type t = { n : int; m : int; max_w : int; csr : csr }

(* Construction is O(m log m) time and O(m) space with no intermediate
   lists or hash tables: validate + normalize into one private array,
   sort it, compact duplicates in place, then fill the CSR rows in one
   pass. The sorted copy is dropped once the CSR is filled: the graph
   keeps only the three CSR arrays. Error messages keep the historical
   "Wgraph.make" prefix whichever entry point raised them. *)
let of_edge_array ~n raw =
  if n < 0 then invalid_arg "Wgraph.make: negative n";
  let m_all = Array.length raw in
  let es = if m_all = 0 then [||] else Array.make m_all raw.(0) in
  for i = 0 to m_all - 1 do
    let { u; v; w } = raw.(i) in
    if u < 0 || u >= n || v < 0 || v >= n then invalid_arg "Wgraph.make: endpoint out of range";
    if u = v then invalid_arg "Wgraph.make: self-loop";
    if w <= 0 then invalid_arg "Wgraph.make: non-positive weight";
    es.(i) <- (if u <= v then raw.(i) else { u = v; v = u; w })
  done;
  (* Sort by (u, v, w): parallel edges become adjacent with their
     minimum weight first, so the compaction below keeps exactly the
     edge the old Hashtbl dedup kept. *)
  Array.sort
    (fun a b ->
      if a.u <> b.u then Int.compare a.u b.u
      else if a.v <> b.v then Int.compare a.v b.v
      else Int.compare a.w b.w)
    es;
  let m = ref 0 in
  for i = 0 to m_all - 1 do
    let e = es.(i) in
    let dup = !m > 0 && (let p = es.(!m - 1) in p.u = e.u && p.v = e.v) in
    if not dup then begin
      es.(!m) <- e;
      incr m
    end
  done;
  let m = !m in
  let row_start = Array.make (n + 1) 0 in
  for i = 0 to m - 1 do
    let { u; v; _ } = es.(i) in
    row_start.(u + 1) <- row_start.(u + 1) + 1;
    row_start.(v + 1) <- row_start.(v + 1) + 1
  done;
  for u = 0 to n - 1 do
    row_start.(u + 1) <- row_start.(u) + row_start.(u + 1)
  done;
  let csr_dst = Array.make (2 * m) 0 in
  let csr_w = Array.make (2 * m) 0 in
  let fill = Array.sub row_start 0 n in
  (* Filling in sorted edge order leaves every CSR row sorted by
     neighbor id: for node x the edges {y, x} with y < x come first
     (ascending y), then {x, z} with z > x (ascending z). [find_arc]
     binary-searches on this. *)
  let add u v w =
    let i = fill.(u) in
    csr_dst.(i) <- v;
    csr_w.(i) <- w;
    fill.(u) <- i + 1
  in
  let max_w = ref 1 in
  for i = 0 to m - 1 do
    let { u; v; w } = es.(i) in
    add u v w;
    add v u w;
    if w > !max_w then max_w := w
  done;
  { n; m; max_w = !max_w; csr = { row_start; csr_dst; csr_w } }

let make ~n raw = of_edge_array ~n (Array.of_list raw)

let n g = g.n
let m g = g.m
let csr g = g.csr

(* Row by row, the arcs with v > u, consed back to front so the list
   comes out in ascending (u, v) order. *)
let edges g =
  let { row_start; csr_dst; csr_w } = g.csr in
  let acc = ref [] in
  for u = g.n - 1 downto 0 do
    for i = row_start.(u + 1) - 1 downto row_start.(u) do
      if csr_dst.(i) > u then acc := { u; v = csr_dst.(i); w = csr_w.(i) } :: !acc
    done
  done;
  !acc

let degree g u = g.csr.row_start.(u + 1) - g.csr.row_start.(u)

let find_arc { row_start; csr_dst; _ } u v =
  let lo = ref row_start.(u) and hi = ref (row_start.(u + 1) - 1) in
  let found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    let x = csr_dst.(mid) in
    if x = v then found := mid else if x < v then lo := mid + 1 else hi := mid - 1
  done;
  !found

let weight g u v =
  if u < 0 || u >= g.n || v < 0 || v >= g.n then invalid_arg "Wgraph.weight";
  let i = find_arc g.csr u v in
  if i < 0 then None else Some g.csr.csr_w.(i)

let max_weight g = g.max_w

let is_connected g =
  if g.n <= 1 then true
  else begin
    let { row_start; csr_dst; _ } = g.csr in
    let seen = Array.make g.n false in
    let queue = Queue.create () in
    Queue.add 0 queue;
    seen.(0) <- true;
    let count = ref 1 in
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      for i = row_start.(u) to row_start.(u + 1) - 1 do
        let v = csr_dst.(i) in
        if not seen.(v) then begin
          seen.(v) <- true;
          incr count;
          Queue.add v queue
        end
      done
    done;
    !count = g.n
  end

let with_unit_weights g =
  { g with max_w = 1; csr = { g.csr with csr_w = Array.make (2 * g.m) 1 } }

(* Same topology, so [row_start] and [csr_dst] are shared and only the
   weights are refilled. [f] runs once per edge in ascending (u, v)
   order — the order [edges] lists them — because callers draw RNG
   values inside it. The arc (v, u) is the next unfilled slot among
   the smaller neighbors at the front of v's row: edges into v are
   visited in ascending u, the order those slots are sorted in. *)
let map_weights g ~f =
  let { row_start; csr_dst; csr_w } = g.csr in
  let csr_w' = Array.make (2 * g.m) 0 in
  let back = Array.sub row_start 0 g.n in
  let max_w = ref 1 in
  for u = 0 to g.n - 1 do
    for i = row_start.(u) to row_start.(u + 1) - 1 do
      let v = csr_dst.(i) in
      if v > u then begin
        let w = f ~u ~v ~w:csr_w.(i) in
        if w <= 0 then invalid_arg "Wgraph.make: non-positive weight";
        csr_w'.(i) <- w;
        csr_w'.(back.(v)) <- w;
        back.(v) <- back.(v) + 1;
        if w > !max_w then max_w := w
      end
    done
  done;
  { g with max_w = !max_w; csr = { g.csr with csr_w = csr_w' } }

let induced g nodes =
  let k = List.length nodes in
  let of_new = Array.of_list nodes in
  let to_new = Hashtbl.create k in
  List.iteri
    (fun i v ->
      if Hashtbl.mem to_new v then invalid_arg "Wgraph.induced: duplicate node";
      Hashtbl.replace to_new v i)
    nodes;
  let sub_edges =
    List.filter_map
      (fun { u; v; w } ->
        match (Hashtbl.find_opt to_new u, Hashtbl.find_opt to_new v) with
        | Some u', Some v' -> Some { u = u'; v = v'; w }
        | _ -> None)
      (edges g)
  in
  (make ~n:k sub_edges, of_new)

let pp ppf g =
  Format.fprintf ppf "@[<v>graph n=%d m=%d@," g.n g.m;
  List.iter (fun { u; v; w } -> Format.fprintf ppf "  %d -[%d]- %d@," u w v) (edges g);
  Format.fprintf ppf "@]"

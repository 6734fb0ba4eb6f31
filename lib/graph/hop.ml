let lex_compare (d1, h1) (d2, h2) =
  let c = Dist.compare d1 d2 in
  if c <> 0 then c else Dist.compare h1 h2

let distances g ~src =
  let n = Wgraph.n g in
  if src < 0 || src >= n then invalid_arg "Hop.distances";
  let { Wgraph.row_start; csr_dst; csr_w } = Wgraph.csr g in
  let dist = Array.make n Dist.inf in
  let hops = Array.make n Dist.inf in
  let pq = Util.Pqueue.create ~n ~compare:lex_compare in
  dist.(src) <- 0;
  hops.(src) <- 0;
  Util.Pqueue.insert pq ~key:src ~prio:(0, 0);
  let rec loop () =
    match Util.Pqueue.pop_min pq with
    | None -> ()
    | Some (u, (du, hu)) ->
      if du = dist.(u) && hu = hops.(u) then
        for i = row_start.(u) to row_start.(u + 1) - 1 do
          let v = csr_dst.(i) in
          let cand = (Dist.add du csr_w.(i), Dist.add hu 1) in
          if lex_compare cand (dist.(v), hops.(v)) < 0 then begin
            dist.(v) <- fst cand;
            hops.(v) <- snd cand;
            Util.Pqueue.insert_or_decrease pq ~key:v ~prio:cand
          end
        done;
      loop ()
  in
  loop ();
  (dist, hops)

let hop_distance g ~u ~v =
  let _, hops = distances g ~src:u in
  hops.(v)

let hop_diameter g =
  let n = Wgraph.n g in
  if n <= 1 then 0
  else begin
    let best = ref 0 in
    for src = 0 to n - 1 do
      let _, hops = distances g ~src in
      Array.iter (fun h -> if h > !best then best := h) hops
    done;
    !best
  end

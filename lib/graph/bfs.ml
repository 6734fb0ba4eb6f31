let distances g ~src =
  let n = Wgraph.n g in
  if src < 0 || src >= n then invalid_arg "Bfs.distances";
  let { Wgraph.row_start; csr_dst; _ } = Wgraph.csr g in
  let dist = Array.make n Dist.inf in
  let queue = Queue.create () in
  dist.(src) <- 0;
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    for i = row_start.(u) to row_start.(u + 1) - 1 do
      let v = csr_dst.(i) in
      if Dist.is_inf dist.(v) then begin
        dist.(v) <- dist.(u) + 1;
        Queue.add v queue
      end
    done
  done;
  dist

let eccentricity g ~src = Array.fold_left max 0 (distances g ~src)

let diameter g =
  let n = Wgraph.n g in
  if n <= 1 then 0
  else begin
    let best = ref 0 in
    for src = 0 to n - 1 do
      best := max !best (eccentricity g ~src)
    done;
    !best
  end

let radius g =
  let n = Wgraph.n g in
  if n <= 1 then 0
  else begin
    let best = ref Dist.inf in
    for src = 0 to n - 1 do
      best := min !best (eccentricity g ~src)
    done;
    !best
  end

let tree g ~root =
  let n = Wgraph.n g in
  if root < 0 || root >= n then invalid_arg "Bfs.tree";
  let { Wgraph.row_start; csr_dst; _ } = Wgraph.csr g in
  let parent = Array.make n (-1) in
  let seen = Array.make n false in
  let queue = Queue.create () in
  seen.(root) <- true;
  Queue.add root queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    for i = row_start.(u) to row_start.(u + 1) - 1 do
      let v = csr_dst.(i) in
      if not seen.(v) then begin
        seen.(v) <- true;
        parent.(v) <- u;
        Queue.add v queue
      end
    done
  done;
  parent

let argmax_finite dist =
  let best = ref 0 in
  Array.iteri (fun i d -> if Dist.is_finite d && d > dist.(!best) then best := i) dist;
  !best

let double_sweep_lower_bound g ~rng =
  let n = Wgraph.n g in
  if n <= 1 then 0
  else begin
    let s = Util.Rng.int rng n in
    let d1 = distances g ~src:s in
    let far = argmax_finite d1 in
    eccentricity g ~src:far
  end

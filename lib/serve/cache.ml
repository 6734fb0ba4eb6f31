module Metrics = Telemetry.Metrics

(* ------------------------------ LRU -------------------------------- *)

module Lru = struct
  type 'a entry = { value : 'a; mutable stamp : int }

  type 'a t = {
    name : string;
    capacity : int;
    tbl : (string, 'a entry) Hashtbl.t;
    (* Recency queue with lazy deletion: each (key, stamp) pair is
       live only while it matches the entry's current stamp; a
       re-touched key leaves its old pair behind as a tombstone that
       eviction skips. O(1) amortized, no doubly-linked plumbing. *)
    order : (string * int) Queue.t;
    mutable tick : int;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
    metrics : Metrics.t option;
    mutex : Mutex.t;
  }

  let create ?metrics ~name ~capacity () =
    if capacity < 0 then invalid_arg "Serve.Cache.Lru.create: capacity must be >= 0";
    {
      name;
      capacity;
      tbl = Hashtbl.create (max 16 capacity);
      order = Queue.create ();
      tick = 0;
      hits = 0;
      misses = 0;
      evictions = 0;
      metrics;
      mutex = Mutex.create ();
    }

  let locked t f =
    Mutex.lock t.mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

  let metric t leaf = Printf.sprintf "serve.cache.%s.%s" t.name leaf

  let count t leaf =
    match t.metrics with None -> () | Some m -> Metrics.incr m (metric t leaf)

  let touch t key entry =
    t.tick <- t.tick + 1;
    entry.stamp <- t.tick;
    Queue.add (key, t.tick) t.order

  let evict_to_capacity t =
    while Hashtbl.length t.tbl > t.capacity do
      match Queue.take_opt t.order with
      | None -> assert false (* every resident key has a live queue pair *)
      | Some (key, stamp) -> (
        match Hashtbl.find_opt t.tbl key with
        | Some e when e.stamp = stamp ->
          Hashtbl.remove t.tbl key;
          t.evictions <- t.evictions + 1;
          count t "evictions"
        | Some _ | None -> () (* tombstone of a re-touched or evicted key *))
    done;
    match t.metrics with
    | None -> ()
    | Some m -> Metrics.set_gauge m (metric t "size") (float_of_int (Hashtbl.length t.tbl))

  let find_or_add t key compute =
    locked t @@ fun () ->
    match Hashtbl.find_opt t.tbl key with
    | Some e ->
      t.hits <- t.hits + 1;
      count t "hits";
      touch t key e;
      e.value
    | None ->
      t.misses <- t.misses + 1;
      count t "misses";
      let value = compute () in
      if t.capacity > 0 then begin
        let e = { value; stamp = 0 } in
        Hashtbl.replace t.tbl key e;
        touch t key e;
        evict_to_capacity t
      end;
      value

  let mem t key = locked t @@ fun () -> Hashtbl.mem t.tbl key
  let length t = locked t @@ fun () -> Hashtbl.length t.tbl
  let capacity t = t.capacity

  type stats = { hits : int; misses : int; evictions : int }

  let stats t =
    locked t @@ fun () ->
    { hits = t.hits; misses = t.misses; evictions = t.evictions }
end

(* -------------------------- fingerprints --------------------------- *)

(* Hashes the edges in [Wgraph.edges] order — row by row, the arcs
   (u, v) with v > u — read straight off the CSR. *)
let graph_fingerprint g =
  let n = Graphlib.Wgraph.n g in
  let { Graphlib.Wgraph.row_start; csr_dst; csr_w } = Graphlib.Wgraph.csr g in
  let b = Buffer.create 4096 in
  Buffer.add_string b "n=";
  Buffer.add_string b (string_of_int n);
  for u = 0 to n - 1 do
    for i = row_start.(u) to row_start.(u + 1) - 1 do
      if csr_dst.(i) > u then begin
        Buffer.add_char b ';';
        Buffer.add_string b (string_of_int u);
        Buffer.add_char b ',';
        Buffer.add_string b (string_of_int csr_dst.(i));
        Buffer.add_char b ',';
        Buffer.add_string b (string_of_int csr_w.(i))
      end
    done
  done;
  Harness.Fnv.hex64 (Buffer.contents b)

let cell_key (spec : Harness.Spec.t) ~n ~seed =
  Harness.Fnv.hex64
    (Printf.sprintf "instance;family=%s;max_w=%d;n=%d;seed=%d"
       (Harness.Spec.family_name spec.Harness.Spec.family)
       spec.Harness.Spec.max_w n seed)

(* ----------------------------- oracle ------------------------------ *)

let oracle ?metrics ~capacity () =
  let lru : Graphlib.Dist.t array Lru.t =
    Lru.create ?metrics ~name:"oracle" ~capacity ()
  in
  let cached suffix compute g =
    (* Content-addressed, not identity-addressed: two structurally
       equal graphs (e.g. the same cell rebuilt for two rows) share
       one entry, and a different graph can never alias it. *)
    Lru.find_or_add lru (graph_fingerprint g ^ suffix) (fun () -> compute g)
  in
  let t =
    {
      Check.Oracle.weighted_ecc = cached ":w" Check.Oracle.direct.Check.Oracle.weighted_ecc;
      Check.Oracle.hop_ecc = cached ":h" Check.Oracle.direct.Check.Oracle.hop_ecc;
    }
  in
  (t, lru)

(* ---------------------------- instances ---------------------------- *)

let instances ?metrics ~capacity () =
  let lru : Graphlib.Wgraph.t Lru.t =
    Lru.create ?metrics ~name:"instance" ~capacity ()
  in
  let graph_of_job (spec : Harness.Spec.t) (j : Harness.Spec.job) =
    Lru.find_or_add lru
      (cell_key spec ~n:j.Harness.Spec.n ~seed:j.Harness.Spec.seed)
      (fun () ->
        Harness.Runner.make_graph spec ~n:j.Harness.Spec.n ~seed:j.Harness.Spec.seed)
  in
  (graph_of_job, lru)

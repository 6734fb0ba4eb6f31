(* The benchmark's own span recorder. Spans are recorded around the
   public calls the benchmark makes into each layer: name, start, end,
   parent and op id, plus the allocation the span's domain made while
   it was open. They stay in memory and are written out once, at the
   end of a traced run. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** [-1] for a root span. *)
  op : int;  (** Spans of one op share this id. *)
  start : float;
  stop : float;
  minor_words : float;  (** Exact, from [Gc.minor_words]. *)
  promoted_words : float;
  major_gcs : int;
}

type recorder = {
  origin : float;  (** Creation time; the trace file's times count from it. *)
  mx : Mutex.t;
  mutable spans : t list;  (** Reversed recording order. *)
  mutable next : int;
  mutable open_ : int list;  (** Enclosing spans of [with_span], innermost first. *)
}

let create () =
  { origin = Unix.gettimeofday (); mx = Mutex.create (); spans = []; next = 0; open_ = [] }

let locked r f =
  Mutex.lock r.mx;
  Fun.protect ~finally:(fun () -> Mutex.unlock r.mx) f

let fresh_id r =
  locked r (fun () ->
      let id = r.next in
      r.next <- id + 1;
      id)

let add r s = locked r (fun () -> r.spans <- s :: r.spans)

(* A span whose times the caller measured itself (the serve client's
   submit/ack/done timestamps, taken on two threads). *)
let record r ?(parent = -1) ~op ~name ~start ~stop () =
  let id = fresh_id r in
  add r
    { id; name; parent; op; start; stop; minor_words = 0.0; promoted_words = 0.0; major_gcs = 0 };
  id

(* A nested span around [f] on the calling (single) thread. *)
let with_span r ~op name f =
  let id = fresh_id r in
  let parent = match r.open_ with p :: _ -> p | [] -> -1 in
  r.open_ <- id :: r.open_;
  let q0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let start = Unix.gettimeofday () in
  let finish () =
    let stop = Unix.gettimeofday () in
    let w1 = Gc.minor_words () in
    let q1 = Gc.quick_stat () in
    r.open_ <- List.tl r.open_;
    add r
      {
        id;
        name;
        parent;
        op;
        start;
        stop;
        minor_words = w1 -. w0;
        promoted_words = q1.Gc.promoted_words -. q0.Gc.promoted_words;
        major_gcs = q1.Gc.major_collections - q0.Gc.major_collections;
      }
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let spans r = locked r (fun () -> List.rev r.spans)

let wall s = s.stop -. s.start

let named r name = List.filter (fun s -> s.name = name) (spans r)

(* Self time: the span's wall minus the part its direct children cover
   (children never overlap one another here). *)
let self_time all s =
  let covered =
    List.fold_left
      (fun acc c -> if c.parent = s.id then acc +. wall c else acc)
      0.0 all
  in
  wall s -. covered

let to_json r =
  let module J = Telemetry.Tjson in
  let time t = Printf.sprintf "%.6f" (t -. r.origin) in
  J.arr
    (List.map
       (fun s ->
         J.obj
           [
             ("id", J.int s.id);
             ("name", J.str s.name);
             ("parent", J.int s.parent);
             ("op", J.int s.op);
             ("start_s", time s.start);
             ("end_s", time s.stop);
             ("minor_words", J.float s.minor_words);
             ("promoted_words", J.float s.promoted_words);
             ("major_gcs", J.int s.major_gcs);
           ])
       (spans r))

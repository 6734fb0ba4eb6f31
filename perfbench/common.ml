(* What every workload shares: the run configuration, the outcome a
   workload hands back, and small helpers. *)

type config = {
  workload : string;
  seed : int;
  seconds : float;  (** Length of the measured window. *)
  trace : bool;  (** Separate traced run: per-layer metrics instead of end-to-end. *)
  smoke : bool;  (** Tiny sizes, for the benchmark's own tests. *)
  tamper : bool;  (** Negative control: corrupt every output before it is checked. *)
  qcongest : string;  (** The qcongest executable ([serve-mixed] runs its daemon). *)
  out_dir : string;  (** Traces and daemon state go here. *)
}

type outcome = {
  setup_s : float;  (** Mean over the run's set-ups. *)
  op_walls : float list;  (** One wall time per measured op, seconds. *)
  op_refs : float list;
      (** The same ops in refs: each wall over the [Refspeed] kernel's
          time measured next to it. *)
  ops_per_ref : float;
  ref_s : float;  (** Median [Refspeed] kernel time over the run, seconds. *)
  attempted : int;
  failed : int;  (** Ops that raised or whose output failed its check. *)
  alloc_words_per_op : float;
  peak_rss_mb : float;
  broken : string list;
      (** Invariants the run itself broke: same-input ops that
          disagreed, a daemon left alive. Any entry fails the run. *)
  layers : (string * float) list;  (** Per-layer metrics (traced run only). *)
}

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let median = function [] -> 0.0 | xs -> Util.Stats.median xs
let percentile p = function [] -> 0.0 | xs -> Util.Stats.percentile xs ~p
let mean = function [] -> 0.0 | xs -> Util.Stats.mean xs
let sum = List.fold_left ( +. ) 0.0
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Ops on the same input must agree to the word. [expect] remembers the
   first reading of each (input, counter) and reports every later one
   that differs. *)
type witness = (string, float) Hashtbl.t

let witness () : witness = Hashtbl.create 16

let expect (w : witness) broken ~input ~counter value =
  let key = input ^ "/" ^ counter in
  match Hashtbl.find_opt w key with
  | None -> Hashtbl.replace w key value
  | Some v0 when v0 = value -> ()
  | Some v0 ->
    broken :=
      Printf.sprintf "%s: %s read %.0f, earlier %.0f on the same input" input counter value v0
      :: !broken

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

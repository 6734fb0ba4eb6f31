(* A naive graph reference for the representation tests: a raw edge
   list with parallel edges in both orientations, and the Hashtbl it
   must normalize to — endpoint pair (min, max) -> minimum weight. *)

open Graphlib

let raw_edges seed =
  let rng = Util.Rng.create ~seed in
  let n = 1 + Util.Rng.int rng 12 in
  let raw = ref [] in
  if n >= 2 then
    for _ = 1 to Util.Rng.int rng (3 * n) do
      let u = Util.Rng.int rng n in
      let v = (u + 1 + Util.Rng.int rng (n - 1)) mod n in
      raw := { Wgraph.u; v; w = Util.Rng.int_in rng ~lo:1 ~hi:20 } :: !raw;
      if Util.Rng.int rng 3 = 0 then
        raw := { Wgraph.u = v; v = u; w = Util.Rng.int_in rng ~lo:1 ~hi:20 } :: !raw
    done;
  (n, !raw)

let table raw =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun { Wgraph.u; v; w } ->
      let key = (min u v, max u v) in
      match Hashtbl.find_opt tbl key with
      | Some w' when w' <= w -> ()
      | _ -> Hashtbl.replace tbl key w)
    raw;
  tbl

(* Normalized edges, ascending (u, v). *)
let edges tbl =
  Hashtbl.fold (fun (u, v) w acc -> { Wgraph.u; v; w } :: acc) tbl []
  |> List.sort (fun (a : Wgraph.edge) b -> compare (a.u, a.v) (b.u, b.v))

let weight tbl u v = if u = v then None else Hashtbl.find_opt tbl (min u v, max u v)

(* Node [u]'s incident edges as (neighbor, weight), ascending neighbor. *)
let row tbl u =
  Hashtbl.fold
    (fun (a, b) w acc -> if a = u then (b, w) :: acc else if b = u then (a, w) :: acc else acc)
    tbl []
  |> List.sort compare

let max_weight tbl = Hashtbl.fold (fun _ w acc -> max w acc) tbl 1

(* The host's speed, read from a fixed piece of work. The benchmark's
   hosts share their cores and caches with other tenants, and the same
   op takes 20-40% longer for minutes at a time when those are busy.
   Timing this kernel next to the ops and dividing by it cancels that
   drift. It calls no qcongest code and allocates nothing, so neither a
   change to the program nor its GC settings can move it. *)

let size = 1 lsl 16

(* Outside the OCaml heap: a 512 KB block in the heap let the major GC
   grow the program's heap to several times its size. *)
let cells = Bigarray.(Array1.create int c_layout size)

(* Ciura's gaps. A shell sort, because [Array.sort] allocates. *)
let gaps = [| 1750; 701; 301; 132; 57; 23; 10; 4; 1 |]

let shell_sort (a : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t) =
  for g = 0 to Array.length gaps - 1 do
    let gap = gaps.(g) in
    for i = gap to size - 1 do
      let v = a.{i} in
      let j = ref i in
      while !j >= gap && a.{!j - gap} > v do
        a.{!j} <- a.{!j - gap};
        j := !j - gap
      done;
      a.{!j} <- v
    done
  done

let kernel () =
  (* xorshift: the same array on every call. *)
  let x = ref 0x2545F4914F6CDD1D in
  for i = 0 to size - 1 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    cells.{i} <- !x land 0xFFFFFF
  done;
  shell_sort cells;
  (* A dependent walk, so memory latency counts too. *)
  let j = ref 0 in
  for _ = 1 to 4 * size do
    j := (cells.{!j} + !j + 1) land (size - 1)
  done;
  ignore (Sys.opaque_identity !j)

(* Seconds per kernel call: the median of [reps] timed calls. *)
let measure ?(reps = 5) () =
  Util.Stats.median
    (List.init reps (fun _ ->
         let t0 = Unix.gettimeofday () in
         kernel ();
         Unix.gettimeofday () -. t0))

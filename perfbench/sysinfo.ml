(* Process readings from /proc (Linux). *)

let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)

let proc pid = match pid with None -> "/proc/self" | Some p -> Printf.sprintf "/proc/%d" p

(* VmHWM (peak resident set) in MB; 0 when /proc is not readable. *)
let peak_rss_mb ?pid () =
  match read_file (proc pid ^ "/status") with
  | exception Sys_error _ -> 0.0
  | text ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_string kb /. 1024.0
          | [] -> acc)
        | _ -> acc)
      0.0
      (String.split_on_char '\n' text)

(* utime + stime of [pid] in seconds. The fields after the command
   name (which may hold spaces) start at the last ')'; utime and stime
   are fields 14 and 15, counted in USER_HZ = 100 ticks per second. *)
let cpu_s pid =
  match read_file (proc (Some pid) ^ "/stat") with
  | exception Sys_error _ -> 0.0
  | text -> (
    let from = String.rindex text ')' + 2 in
    let rest = String.sub text from (String.length text - from) in
    match List.filteri (fun i _ -> i = 11 || i = 12) (String.split_on_char ' ' rest) with
    | [ u; s ] -> (float_of_string u +. float_of_string s) /. 100.0
    | _ -> 0.0)

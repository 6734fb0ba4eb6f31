let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (* A concurrent creator is fine; only a genuine failure should
       escape. *)
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let artifacts_dir ?override () =
  let dir =
    match override with
    | Some d when d <> "" -> d
    | _ -> (
      match Sys.getenv_opt "ARTIFACTS_DIR" with
      | Some d when d <> "" -> d
      | _ -> "bench_artifacts")
  in
  mkdir_p dir;
  dir

let write_file ~path content =
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  output_string oc content;
  close_out oc

let write_file_atomic ?(fsync = false) ~path content =
  mkdir_p (Filename.dirname path);
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc content;
  (* The flush hands the bytes to the OS before the rename publishes
     them; only an [fsync] forces them onto the platter first, so a
     power cut cannot leave a complete-looking but stale file. *)
  flush oc;
  if fsync then Unix.fsync (Unix.descr_of_out_channel oc);
  close_out oc;
  Sys.rename tmp path

let write_artifact ?dir ~name content =
  let path = Filename.concat (artifacts_dir ?override:dir ()) name in
  let body =
    let len = String.length content in
    if len > 0 && content.[len - 1] = '\n' then content else content ^ "\n"
  in
  write_file ~path body;
  path

let write_events_jsonl ~path events =
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  Events.write_jsonl oc events;
  close_out oc

(* ------------------------- chrome trace-event ---------------------- *)

(* 1 simulated round = 1000 trace µs, so round boundaries land on
   millisecond gridlines in the Perfetto UI. *)
let us_of_round r = r * 1000

let chrome_trace ?(process_name = "qcongest") events =
  let pid_tid = [ ("pid", Tjson.int 0); ("tid", Tjson.int 0) ] in
  let instant name ~round args =
    Tjson.obj
      ([ ("name", Tjson.str name); ("ph", Tjson.str "i"); ("ts", Tjson.int (us_of_round round));
         ("s", Tjson.str "t") ]
      @ pid_tid
      @ [ ("args", Tjson.obj args) ])
  in
  let metadata =
    Tjson.obj
      ([ ("name", Tjson.str "process_name"); ("ph", Tjson.str "M") ] @ pid_tid
      @ [ ("args", Tjson.obj [ ("name", Tjson.str process_name) ]) ])
  in
  let span_event ph ~name ~round ~wall_s =
    Tjson.obj
      ([ ("name", Tjson.str name); ("ph", Tjson.str ph); ("ts", Tjson.int (us_of_round round)) ]
      @ pid_tid
      @ [ ("args", Tjson.obj [ ("wall_s", Tjson.float wall_s) ]) ])
  in
  let warning ~round code args =
    instant "trace_warning" ~round (("code", Tjson.str code) :: args)
  in
  (* Balanced-by-construction span handling: an interrupted run (e.g.
     Deadline_exceeded mid-phase) leaves Span_begin events with no
     matching Span_end, and a raw "B" without its "E" renders as a
     span of infinite duration (or is rejected outright) in the
     trace viewers. Track the open-span stack, unwinding it by
     [Events.close_span]; close every dangling span synthetically at
     the last event's position and surface each repair as a structured
     "trace_warning" instant. A stray Span_end is dropped (never
     emitted as an unmatched "E") with the same warning treatment. *)
  let open_spans = ref [] in
  let last_round = ref 0 and last_wall = ref 0.0 in
  let trace_events =
    List.concat_map
      (fun (ev : Events.t) ->
        (match ev with
        | Events.Run_start _ -> ()
        | Events.Round_start { round; _ }
        | Events.Message { round; _ }
        | Events.Deliver { round; _ }
        | Events.Fault { round; _ }
        | Events.Run_end { round } ->
          if round > !last_round then last_round := round
        | Events.Span_begin { round; wall_s; _ } | Events.Span_end { round; wall_s; _ } ->
          if round > !last_round then last_round := round;
          if wall_s > !last_wall then last_wall := wall_s);
        match ev with
        | Events.Run_start { protocol; n; bandwidth } ->
          [ instant "run_start" ~round:0
              [ ("protocol", Tjson.str protocol); ("n", Tjson.int n);
                ("bandwidth", Tjson.int bandwidth) ] ]
        | Events.Round_start { round; active } ->
          [ Tjson.obj
              ([ ("name", Tjson.str "active_nodes"); ("ph", Tjson.str "C");
                 ("ts", Tjson.int (us_of_round round)) ]
              @ pid_tid
              @ [ ("args", Tjson.obj [ ("active", Tjson.int active) ]) ]) ]
        | Events.Message _ | Events.Deliver _ ->
          (* Per-message instants overwhelm the viewer; the timeline /
             heatmap CSVs carry that granularity instead. *)
          []
        | Events.Fault { round; node; peer; kind } ->
          [ instant
              ("fault:" ^ Events.fault_kind_name kind)
              ~round
              ([ ("node", Tjson.int node); ("peer", Tjson.int peer) ]
              @
              match kind with
              | Events.Delay j -> [ ("jitter", Tjson.int j) ]
              | Events.Drop_bandwidth w -> [ ("words", Tjson.int w) ]
              | _ -> []) ]
        | Events.Span_begin { name; round; wall_s } ->
          open_spans := name :: !open_spans;
          [ span_event "B" ~name ~round ~wall_s ]
        | Events.Span_end { name; round; wall_s } -> (
          match Events.close_span ~name:Fun.id !open_spans name with
          | Some (closed, rest) ->
            open_spans := rest;
            (* Spans the end skips over are closed synthetically so
               nesting stays well-formed, each with a warning. *)
            List.concat_map
              (fun top ->
                if top = name then [ span_event "E" ~name ~round ~wall_s ]
                else
                  [ warning ~round "unbalanced_span_closed" [ ("span", Tjson.str top) ];
                    span_event "E" ~name:top ~round ~wall_s ])
              closed
          | None ->
            (* A stray end with no matching begin: emitting the "E"
               would unbalance the trace, so drop it and record why. *)
            [ warning ~round "span_end_without_begin" [ ("span", Tjson.str name) ] ])
        | Events.Run_end { round } -> [ instant "run_end" ~round [] ])
      events
  in
  (* Anything still open after the last event is a span interrupted by
     an exception (deadline, round limit, crash): synthesize its close
     at the last observed position, innermost first. *)
  let synthetic_closes =
    List.concat_map
      (fun name ->
        [ warning ~round:!last_round "unbalanced_span_closed" [ ("span", Tjson.str name) ];
          span_event "E" ~name ~round:!last_round ~wall_s:!last_wall ])
      !open_spans
  in
  Tjson.obj
    [ ("traceEvents", Tjson.arr ((metadata :: trace_events) @ synthetic_closes));
      ("displayTimeUnit", Tjson.str "ms") ]

let write_chrome_trace ?process_name ~path events =
  write_file ~path (chrome_trace ?process_name events)

(* ------------------------------- CSVs ------------------------------ *)

type row = {
  mutable active : int;
  mutable messages : int;
  mutable words : int;
  mutable delivers : int;
  mutable faults : int;
}

let timeline_csv events =
  let tbl : (int, row) Hashtbl.t = Hashtbl.create 64 in
  let row round =
    match Hashtbl.find_opt tbl round with
    | Some r -> r
    | None ->
      let r = { active = 0; messages = 0; words = 0; delivers = 0; faults = 0 } in
      Hashtbl.replace tbl round r;
      r
  in
  List.iter
    (fun (ev : Events.t) ->
      match ev with
      | Events.Round_start { round; active } -> (row round).active <- (row round).active + active
      | Events.Message { round; words; _ } ->
        let r = row round in
        r.messages <- r.messages + 1;
        r.words <- r.words + words
      | Events.Deliver { round; _ } -> (row round).delivers <- (row round).delivers + 1
      | Events.Fault { round; _ } -> (row round).faults <- (row round).faults + 1
      | _ -> ())
    events;
  let rounds = Hashtbl.fold (fun r _ acc -> r :: acc) tbl [] |> List.sort compare in
  let b = Buffer.create 256 in
  Buffer.add_string b "round,active,messages,words,delivers,faults\n";
  List.iter
    (fun round ->
      let r = Hashtbl.find tbl round in
      Buffer.add_string b
        (Printf.sprintf "%d,%d,%d,%d,%d,%d\n" round r.active r.messages r.words r.delivers
           r.faults))
    rounds;
  Buffer.contents b

(* --------------------------- Prometheus ---------------------------- *)

(* Metric names must match [a-zA-Z_:][a-zA-Z0-9_:]*; the registry's
   dot-separated names map onto underscores, anything else illegal is
   squashed to '_' too. *)
let prom_name ~namespace name =
  let b = Buffer.create (String.length namespace + String.length name + 1) in
  Buffer.add_string b namespace;
  Buffer.add_char b '_';
  String.iter
    (fun c ->
      if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') then
        Buffer.add_char b c
      else Buffer.add_char b '_')
    name;
  Buffer.contents b

(* Prometheus sample values are plain decimal numbers; reuse the JSON
   float printer (integral values exact below 2^53, NaN/inf squashed
   to 0 — acceptable for this registry, which never emits them). *)
let prom_float = Tjson.float

let prometheus ?(namespace = "qcongest") (snapshot : Metrics.snapshot) =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  List.iter
    (fun name ->
      let pname = prom_name ~namespace name in
      match
        ( Metrics.counter_value snapshot name,
          Metrics.gauge_value snapshot name,
          Metrics.histogram_stats snapshot name )
      with
      | Some c, _, _ ->
        line "# HELP %s %s" pname name;
        line "# TYPE %s counter" pname;
        line "%s %d" pname c
      | _, Some g, _ ->
        line "# HELP %s %s" pname name;
        line "# TYPE %s gauge" pname;
        line "%s %s" pname (prom_float g)
      | _, _, Some h ->
        line "# HELP %s %s" pname name;
        line "# TYPE %s histogram" pname;
        (* The registry stores per-bucket occupancy; exposition wants
           cumulative counts per upper bound. *)
        let cum = ref 0 in
        List.iter
          (fun (le, count) ->
            cum := !cum + count;
            line "%s_bucket{le=\"%d\"} %d" pname le !cum)
          h.Metrics.buckets;
        line "%s_bucket{le=\"+Inf\"} %d" pname h.Metrics.count;
        line "%s_sum %d" pname h.Metrics.sum;
        line "%s_count %d" pname h.Metrics.count;
        (* Percentile estimates at bucket resolution, as a sibling
           gauge family (a histogram family itself may only expose
           _bucket/_sum/_count samples). *)
        List.iter
          (fun (suffix, p) ->
            match Metrics.percentile h p with
            | Some v ->
              line "# TYPE %s_%s gauge" pname suffix;
              line "%s_%s %d" pname suffix v
            | None -> ())
          [ ("p50", 50.0); ("p90", 90.0); ("p99", 99.0) ]
      | None, None, None -> ())
    (Metrics.names snapshot);
  Buffer.contents b

let heatmap_csv events =
  let tbl : (int * int, int * int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (ev : Events.t) ->
      match ev with
      | Events.Message { src; dst; words; _ } ->
        let m, w = Option.value ~default:(0, 0) (Hashtbl.find_opt tbl (src, dst)) in
        Hashtbl.replace tbl (src, dst) (m + 1, w + words)
      | _ -> ())
    events;
  let edges = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare in
  let b = Buffer.create 256 in
  Buffer.add_string b "src,dst,messages,words\n";
  List.iter
    (fun ((src, dst), (m, w)) -> Buffer.add_string b (Printf.sprintf "%d,%d,%d,%d\n" src dst m w))
    edges;
  Buffer.contents b

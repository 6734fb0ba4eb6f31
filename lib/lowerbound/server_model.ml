type party = Alice | Bob | Server

let owner (gd : Gadget.t) ~round ~node =
  let { Gadget.h; _ } = gd.Gadget.p in
  let two_h = Util.Int_math.pow 2 h in
  match gd.Gadget.kind_of.(node) with
  | Gadget.A _ | Gadget.A_router _ | Gadget.A_star _ | Gadget.A_zero -> Alice
  | Gadget.B _ | Gadget.B_router _ | Gadget.B_star _ -> Bob
  | Gadget.Path { pos; _ } ->
    if pos < 1 + round then Alice else if pos > two_h - round then Bob else Server
  | Gadget.Tree { depth; pos } ->
    let shift = Util.Int_math.pow 2 (h - depth) in
    let lo = Util.Int_math.ceil_div (1 + round) shift in
    let hi = Util.Int_math.ceil_div (two_h - round) shift in
    if pos < lo then Alice else if pos > hi then Bob else Server

let max_simulation_rounds (gd : Gadget.t) =
  (Util.Int_math.pow 2 gd.Gadget.p.Gadget.h / 2) - 1

type validity = {
  rounds_checked : int;
  valid : bool;
  first_violation : (int * int * int) option;
}

let check_schedule (gd : Gadget.t) ~rounds =
  let g = gd.Gadget.graph in
  let n = Graphlib.Wgraph.n g in
  let { Graphlib.Wgraph.row_start; csr_dst; _ } = Graphlib.Wgraph.csr g in
  let violation = ref None in
  (try
     for r = 1 to rounds do
       for v = 0 to n - 1 do
         match owner gd ~round:r ~node:v with
         | Server -> ()
         | (Alice | Bob) as p ->
           for i = row_start.(v) to row_start.(v + 1) - 1 do
             let u = csr_dst.(i) in
             let pu = owner gd ~round:(r - 1) ~node:u in
             if pu <> p && pu <> Server then begin
               violation := Some (r, v, u);
               raise Exit
             end
           done
       done
     done
   with Exit -> ());
  { rounds_checked = rounds; valid = !violation = None; first_violation = !violation }

type count = {
  protocol_rounds : int;
  chargeable_messages : int;
  chargeable_words : int;
  per_round_max : int;
  bound_2h_per_round : bool;
}

let count_protocol (gd : Gadget.t) ~run =
  let messages = ref 0 and words = ref 0 in
  let per_round : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let hook ~round ~src ~dst ~words:w =
    let src_owner = owner gd ~round:(max 0 (round - 1)) ~node:src in
    let dst_owner = owner gd ~round ~node:dst in
    if (src_owner = Alice || src_owner = Bob) && dst_owner = Server then begin
      incr messages;
      words := !words + w;
      let cur = Option.value ~default:0 (Hashtbl.find_opt per_round round) in
      Hashtbl.replace per_round round (cur + 1)
    end
  in
  let protocol_rounds = run ~sink:(Telemetry.Events.of_on_message hook) in
  if protocol_rounds > max_simulation_rounds gd then
    invalid_arg "Server_model.count_protocol: protocol too long for the schedule";
  let per_round_max = Hashtbl.fold (fun _ v acc -> max v acc) per_round 0 in
  {
    protocol_rounds;
    chargeable_messages = !messages;
    chargeable_words = !words;
    per_round_max;
    bound_2h_per_round = per_round_max <= 2 * gd.Gadget.p.Gadget.h;
  }

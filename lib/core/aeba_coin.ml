module Graph = Ks_topology.Graph
module Prng = Ks_stdx.Prng
open Ks_sim.Types

type t = {
  members : int array;
  pos_of : (int, int) Hashtbl.t;
  graph : Graph.t;
  epsilon : float;
  eps0 : float;
  inputs : bool array;  (* instance 0's inputs, for validity *)
  votes : bool array array;  (* votes.(pos).(instance) *)
}

let create ~members ~graph ~inputs ~epsilon ?(eps0 = 0.05) () =
  let m = Array.length members in
  if Graph.n graph <> m then invalid_arg "Aeba_coin.create: graph size mismatch";
  if Array.length inputs <> m then invalid_arg "Aeba_coin.create: inputs size mismatch";
  let pos_of = Hashtbl.create (2 * m) in
  Array.iteri (fun pos p -> Hashtbl.replace pos_of p pos) members;
  {
    members;
    pos_of;
    graph;
    epsilon;
    eps0;
    inputs = Array.map (fun row -> Array.length row > 0 && row.(0)) inputs;
    votes = Array.map Array.copy inputs;
  }

let member_count t = Array.length t.members
let member t ~pos = t.members.(pos)
let position_of t p = Hashtbl.find_opt t.pos_of p
let member_votes t ~pos = t.votes.(pos)
let votes t = Array.map (fun ballot -> ballot.(0)) t.votes

let outgoing t =
  let out = ref [] in
  for pos = Array.length t.members - 1 downto 0 do
    let src = t.members.(pos) in
    let payload = t.votes.(pos).(0) in
    Array.iter
      (fun npos -> out := { src; dst = t.members.(npos); payload } :: !out)
      (Graph.neighbours t.graph pos)
  done;
  !out

(* The vote-update rule of Algorithm 5: adopt the majority when its
   fraction clears the informed threshold, otherwise follow the coin. *)
let update_vote ~epsilon ~eps0 ~ones ~total ~coin ~current =
  if total = 0 then current
  else begin
    let maj = 2 * ones >= total in
    let maj_count = if maj then ones else total - ones in
    let fraction = float_of_int maj_count /. float_of_int total in
    let threshold = (1.0 -. eps0) *. ((2.0 /. 3.0) +. (epsilon /. 2.0)) in
    if fraction >= threshold then maj
    else match coin with Some c -> c | None -> maj
  end

let step t ~inbox ~ballot ~vote ~coin ~good =
  let shortfalls = ref 0 in
  Array.iteri
    (fun pos p ->
      if good p then begin
        let votes = t.votes.(pos) in
        let k = Array.length votes in
        let ones = Array.make k 0 and total = Array.make k 0 in
        (* Count at most one ballot per graph neighbour (flooding defence:
           later duplicates and non-neighbours are discarded). *)
        let seen = Array.make (Array.length t.members) false in
        List.iter
          (fun e ->
            match ballot pos e with
            | None -> ()
            | Some b -> (
              match Hashtbl.find_opt t.pos_of e.src with
              | Some spos when Graph.adjacent t.graph pos spos && not seen.(spos) ->
                seen.(spos) <- true;
                for i = 0 to k - 1 do
                  match vote b i with
                  | Some v ->
                    total.(i) <- total.(i) + 1;
                    if v then ones.(i) <- ones.(i) + 1
                  | None -> ()
                done
              | Some _ | None -> ()))
          (inbox pos);
        if k > 0 && Array.for_all (fun c -> c = 0) total then incr shortfalls;
        let coin = coin pos in
        for i = 0 to k - 1 do
          votes.(i) <-
            update_vote ~epsilon:t.epsilon ~eps0:t.eps0 ~ones:ones.(i) ~total:total.(i)
              ~coin:(coin i) ~current:votes.(i)
        done
      end)
    t.members;
  !shortfalls

type verdict = { agreement : float; majority : bool; valid : bool }

let verdict t ~good =
  let ones = ref 0 and total = ref 0 in
  Array.iteri
    (fun pos p ->
      if good p then begin
        incr total;
        if t.votes.(pos).(0) then incr ones
      end)
    t.members;
  let majority = 2 * !ones >= !total in
  {
    agreement =
      (if !total = 0 then 1.0
       else float_of_int (Stdlib.max !ones (!total - !ones)) /. float_of_int !total);
    majority;
    (* The committed bit must be some good member's input. *)
    valid = Array.exists2 (fun p input -> good p && input = majority) t.members t.inputs;
  }

let play net t ~rounds ~coin =
  let good p = not (Ks_sim.Net.is_corrupt net p) in
  for _ = 1 to rounds do
    let inboxes = Ks_sim.Net.exchange net (outgoing t) in
    let view = coin () in
    ignore
      (step t
         ~inbox:(fun pos -> inboxes.(t.members.(pos)))
         ~ballot:(fun _ e -> Some e.payload)
         ~vote:(fun v _ -> Some v)
         ~coin:(fun pos ->
           let c = view pos in
           fun _ -> c)
         ~good)
  done

type coin_source = Ideal | Unreliable of float

type outcome = {
  final_votes : bool array;
  agreement : float;
  decided : bool;
  valid : bool;
  rounds_run : int;
  max_sent_bits : int;
}

let run_standalone ~seed ~n ~degree ~rounds ~epsilon ~budget ~inputs ~strategy ~coin =
  if Array.length inputs <> n then invalid_arg "Aeba_coin.run_standalone: inputs";
  let net =
    Ks_sim.Net.create ~label:"aeba" ~seed ~n ~budget ~msg_bits:(fun _vote -> 1)
      ~strategy ()
  in
  let rng = Ks_sim.Net.rng net in
  let graph = Graph.random_regular rng ~n ~degree:(Stdlib.min degree (n - 1)) in
  let inst =
    create ~members:(Array.init n Fun.id) ~graph
      ~inputs:(Array.map (fun v -> [| v |]) inputs)
      ~epsilon ()
  in
  let coin_rng = Prng.split rng in
  let miss_rng = Prng.split rng in
  play net inst ~rounds ~coin:(fun () ->
      let common = Some (Prng.bool coin_rng) in
      match coin with
      | Ideal -> fun _pos -> common
      | Unreliable miss ->
        (* Draw per-position misses deterministically for the round. *)
        let missed = Array.init n (fun _ -> Prng.bernoulli miss_rng miss) in
        fun pos -> if missed.(pos) then None else common);
  let v = verdict inst ~good:(fun p -> not (Ks_sim.Net.is_corrupt net p)) in
  Ks_sim.Net.emit_meter net;
  {
    final_votes = votes inst;
    agreement = v.agreement;
    decided = v.majority;
    valid = v.valid;
    rounds_run = rounds;
    max_sent_bits =
      Ks_sim.Meter.max_sent_bits (Ks_sim.Net.meter net) ~over:(Ks_sim.Net.good_procs net);
  }

(* Reference wiring for the runner's differential test (test_run.ml).

   These are the hand-wired protocol calls [ba_sim] and the T9/T16/T17
   tables made before [Ks_workload.Run] existed, kept verbatim with only
   the reporting stripped: each returns the protocol's raw result.  The
   runner must reproduce them field by field.  The one deliberate change
   is the [?tree] argument: the old preset wiring aimed the eclipse
   schedule at a tree built from the CLI seed rather than the protocol's
   own, so the eclipse comparison passes the protocol's tree instead. *)

module Params = Ks_core.Params
module Attacks = Ks_workload.Attacks
module Prng = Ks_stdx.Prng

(* --- [--adversary] presets (ba_sim's run_everywhere / run_ae /
   run_baseline / run_async) --- *)

let run_everywhere ?tree ~retries ~quarantine ~params ~scenario ~seed ~inputs () =
  let budget = Attacks.budget_of scenario ~params in
  let tree =
    match tree with
    | Some tree -> tree
    | None -> Ks_topology.Tree.build (Prng.create seed) (Params.tree_config params)
  in
  Ks_core.Everywhere.run ~retries ~quarantine ~params ~seed ~inputs
    ~behavior:scenario.Attacks.behavior
    ~tree_strategy:(Attacks.tree_strategy scenario ~params ~tree)
    ~a2e_strategy:(fun ~carried ~coin ->
      Attacks.a2e_strategy scenario ~params ~coin ~carried)
    ~budget ()

let run_ae ?tree ~retries ~quarantine ~params ~scenario ~seed ~inputs () =
  let tree =
    match tree with
    | Some tree -> tree
    | None -> Ks_topology.Tree.build (Prng.create seed) (Params.tree_config params)
  in
  Ks_core.Ae_ba.run ~retries ~quarantine ~params ~seed ~inputs
    ~behavior:scenario.Attacks.behavior
    ~strategy:(Attacks.tree_strategy scenario ~params ~tree)
    ~budget:(Attacks.budget_of scenario ~params) ()

let run_baseline name ~params ~scenario ~seed ~inputs =
  let n = params.Params.n in
  let budget = Attacks.budget_of scenario ~params in
  let lg = Ks_stdx.Intmath.ceil_log2 n in
  match name with
  | `Rabin ->
    Ks_baselines.Rabin.run ~seed ~n ~budget ~rounds:((2 * lg) + 6)
      ~epsilon:params.Params.epsilon ~inputs
      ~strategy:(Attacks.vote_flipper scenario ~params)
  | `Phase_king ->
    let faults = Stdlib.min budget (Stdlib.max 1 ((n / 4) - 1)) in
    Ks_baselines.Phase_king.run ~seed ~n ~budget:faults ~faults ~inputs
      ~strategy:(Attacks.generic_strategy scenario ~params)
  | `Ben_or ->
    Ks_baselines.Ben_or.run ~seed ~n ~budget:(Stdlib.min budget (n / 6))
      ~max_phases:(4 * lg) ~inputs
      ~strategy:(Attacks.generic_strategy scenario ~params)

let run_async ~n ~scenario ~seed ~inputs =
  let f = Stdlib.min ((n - 2) / 3) (Stdlib.max 0 (n / 4)) in
  let byz =
    match scenario.Attacks.behavior with
    | Ks_core.Comm.Silent -> Ks_async.Async_ba.Silent
    | Ks_core.Comm.Follow | Ks_core.Comm.Garbage | Ks_core.Comm.Flip
    | Ks_core.Comm.Equivocate ->
      Ks_async.Async_ba.Equivocate
  in
  let f = if scenario.Attacks.name = "honest" then 0 else f in
  Ks_async.Async_ba.run ~seed ~n ~f ~inputs ~byz
    ~scheduler:Ks_async.Async_net.Fair ~max_events:8_000_000 ()

(* --- [--attack] strategies (ba_sim's run_everywhere_attack /
   run_ae_attack / run_rabin_attack) --- *)

let run_everywhere_attack ~retries ~quarantine ~params ~atk ~fraction ~seed ~inputs =
  let budget = Ks_attacks.budget ~params ~fraction in
  let tree =
    Ks_attacks.protocol_tree ~params ~ae_seed:(Ks_attacks.ae_seed_of seed)
  in
  Ks_core.Everywhere.run ~retries ~quarantine ~params ~seed ~inputs
    ~behavior:atk.Ks_attacks.behavior
    ~tree_strategy:(atk.Ks_attacks.tree ~params ~tree)
    ~a2e_strategy:(fun ~carried ~coin ->
      atk.Ks_attacks.a2e ~params ~carried ~coin)
    ~budget ()

let run_ae_attack ~retries ~quarantine ~params ~atk ~fraction ~seed ~inputs =
  let tree =
    Ks_topology.Tree.build
      (Prng.split (Prng.create seed))
      (Params.tree_config params)
  in
  Ks_core.Ae_ba.run ~retries ~quarantine ~params ~seed ~inputs
    ~behavior:atk.Ks_attacks.behavior
    ~strategy:(atk.Ks_attacks.tree ~params ~tree)
    ~budget:(Ks_attacks.budget ~params ~fraction) ()

let run_rabin_attack ~params ~atk ~fraction ~seed ~inputs =
  let n = params.Params.n in
  let budget = Ks_attacks.budget ~params ~fraction in
  let lg = Ks_stdx.Intmath.ceil_log2 n in
  Ks_baselines.Rabin.run ~seed ~n ~budget ~rounds:((2 * lg) + 6)
    ~epsilon:params.Params.epsilon ~inputs
    ~strategy:(atk.Ks_attacks.vote ~params)

(* --- T9 / T16's static, carry-only adversary --- *)

let t9_everywhere ~params ~budget ~seed ~inputs =
  let sc = Attacks.byzantine_static in
  let strategy =
    Ks_sim.Adversary.make ~name:"static"
      ~initial_corruptions:(fun rng ~n ~budget:b ->
        Ks_sim.Adversary.uniform_random_set rng ~n
          ~budget:(Stdlib.min budget b))
      ()
  in
  Ks_core.Everywhere.run ~params ~seed ~inputs
    ~behavior:sc.Attacks.behavior ~tree_strategy:strategy
    ~a2e_strategy:(fun ~carried ~coin:_ ->
      Ks_core.Everywhere.carry_corruptions Ks_sim.Adversary.none ~carried)
    ~budget ()

let t16_rabin ~params ~budget ~seed ~inputs =
  let n = params.Params.n in
  let lg = Ks_stdx.Intmath.ceil_log2 n in
  Ks_baselines.Rabin.run ~seed ~n ~budget
    ~rounds:((2 * lg) + 6) ~epsilon:params.Ks_core.Params.epsilon ~inputs
    ~strategy:(Attacks.vote_flipper Attacks.byzantine_static ~params)

(* --- T15's async sweep (one seed of one cell), with the table's seed
   rule --- *)

let seed_of n seed = Int64.add (Int64.mul 1000003L (Int64.of_int n)) (Int64.of_int seed)

let t15_async ~n ~scheduler ~seed =
  let f = (n - 2) / 3 in
  let rng = Prng.create (seed_of n (seed + 4100)) in
  let inputs = Ks_workload.Inputs.generate rng ~n Ks_workload.Inputs.Split in
  Ks_async.Async_ba.run ~seed:(seed_of n (seed + 4100)) ~n ~f
    ~inputs ~byz:Ks_async.Async_ba.Equivocate ~scheduler
    ~max_events:40_000_000 ()

(* --- Rabin's all-to-all round loop as it stood before Algorithm 5's
   round loop was shared with the standalone runner: [Rabin.run]'s body
   verbatim, over a verbatim copy of the single-instance [Aeba_coin]
   pieces it drove (create, outgoing, update_vote, step, votes). --- *)

module Aeba_coin_v1 = struct
  module Graph = Ks_topology.Graph

  type t = {
    members : int array;
    pos_of : (int, int) Hashtbl.t;
    graph : Graph.t;
    epsilon : float;
    eps0 : float;
    votes : bool array;
  }

  let create ~members ~graph ~inputs ~epsilon ?(eps0 = 0.05) () =
    let m = Array.length members in
    if Graph.n graph <> m then invalid_arg "Aeba_coin.create: graph size mismatch";
    if Array.length inputs <> m then invalid_arg "Aeba_coin.create: inputs size mismatch";
    let pos_of = Hashtbl.create (2 * m) in
    Array.iteri (fun pos p -> Hashtbl.replace pos_of p pos) members;
    { members; pos_of; graph; epsilon; eps0; votes = Array.copy inputs }

  let votes t = Array.copy t.votes

  let outgoing t =
    let out = ref [] in
    for pos = Array.length t.members - 1 downto 0 do
      let src = t.members.(pos) in
      let v = t.votes.(pos) in
      Array.iter
        (fun npos -> out := (src, t.members.(npos), v) :: !out)
        (Graph.neighbours t.graph pos)
    done;
    !out

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

  let step t ~received ~coin ~good =
    let m = Array.length t.members in
    let next = Array.copy t.votes in
    for pos = 0 to m - 1 do
      if good t.members.(pos) then begin
        let seen = Hashtbl.create 16 in
        let ones = ref 0 and total = ref 0 in
        List.iter
          (fun (src, v) ->
            match Hashtbl.find_opt t.pos_of src with
            | Some spos
              when Graph.adjacent t.graph pos spos && not (Hashtbl.mem seen src) ->
              Hashtbl.add seen src ();
              incr total;
              if v then incr ones
            | Some _ | None -> ())
          (received pos);
        next.(pos) <-
          update_vote ~epsilon:t.epsilon ~eps0:t.eps0 ~ones:!ones ~total:!total
            ~coin:(coin pos) ~current:t.votes.(pos)
      end
    done;
    Array.blit next 0 t.votes 0 m
end

let rabin_run ~seed ~n ~budget ~rounds ~epsilon ~inputs ~strategy =
  let net =
    Ks_sim.Net.create ~label:"rabin" ~seed ~n ~budget ~msg_bits:(fun _ -> 1)
      ~strategy ()
  in
  let graph = Ks_topology.Graph.complete n in
  let members = Array.init n (fun i -> i) in
  let inst =
    Aeba_coin_v1.create ~members ~graph ~inputs ~epsilon ()
  in
  let coin_rng = Ks_stdx.Prng.split (Ks_sim.Net.rng net) in
  for _ = 1 to rounds do
    let msgs =
      List.map
        (fun (src, dst, v) -> { Ks_sim.Types.src; dst; payload = v })
        (Aeba_coin_v1.outgoing inst)
    in
    let inboxes = Ks_sim.Net.exchange net msgs in
    let common = Ks_stdx.Prng.bool coin_rng in
    Aeba_coin_v1.step inst
      ~received:(fun pos ->
        List.map
          (fun e -> (e.Ks_sim.Types.src, e.Ks_sim.Types.payload))
          inboxes.(pos))
      ~coin:(fun _ -> Some common)
      ~good:(fun p -> not (Ks_sim.Net.is_corrupt net p))
  done;
  let votes = Aeba_coin_v1.votes inst in
  Ks_baselines.Outcome.of_decisions ~net ~inputs (Array.map (fun v -> Some v) votes)

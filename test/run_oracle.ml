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

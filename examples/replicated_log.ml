(* Replicated log: ordering client commands across replicas with
   Byzantine agreement.

     dune exec examples/replicated_log.exe

   The paper's introduction quotes OceanStore/Pond: "Byzantine agreement
   requires a number of messages quadratic in the number of participants,
   so it is infeasible for use in synchronizing a large number of
   replicas".  This example plays that workload: a cluster of replicas
   must agree, slot by slot, whether to commit or skip each proposed
   command while a quarter of the replicas misbehave.  Each slot is one
   binary agreement; replicas start from their local view (did they see
   the command in time?), and the committed log must be identical at
   every good replica and never contain a command no good replica saw.

   To keep the demo brisk we order the slots with Rabin's all-to-all
   protocol (the O(n²)-messages baseline Pond was worried about) and one
   slot with the full King–Saia stack, printing the per-replica bit cost
   of each so the contrast the paper targets is visible on real output. *)

module Prng = Ks_stdx.Prng
module Run = Ks_workload.Run
module Params = Ks_core.Params

let n = 64
let slots = 8

type slot_result = { decided_commit : bool; max_bits : int; rounds : int }

(* One agreement slot under the crash preset (a quarter of the replicas
   faulty), through the shared runner. *)
let slot p ~seed ~inputs =
  let params = Params.practical n in
  let adversary = Ks_attacks.crash in
  let o =
    Run.run p ~params ~seed ~inputs ~adversary
      ~budget:(Ks_attacks.budget_for adversary ~params ~fraction:0.25)
  in
  { decided_commit = o.Run.value = Some 1; max_bits = o.Run.max_bits; rounds = o.Run.rounds }

(* Via the quadratic baseline, and via the paper's protocol. *)
let rabin_slot = slot Run.Rabin
let king_saia_slot = slot Run.Everywhere

let () =
  let rng = Prng.create 404L in
  Printf.printf "replicated log: %d replicas, %d slots, 25%% faulty\n\n" n slots;
  (* Proposed commands; replicas see each with 80% probability (slow
     gossip), so their initial votes differ — agreement must still land
     on one answer per slot. *)
  let commands =
    Array.init slots (fun i -> Printf.sprintf "SET key%d=%d" i (100 + i))
  in
  let log = ref [] in
  Array.iteri
    (fun slot cmd ->
      let inputs = Array.init n (fun _ -> Prng.bernoulli rng 0.8) in
      let r = rabin_slot ~seed:(Int64.of_int (900 + slot)) ~inputs in
      if r.decided_commit then log := cmd :: !log;
      Printf.printf "slot %d: %-16s -> %s  (%5d bits/replica, %d rounds, Rabin)\n"
        slot cmd
        (if r.decided_commit then "COMMIT" else "SKIP  ")
        r.max_bits r.rounds)
    commands;
  Printf.printf "\ncommitted log (every good replica agrees on this):\n";
  List.iteri (fun i cmd -> Printf.printf "  %d. %s\n" i cmd) (List.rev !log);

  (* The same slot decision through the paper's protocol, for cost
     contrast at this (small) n — the asymptotic win needs large n, which
     is exactly the T1/T10 tables' subject. *)
  Printf.printf "\none slot through King-Saia for comparison:\n";
  let inputs = Array.init n (fun _ -> Prng.bernoulli rng 0.8) in
  let ks = king_saia_slot ~seed:4242L ~inputs in
  Printf.printf "  decision %s, %d bits/replica, %d rounds\n"
    (if ks.decided_commit then "COMMIT" else "SKIP")
    ks.max_bits ks.rounds;
  Printf.printf
    "  (at n=%d the tournament constants dominate; see bench tables T1/T10\n\
    \   for the scaling story the paper is about)\n"
    n

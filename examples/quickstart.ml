(* Quickstart: run everywhere Byzantine agreement among 64 processors,
   a quarter of them Byzantine, and inspect the result.

     dune exec examples/quickstart.exe

   This is the smallest end-to-end use of the public API: pick a
   parameter profile, choose an adversary from the registry, run
   Algorithm 4 through the shared runner, and read out agreement,
   validity and communication cost. *)

module Params = Ks_core.Params
module Everywhere = Ks_core.Everywhere
module Run = Ks_workload.Run
module Inputs = Ks_workload.Inputs
module Prng = Ks_stdx.Prng

let () =
  let n = 64 in
  let seed = 2026L in

  (* 1. A parameter profile: the practical profile keeps the paper's
     structure with laptop-scale constants. *)
  let params = Params.practical n in
  Format.printf "parameters: %a@." Params.pp params;

  (* 2. Inputs and an adversary.  The model lets the adversary choose the
     inputs, so the alternating split is the canonical hard case. *)
  let inputs = Inputs.generate (Prng.create seed) ~n Inputs.Split in
  let adversary = Ks_attacks.byzantine_static in
  let budget = Ks_attacks.budget_for adversary ~params ~fraction:0.25 in
  Printf.printf "adversary: %s, corrupting up to %d of %d processors\n"
    adversary.Ks_attacks.name budget n;

  (* 3. Run the full protocol: the almost-everywhere tournament followed
     by the everywhere amplification. *)
  let outcome =
    Run.run Run.Everywhere ~params ~seed ~inputs ~adversary ~budget
  in
  let result = outcome.Run.detail in

  (* 4. Inspect the outcome. *)
  Printf.printf "\n--- outcome ---\n";
  Printf.printf "agreement everywhere : %b\n" result.Everywhere.success;
  Printf.printf "safety (nobody wrong): %b\n" result.Everywhere.safe;
  (match result.Everywhere.agreed_value with
   | Some v -> Printf.printf "agreed value         : %d\n" v
   | None -> Printf.printf "agreed value         : (none)\n");
  Printf.printf "a.e. agreement       : %.1f%% of good processors\n"
    (100.0 *. result.Everywhere.ae.Ks_core.Ae_ba.agreement);
  Printf.printf "\n--- cost (per good processor, max) ---\n";
  Printf.printf "tournament phase     : %d bits over %d rounds\n"
    result.Everywhere.max_sent_bits_ae result.Everywhere.ae_rounds;
  Printf.printf "amplification phase  : %d bits over %d rounds\n"
    result.Everywhere.max_sent_bits_a2e result.Everywhere.a2e_rounds;
  Printf.printf "total                : %d bits\n" result.Everywhere.max_sent_bits_total;
  if not (result.Everywhere.success && result.Everywhere.safe) then exit 1

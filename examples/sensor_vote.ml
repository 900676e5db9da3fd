(* Sensor fusion under Byzantine faults.

     dune exec examples/sensor_vote.exe

   The paper cites sensor networks as a driving domain.  Here a field of
   sensors must agree on a binary event ("intrusion detected?") although
   (a) honest sensors disagree — their readings are noisy — and (b) a
   coalition of captured sensors reports whatever an adversary wants and
   floods the network.  We sweep the true-signal strength and show the
   agreement outcome: below the noise floor the network settles on a
   common (possibly arbitrary but unanimous) verdict; once a majority of
   honest sensors see the event, validity forces the right answer.

   The run illustrates exactly what Byzantine agreement does and does not
   promise: when the honest sensors are unanimous (no event, or a blatant
   event), validity forces the right verdict whatever the captured
   sensors do; in between, both verdicts are legal outcomes and the
   adversary may steer the choice — but never split the field.  (At a
   given sparse degree, the unanimity guarantee holds up to a capture
   fraction somewhat below the asymptotic 1/3 — the T4 validity sweep in
   the benchmarks maps that boundary.)

   The agreement core is Algorithm 5 on a sparse k·log n-regular graph
   with a common coin — the component the tournament uses inside every
   node — which is also the right tool here: each sensor talks to a few
   dozen neighbours only. *)

module Aeba = Ks_core.Aeba_coin
module Params = Ks_core.Params
module Prng = Ks_stdx.Prng

let n = 512

let run_field ~signal ~seed =
  let params = Params.practical n in
  let rng = Prng.create seed in
  (* Honest sensors fire with probability [signal]; the captured ones are
     driven by the vote-flipping adversary at run time. *)
  let inputs = Array.init n (fun _ -> Prng.bernoulli rng signal) in
  Aeba.run_standalone ~seed ~n ~degree:params.Params.aeba_degree
    ~rounds:14 ~epsilon:params.Params.epsilon ~budget:(n * 3 / 20) ~inputs
    ~strategy:(Ks_attacks.byzantine_static.vote ~params)
    ~coin:Aeba.Ideal

let () =
  Printf.printf
    "sensor field: %d sensors, degree %d, 15%% captured, vote-flipping adversary\n\n"
    n (Params.practical n).Params.aeba_degree;
  Printf.printf "%-14s %-12s %-12s %-10s %-12s %s\n" "signal" "agreement" "verdict"
    "valid" "bits/sensor" "guarantee";
  List.iter
    (fun (signal, guarantee) ->
      let o = run_field ~signal ~seed:(Int64.of_float ((signal +. 0.01) *. 1000.0)) in
      let verdict = if o.Aeba.decided then "INTRUSION" else "quiet" in
      Printf.printf "%-14s %-12s %-12s %-10b %-12d %s\n"
        (Printf.sprintf "%.0f%% fired" (100.0 *. signal))
        (Printf.sprintf "%.1f%%" (100.0 *. o.Aeba.agreement))
        verdict o.Aeba.valid o.Aeba.max_sent_bits guarantee)
    [
      (0.0, "quiet forced (unanimous)");
      (0.25, "either verdict legal");
      (0.50, "either verdict legal");
      (0.75, "either verdict legal");
      (1.0, "INTRUSION forced (unanimous)");
    ];
  Printf.printf
    "\nNote: each sensor exchanged ~degree bits per round with fixed\n\
     neighbours only — no all-to-all flooding — the captured quarter can\n\
     steer a genuinely ambiguous field but can never split it, and can\n\
     never override a unanimous one.\n"

let t10_rounds ~n = (2 * Ks_stdx.Intmath.ceil_log2 n) + 6

let run ~seed ~n ~budget ~rounds ~epsilon ~inputs ~strategy =
  (* Rabin all-to-all is the unreliable-coin voting protocol on the
     complete graph with an ideal common coin: Algorithm 5's own round
     loop, [Aeba_coin.play]. *)
  let net =
    Ks_sim.Net.create ~label:"rabin" ~seed ~n ~budget ~msg_bits:(fun _ -> 1)
      ~strategy ()
  in
  let inst =
    Ks_core.Aeba_coin.create ~members:(Array.init n Fun.id)
      ~graph:(Ks_topology.Graph.complete n)
      ~inputs:(Array.map (fun v -> [| v |]) inputs)
      ~epsilon ()
  in
  let coin_rng = Ks_stdx.Prng.split (Ks_sim.Net.rng net) in
  Ks_core.Aeba_coin.play net inst ~rounds ~coin:(fun () ->
      let common = Some (Ks_stdx.Prng.bool coin_rng) in
      fun _ -> common);
  Outcome.of_decisions ~net ~inputs (Array.map Option.some (Ks_core.Aeba_coin.votes inst))

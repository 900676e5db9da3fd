let t10_rounds ~n = (2 * Ks_stdx.Intmath.ceil_log2 n) + 6

let run ~seed ~n ~budget ~rounds ~epsilon ~inputs ~strategy =
  (* Rabin all-to-all is the unreliable-coin voting protocol on the
     complete graph with an ideal common coin; the round loop drives the
     same audited Aeba_coin instance the core uses. *)
  let net =
    Ks_sim.Net.create ~label:"rabin" ~seed ~n ~budget ~msg_bits:(fun _ -> 1)
      ~strategy ()
  in
  let graph = Ks_topology.Graph.complete n in
  let members = Array.init n (fun i -> i) in
  let inst =
    Ks_core.Aeba_coin.create ~members ~graph ~inputs ~epsilon ()
  in
  let coin_rng = Ks_stdx.Prng.split (Ks_sim.Net.rng net) in
  for _ = 1 to rounds do
    let msgs =
      List.map
        (fun (src, dst, v) -> { Ks_sim.Types.src; dst; payload = v })
        (Ks_core.Aeba_coin.outgoing inst)
    in
    let inboxes = Ks_sim.Net.exchange net msgs in
    let common = Ks_stdx.Prng.bool coin_rng in
    Ks_core.Aeba_coin.step inst
      ~received:(fun pos ->
        List.map
          (fun e -> (e.Ks_sim.Types.src, e.Ks_sim.Types.payload))
          inboxes.(pos))
      ~coin:(fun _ -> Some common)
      ~good:(fun p -> not (Ks_sim.Net.is_corrupt net p))
  done;
  let votes = Ks_core.Aeba_coin.votes inst in
  Outcome.of_decisions ~net ~inputs (Array.map (fun v -> Some v) votes)

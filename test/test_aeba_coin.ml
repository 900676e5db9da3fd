module Aeba = Ks_core.Aeba_coin
module Graph = Ks_topology.Graph
module Prng = Ks_stdx.Prng

let test_update_vote_rule () =
  let update = Aeba.update_vote ~epsilon:0.1 ~eps0:0.05 in
  (* Overwhelming majority: adopt it, coin irrelevant. *)
  Alcotest.(check bool) "strong majority wins" true
    (update ~ones:9 ~total:10 ~coin:(Some false) ~current:false);
  (* Weak majority: follow the coin. *)
  Alcotest.(check bool) "weak majority follows coin" false
    (update ~ones:6 ~total:10 ~coin:(Some false) ~current:true);
  (* Weak majority, no coin: keep the majority. *)
  Alcotest.(check bool) "no coin keeps majority" true
    (update ~ones:6 ~total:10 ~coin:None ~current:false);
  (* No votes at all: keep current. *)
  Alcotest.(check bool) "no votes keeps current" true
    (update ~ones:0 ~total:0 ~coin:(Some false) ~current:true)

let mk_instance ?(n = 12) ?(degree = 6) ~inputs () =
  let graph = Graph.random_regular (Prng.create 4L) ~n ~degree in
  let members = Array.init n (fun i -> 100 + i) in
  (members, Aeba.create ~members ~graph ~inputs:(Array.init n (fun i -> [| inputs i |])) ~epsilon:0.1 ())

let test_instance_accessors () =
  let members, inst = mk_instance ~inputs:(fun i -> i mod 2 = 0) () in
  Alcotest.(check int) "member count" 12 (Aeba.member_count inst);
  Alcotest.(check int) "member id" 103 (Aeba.member inst ~pos:3);
  Alcotest.(check (option int)) "position" (Some 3) (Aeba.position_of inst members.(3));
  Alcotest.(check (option int)) "stranger" None (Aeba.position_of inst 999);
  Alcotest.(check bool) "vote" true (Aeba.votes inst).(0)

let test_outgoing_covers_edges () =
  let _, inst = mk_instance ~inputs:(fun _ -> true) () in
  let out = Aeba.outgoing inst in
  List.iter
    (fun { Ks_sim.Types.src; dst; payload = v } ->
      Alcotest.(check bool) "vote payload" true v;
      Alcotest.(check bool) "ids in member space" true (src >= 100 && dst >= 100))
    out;
  (* Each position sends exactly its degree. *)
  Alcotest.(check bool) "non-empty" true (List.length out > 0)

(* One single-instance round without coins: [received pos] lists the
   (sender, vote) pairs delivered to position [pos]. *)
let step inst ~received =
  ignore
    (Aeba.step inst
       ~inbox:(fun pos ->
         List.map
           (fun (src, payload) -> { Ks_sim.Types.src; dst = Aeba.member inst ~pos; payload })
           (received pos))
       ~ballot:(fun _ e -> Some e.Ks_sim.Types.payload)
       ~vote:(fun v _ -> Some v)
       ~coin:(fun _ _ -> None) ~good:(fun _ -> true))

let test_step_ignores_non_neighbours () =
  let members, inst = mk_instance ~inputs:(fun _ -> false) () in
  (* Flood position 0 with "true" votes from a non-member: must not move. *)
  let received pos =
    if pos = 0 then List.init 50 (fun _ -> (424242, true)) else []
  in
  step inst ~received;
  ignore members;
  Alcotest.(check bool) "flood ignored" false (Aeba.votes inst).(0)

let test_step_counts_once_per_sender () =
  let members, inst = mk_instance ~inputs:(fun _ -> false) () in
  (* A single neighbour repeating "true" 100 times is one vote; honest
     neighbours voting false dominate. *)
  let g_neighbour pos =
    (* find one real neighbour of pos 0 *)
    ignore pos;
    members.(1)
  in
  ignore g_neighbour;
  let received pos =
    if pos = 0 then
      List.init 100 (fun _ -> (members.(1), true))
      @ [ (members.(2), false); (members.(3), false); (members.(4), false) ]
    else []
  in
  step inst ~received;
  (* Whether members 1..4 are neighbours of 0 depends on the graph; the
     point is the repeated sender contributes at most one vote, so true
     can never reach a 2/3 fraction. *)
  Alcotest.(check bool) "duplicates collapsed" false (Aeba.votes inst).(0)

let run ?(coin = Aeba.Ideal) ?(budget = 0) ?(fraction_one = 0.5) ?(rounds = 12)
    ?(strategy = Ks_sim.Adversary.none) ~n () =
  let rng = Prng.create 8L in
  let inputs = Array.init n (fun _ -> Prng.float rng < fraction_one) in
  Aeba.run_standalone ~seed:17L ~n ~degree:24 ~rounds ~epsilon:0.1 ~budget ~inputs
    ~strategy ~coin

let test_honest_convergence () =
  let o = run ~n:96 () in
  Alcotest.(check (float 0.01)) "full agreement" 1.0 o.Aeba.agreement;
  Alcotest.(check bool) "valid" true o.Aeba.valid

let test_validity_unanimous () =
  (* All-one inputs must yield one (Lemma 12), whatever the coin does. *)
  let o = run ~n:96 ~fraction_one:1.0 ~coin:(Aeba.Unreliable 0.5) () in
  Alcotest.(check (float 0.01)) "agreement" 1.0 o.Aeba.agreement;
  Alcotest.(check bool) "decided one" true o.Aeba.decided

let test_crash_adversary () =
  let o =
    run ~n:96 ~budget:24 ~strategy:Ks_sim.Adversary.crash_random ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "agreement %.2f" o.Aeba.agreement)
    true (o.Aeba.agreement >= 0.9);
  Alcotest.(check bool) "valid" true o.Aeba.valid

let test_unreliable_coin_still_converges () =
  let o = run ~n:96 ~coin:(Aeba.Unreliable 0.2) () in
  Alcotest.(check bool) "agreement" true (o.Aeba.agreement >= 0.9)

let test_bits_accounting () =
  let o = run ~n:64 ~rounds:10 () in
  (* degree 24, 10 rounds, 1 bit per vote. *)
  Alcotest.(check bool)
    (Printf.sprintf "bits %d" o.Aeba.max_sent_bits)
    true
    (o.Aeba.max_sent_bits >= 10 * 20 && o.Aeba.max_sent_bits <= 10 * 25)

let test_agreement_fraction_metric () =
  let _, inst = mk_instance ~inputs:(fun i -> i < 9) () in
  let agreement good = (Aeba.verdict inst ~good).Aeba.agreement in
  Alcotest.(check (float 1e-9)) "9 of 12" 0.75 (agreement (fun _ -> true));
  (* Excluding the minority as corrupt gives full agreement. *)
  Alcotest.(check (float 1e-9)) "good subset" 1.0
    (agreement (fun p -> p < 109))

let () =
  Alcotest.run "aeba_coin"
    [
      ( "rule",
        [
          Alcotest.test_case "update_vote" `Quick test_update_vote_rule;
          Alcotest.test_case "accessors" `Quick test_instance_accessors;
          Alcotest.test_case "outgoing" `Quick test_outgoing_covers_edges;
          Alcotest.test_case "non-neighbours ignored" `Quick test_step_ignores_non_neighbours;
          Alcotest.test_case "dedup senders" `Quick test_step_counts_once_per_sender;
          Alcotest.test_case "agreement metric" `Quick test_agreement_fraction_metric;
        ] );
      ( "standalone",
        [
          Alcotest.test_case "honest converges" `Quick test_honest_convergence;
          Alcotest.test_case "validity" `Quick test_validity_unanimous;
          Alcotest.test_case "crash adversary" `Quick test_crash_adversary;
          Alcotest.test_case "unreliable coin" `Quick test_unreliable_coin_still_converges;
          Alcotest.test_case "bit accounting" `Quick test_bits_accounting;
        ] );
    ]

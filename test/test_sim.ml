open Ks_sim
module Prng = Ks_stdx.Prng

let mk_net ?(n = 8) ?(budget = 2) ?(strategy = Adversary.none) () =
  Net.create ~seed:5L ~n ~budget ~msg_bits:(fun (_ : int) -> 4) ~strategy ()

let envelope src dst payload = { Types.src; dst; payload }

let test_delivery () =
  let net = mk_net () in
  let inboxes = Net.exchange net [ envelope 0 1 42; envelope 2 1 43; envelope 0 3 7 ] in
  Alcotest.(check int) "two messages for 1" 2 (List.length inboxes.(1));
  Alcotest.(check int) "one for 3" 1 (List.length inboxes.(3));
  Alcotest.(check int) "none for 0" 0 (List.length inboxes.(0));
  Alcotest.(check int) "round advanced" 1 (Net.round net)

let test_meter_charges () =
  let net = mk_net () in
  ignore (Net.exchange net [ envelope 0 1 42; envelope 0 2 43 ]);
  let m = Net.meter net in
  Alcotest.(check int) "sender bits" 8 (Meter.sent_bits m 0);
  Alcotest.(check int) "sender msgs" 2 (Meter.sent_msgs m 0);
  Alcotest.(check int) "receiver bits" 4 (Meter.recv_bits m 1);
  Alcotest.(check int) "total" 8 (Meter.total_sent_bits m)

let test_corrupt_src_dropped () =
  let strategy =
    Adversary.make ~name:"c0"
      ~initial_corruptions:(fun _ ~n:_ ~budget:_ -> [ 0 ])
      ()
  in
  let net = mk_net ~strategy () in
  Alcotest.(check bool) "0 corrupt" true (Net.is_corrupt net 0);
  let inboxes = Net.exchange net [ envelope 0 1 42 ] in
  Alcotest.(check int) "message reclaimed" 0 (List.length inboxes.(1));
  Alcotest.(check int) "no bits charged" 0 (Meter.sent_bits (Net.meter net) 0)

let test_adversary_sends () =
  let strategy =
    Adversary.make ~name:"talker"
      ~initial_corruptions:(fun _ ~n:_ ~budget:_ -> [ 0 ])
      ~act:(fun _view -> [ envelope 0 1 99; envelope 3 1 666 ])
      ()
  in
  let net = mk_net ~strategy () in
  let inboxes = Net.exchange net [] in
  (* The forged message from good processor 3 must be rejected. *)
  Alcotest.(check int) "only corrupt-sourced delivered" 1 (List.length inboxes.(1));
  (match inboxes.(1) with
   | [ e ] ->
     Alcotest.(check int) "src" 0 e.Types.src;
     Alcotest.(check int) "payload" 99 e.Types.payload
   | _ -> Alcotest.fail "expected one message");
  Alcotest.(check int) "adversary bits not charged to good" 0
    (Meter.sent_bits (Net.meter net) 3)

let test_budget_enforced () =
  let strategy =
    Adversary.make ~name:"greedy"
      ~initial_corruptions:(fun _ ~n:_ ~budget:_ -> [ 0; 1; 2; 3; 4 ])
      ()
  in
  let net = mk_net ~budget:2 ~strategy () in
  Alcotest.(check int) "capped at budget" 2 (Net.corrupt_count net)

let test_adaptive_corruption () =
  let strategy =
    Adversary.make ~name:"adaptive"
      ~adapt:(fun view -> if view.Types.view_round = 1 then [ 5 ] else [])
      ()
  in
  let net = mk_net ~strategy () in
  ignore (Net.exchange net []);
  Alcotest.(check bool) "not yet corrupt" false (Net.is_corrupt net 5);
  ignore (Net.exchange net []);
  Alcotest.(check bool) "corrupted mid-run" true (Net.is_corrupt net 5);
  Alcotest.(check int) "good procs shrink" 7 (List.length (Net.good_procs net))

let test_rushing_visibility () =
  (* The adversary must see messages addressed to its processors before
     acting — and only those (private channels). *)
  let seen = ref [] in
  let strategy =
    Adversary.make ~name:"rushing"
      ~initial_corruptions:(fun _ ~n:_ ~budget:_ -> [ 1 ])
      ~act:(fun view ->
        seen := List.map (fun e -> (e.Types.src, e.Types.dst, e.Types.payload))
            view.Types.view_visible;
        [])
      ()
  in
  let net = mk_net ~strategy () in
  ignore (Net.exchange net [ envelope 0 1 42; envelope 0 2 7 ]);
  Alcotest.(check (list (triple int int int))) "sees only its own traffic"
    [ (0, 1, 42) ] !seen

let test_on_corrupt_hook () =
  let fallen = ref [] in
  let strategy =
    Adversary.make ~name:"hook"
      ~initial_corruptions:(fun _ ~n:_ ~budget:_ -> [ 3 ])
      ~on_corrupt:(fun p -> fallen := p :: !fallen)
      ()
  in
  let net = mk_net ~strategy () in
  Net.corrupt_now net [ 4 ];
  Alcotest.(check (list int)) "hook fired" [ 4; 3 ] !fallen

let test_proc_rng_memoized () =
  let net = mk_net () in
  let a = Net.proc_rng net 2 in
  let v1 = Prng.bits64 a in
  let b = Net.proc_rng net 2 in
  let v2 = Prng.bits64 b in
  Alcotest.(check bool) "stream advances across calls" true (v1 <> v2)

let test_engine_runs_protocol () =
  (* Flooding counter: each processor broadcasts its round number to
     everyone; states accumulate the payload sum. *)
  let net = mk_net ~budget:0 () in
  let n = Net.n net in
  let protocol =
    {
      Engine.init = (fun _ -> 0);
      step =
        (fun ~round ~me st ~inbox ->
          let st = st + List.fold_left (fun acc e -> acc + e.Types.payload) 0 inbox in
          (st, List.init n (fun dst -> envelope me dst round)));
    }
  in
  let states = Engine.run net protocol ~rounds:3 in
  (* Rounds 0,1 are received (round 2's sends are in flight): each
     processor hears 0 and 1 from all n. *)
  Array.iter
    (fun st -> Alcotest.(check int) "accumulated" (n * (0 + 1)) st)
    states

let test_engine_freezes_corrupt () =
  let strategy =
    Adversary.make ~name:"late"
      ~adapt:(fun view -> if view.Types.view_round = 1 then [ 0 ] else [])
      ()
  in
  let net = mk_net ~strategy () in
  let protocol =
    {
      Engine.init = (fun _ -> 0);
      step = (fun ~round:_ ~me:_ st ~inbox:_ -> (st + 1, []));
    }
  in
  let states = Engine.run net protocol ~rounds:5 in
  (* Processor 0 stepped in rounds 0 and 1, then fell. *)
  Alcotest.(check int) "frozen at corruption" 2 states.(0);
  Alcotest.(check int) "good steps all rounds" 5 states.(1)

(* Synthetic adversary views, for driving [adapt] at budget extremes the
   Net constructor itself forbids (budget >= n). *)
let mk_view ?(n = 8) ?(budget_left = 0) ?(is_corrupt = fun _ -> false) () =
  {
    Types.view_round = 0;
    view_n = n;
    view_is_corrupt = is_corrupt;
    view_corrupt = [];
    view_budget_left = budget_left;
    view_visible = [];
    view_rng = Prng.create 9L;
  }

let test_creeping_crash_terminates () =
  (* Regression: with [view_budget_left = n] the rejection sampler used
     to spin forever once every processor was corrupt.  Both extremes
     must return (bounded tries), picking only honest processors. *)
  let n = 8 in
  let s : int Types.strategy = Adversary.creeping_crash ~per_round:n in
  let all_corrupt =
    s.Types.adapt (mk_view ~n ~budget_left:n ~is_corrupt:(fun _ -> true) ())
  in
  Alcotest.(check (list int)) "all corrupt: nothing pickable" [] all_corrupt;
  let fresh = s.Types.adapt (mk_view ~n ~budget_left:n ()) in
  Alcotest.(check bool) "picks at most n" true (List.length fresh <= n);
  Alcotest.(check int) "no duplicates" (List.length fresh)
    (List.length (List.sort_uniq compare fresh));
  (* Half corrupt, budget still n: only the honest half is pickable. *)
  let half = s.Types.adapt (mk_view ~n ~budget_left:n ~is_corrupt:(fun p -> p < n / 2) ()) in
  Alcotest.(check bool) "only honest picked" true
    (List.for_all (fun p -> p >= n / 2) half)

let test_budget_edges_all_schedules () =
  (* Every canned workload schedule must cope with the two budget
     extremes: a zero budget (adaptation requests are all refused, and
     the schedule must not corrupt anyone) and a synthetic view claiming
     [view_budget_left = n] (more budget than honest processors — the
     [adapt] call must still terminate and stay within bounds).  The
     static schedules must also spend a budget one above their preset's
     own count in full, on every net: the net's budget is the only
     corruption count. *)
  let n = 16 in
  let params = Ks_core.Params.practical n in
  let tree = Ks_attacks.protocol_tree ~params ~ae_seed:(Ks_attacks.ae_seed_of 3L) in
  let spent strategy ~budget =
    let net = Net.create ~seed:3L ~n ~budget ~msg_bits:(fun _ -> 1) ~strategy () in
    ignore (Net.exchange net []);
    Net.corrupt_count net
  in
  List.iter
    (fun sc ->
      let label = sc.Ks_workload.Attacks.name in
      let strategy : int Types.strategy =
        Ks_workload.Attacks.generic_strategy sc ~params
      in
      let net =
        Net.create ~seed:3L ~n ~budget:0 ~msg_bits:(fun (_ : int) -> 1)
          ~strategy ()
      in
      for _ = 1 to 4 do
        ignore (Net.exchange net [ envelope 0 1 1 ])
      done;
      Alcotest.(check int)
        (label ^ ": budget 0 corrupts nobody")
        0 (Net.corrupt_count net);
      let picked =
        strategy.Types.adapt
          (mk_view ~n ~budget_left:n ~is_corrupt:(fun _ -> false) ())
      in
      Alcotest.(check bool)
        (label ^ ": budget n adapt stays within n")
        true
        (List.length picked <= n && List.for_all (fun p -> p >= 0 && p < n) picked);
      let saturated =
        strategy.Types.adapt
          (mk_view ~n ~budget_left:n ~is_corrupt:(fun _ -> true) ())
      in
      Alcotest.(check (list int))
        (label ^ ": everyone corrupt, nothing pickable")
        [] saturated;
      if List.mem label [ "crash"; "byz-static"; "flood"; "eclipse" ] then begin
        let budget = Ks_workload.Attacks.budget_of sc ~params + 1 in
        let check net got =
          Alcotest.(check int)
            (Printf.sprintf "%s: %s net spends budget %d" label net budget)
            budget got
        in
        check "generic" (spent strategy ~budget);
        check "vote" (spent (sc.vote ~params) ~budget);
        check "tree" (spent (sc.tree ~params ~tree) ~budget)
      end)
    (List.filter (fun a -> Option.is_some a.Ks_attacks.preset) Ks_attacks.registry)

let test_meter_merge () =
  let a = Meter.create ~n:4 and b = Meter.create ~n:4 in
  Meter.charge_send a 0 ~bits:10;
  Meter.charge_send b 0 ~bits:5;
  Meter.tick_round a;
  Meter.tick_round b;
  Meter.merge_into a b;
  Alcotest.(check int) "bits merged" 15 (Meter.sent_bits a 0);
  Alcotest.(check int) "rounds merged" 2 (Meter.rounds a)

let () =
  Alcotest.run "sim"
    [
      ( "net",
        [
          Alcotest.test_case "delivery" `Quick test_delivery;
          Alcotest.test_case "meter" `Quick test_meter_charges;
          Alcotest.test_case "corrupt src dropped" `Quick test_corrupt_src_dropped;
          Alcotest.test_case "adversary sends" `Quick test_adversary_sends;
          Alcotest.test_case "budget enforced" `Quick test_budget_enforced;
          Alcotest.test_case "adaptive corruption" `Quick test_adaptive_corruption;
          Alcotest.test_case "rushing visibility" `Quick test_rushing_visibility;
          Alcotest.test_case "on_corrupt hook" `Quick test_on_corrupt_hook;
          Alcotest.test_case "proc rng memoized" `Quick test_proc_rng_memoized;
        ] );
      ( "engine",
        [
          Alcotest.test_case "runs protocol" `Quick test_engine_runs_protocol;
          Alcotest.test_case "freezes corrupt" `Quick test_engine_freezes_corrupt;
        ] );
      ( "adversary",
        [
          Alcotest.test_case "creeping crash terminates" `Quick
            test_creeping_crash_terminates;
          Alcotest.test_case "budget edges, all schedules" `Quick
            test_budget_edges_all_schedules;
        ] );
      ("meter", [ Alcotest.test_case "merge" `Quick test_meter_merge ]);
    ]

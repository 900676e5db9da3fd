(* The invariant-monitor and trace layer: JSON round-trips, ring-buffer
   semantics, replay cross-checks against the meter, byte-identical
   determinism, each built-in monitor firing on a deliberate violation,
   and a property-based adversarial sweep over the [Attacks] scenarios. *)

module Event = Ks_monitor.Event
module Trace = Ks_monitor.Trace
module Monitor = Ks_monitor.Monitor
module Hub = Ks_monitor.Hub
module Attacks = Ks_workload.Attacks
module Params = Ks_core.Params
open Ks_sim.Types

(* --- JSON round-trip ------------------------------------------------- *)

let event_gen : Event.t QCheck.Gen.t =
  let open QCheck.Gen in
  let small = int_bound 10_000 in
  let label = oneofl [ "tree"; "a2e"; "rabin"; "weird \"label\"\\with\nescapes" ] in
  oneof
    [
      (fun (net, n, budget) l -> Event.Run_start { net; label = l; n; budget })
      <$> triple small small small <*> label;
      (fun (net, round) -> Event.Round_start { net; round }) <$> pair small small;
      (fun ((net, round, src), (dst, bits, adv)) ->
        Event.Send { net; round; src; dst; bits; adv })
      <$> pair (triple small small small) (triple small small bool);
      (fun ((net, round, proc), (total, budget)) ->
        Event.Corrupt { net; round; proc; total; budget })
      <$> pair (triple small small small) (pair small small);
      (fun l -> Event.Phase { name = l }) <$> label;
      (fun (net, proc, value) -> Event.Decide { net; proc; value })
      <$> triple small small small;
      (fun ((net, round, msgs), (bits, adv_msgs, adv_bits)) ->
        Event.Round_end { net; round; msgs; bits; adv_msgs; adv_bits })
      <$> pair (triple small small small) (triple small small small);
      (fun ((net, proc, sent_bits), (recv_bits, sent_msgs)) ->
        Event.Meter_proc { net; proc; sent_bits; recv_bits; sent_msgs })
      <$> pair (triple small small small) (pair small small);
      (fun (net, rounds, total_bits) -> Event.Run_end { net; rounds; total_bits })
      <$> triple small small small;
      (fun ((net, proc, round), (observed, bound), l) ->
        Event.Violation
          { invariant = l; net; proc; round; observed; bound; detail = l })
      <$> triple (triple small small small)
            (pair (float_bound_inclusive 1e9) (float_bound_inclusive 1e9))
            label;
    ]

let prop_json_roundtrip =
  QCheck.Test.make ~name:"event JSON roundtrip" ~count:500
    (QCheck.make ~print:Event.to_json event_gen)
    (fun ev -> Event.of_json (Event.to_json ev) = Some ev)

let test_json_malformed () =
  List.iter
    (fun s -> Alcotest.(check bool) s true (Event.of_json s = None))
    [
      "";
      "not json";
      "{}";
      {|{"ev":"warp","net":1}|};
      {|{"ev":"round_start","net":1}|} (* missing field *);
      {|{"ev":"round_start","net":1,"round":"x"}|};
    ]

(* --- Ring buffer ----------------------------------------------------- *)

let test_ring_capacity () =
  let sink = Trace.ring ~capacity:4 in
  for r = 0 to 9 do
    Trace.emit sink (Event.Round_start { net = 1; round = r })
  done;
  let rounds =
    List.map
      (function Event.Round_start { round; _ } -> round | _ -> -1)
      (Trace.contents sink)
  in
  Alcotest.(check (list int)) "last 4, oldest first" [ 6; 7; 8; 9 ] rounds

(* --- A toy protocol to drive hand-built nets ------------------------- *)

(* Each good processor sends one [bits]-priced message to its successor
   per round. *)
let ring_protocol ~n =
  {
    Ks_sim.Engine.init = (fun _ -> ());
    step =
      (fun ~round:_ ~me () ~inbox:_ ->
        ((), [ { src = me; dst = (me + 1) mod n; payload = 8 } ]));
  }

(* A net reports to the hub in scope when it is created, so [?hub] only
   needs to wrap the creation. *)
let mk_net ?hub ?label ?(n = 8) ?(budget = 0) ?(strategy = Ks_sim.Adversary.none)
    ?(seed = 11L) () =
  let create () =
    Ks_sim.Net.create ?label ~seed ~n ~budget ~msg_bits:(fun b -> b) ~strategy ()
  in
  match hub with None -> create () | Some h -> Hub.with_ambient h create

(* --- Trace replay vs the meter (the acceptance cross-check) ---------- *)

let test_replay_matches_meter () =
  let path = Filename.temp_file "ks_trace" ".jsonl" in
  let n = 16 in
  let hub = Hub.create ~trace:(Trace.file path) [] in
  let net = mk_net ~hub ~label:"toy" ~n () in
  ignore (Ks_sim.Engine.run net (ring_protocol ~n) ~rounds:5);
  Ks_sim.Net.emit_meter net;
  ignore (Hub.finish hub);
  let events = Trace.replay path in
  Sys.remove path;
  let sends = Trace.sent_bits_by_proc events in
  let meters = Trace.meter_by_proc events in
  let meter = Ks_sim.Net.meter net in
  Alcotest.(check int) "one net's snapshots" n (Hashtbl.length meters);
  for p = 0 to n - 1 do
    let sent, recv, msgs = Hashtbl.find meters (1, p) in
    Alcotest.(check int) "snapshot matches live meter (sent)"
      (Ks_sim.Meter.sent_bits meter p) sent;
    Alcotest.(check int) "snapshot matches live meter (recv)"
      (Ks_sim.Meter.recv_bits meter p) recv;
    Alcotest.(check int) "snapshot matches live meter (msgs)"
      (Ks_sim.Meter.sent_msgs meter p) msgs;
    Alcotest.(check int) "send events sum to the meter"
      sent
      (Option.value ~default:0 (Hashtbl.find_opt sends (1, p)))
  done

(* --- Determinism ----------------------------------------------------- *)

let traced_rabin ~seed =
  let sink = Trace.ring ~capacity:100_000 in
  let hub = Hub.create ~trace:sink [] in
  let params = Params.practical 32 in
  let scenario = Attacks.byzantine_static in
  let o =
    Hub.with_ambient hub (fun () ->
        Ks_baselines.Rabin.run ~seed ~n:32
          ~budget:(Attacks.budget_of scenario ~params)
          ~rounds:16 ~epsilon:params.Params.epsilon
          ~inputs:(Array.init 32 (fun i -> i mod 2 = 0))
          ~strategy:(Attacks.vote_flipper scenario ~params))
  in
  ignore (Hub.finish hub);
  (o, Trace.render (Trace.contents sink))

let test_trace_deterministic () =
  let o1, t1 = traced_rabin ~seed:9L in
  let o2, t2 = traced_rabin ~seed:9L in
  Alcotest.(check bool) "same outcome" true
    (o1.Ks_baselines.Outcome.decided = o2.Ks_baselines.Outcome.decided);
  Alcotest.(check bool) "trace nonempty" true (String.length t1 > 0);
  Alcotest.(check string) "byte-identical traces" t1 t2;
  let _, t3 = traced_rabin ~seed:10L in
  Alcotest.(check bool) "different seed, different trace" true (t1 <> t3)

let test_monitoring_changes_nothing () =
  (* The monitored run must be bit-identical to the unmonitored one. *)
  let params = Params.practical 32 in
  let scenario = Attacks.byzantine_adaptive in
  let go hub =
    let f () =
      Ks_baselines.Phase_king.run ~seed:3L ~n:32 ~budget:7 ~faults:7
        ~inputs:(Array.init 32 (fun i -> i < 20))
        ~strategy:(Attacks.generic_strategy scenario ~params)
    in
    match hub with None -> f () | Some h -> Hub.with_ambient h f
  in
  let plain = go None in
  let hub = Hub.create (Ks_workload.Experiments.standard_monitors ()) in
  let monitored = go (Some hub) in
  Alcotest.(check bool) "no violations" true (Hub.finish hub = []);
  Alcotest.(check bool) "identical outcome" true
    (plain.Ks_baselines.Outcome.decided = monitored.Ks_baselines.Outcome.decided
    && plain.Ks_baselines.Outcome.max_sent_bits
       = monitored.Ks_baselines.Outcome.max_sent_bits)

let test_meter_merge_totals () =
  let run seed =
    let net = mk_net ~n:8 ~seed () in
    ignore (Ks_sim.Engine.run net (ring_protocol ~n:8) ~rounds:3);
    Ks_sim.Net.meter net
  in
  let m1 = run 1L and m2 = run 2L in
  let t1 = Ks_sim.Meter.total_sent_bits m1
  and t2 = Ks_sim.Meter.total_sent_bits m2 in
  let r1 = Ks_sim.Meter.rounds m1 and r2 = Ks_sim.Meter.rounds m2 in
  Ks_sim.Meter.merge_into m1 m2;
  Alcotest.(check int) "merged bits = sum" (t1 + t2) (Ks_sim.Meter.total_sent_bits m1);
  Alcotest.(check int) "merged rounds = sum" (r1 + r2) (Ks_sim.Meter.rounds m1)

(* --- Each monitor fires on a deliberate violation -------------------- *)

let violations_of monitors f =
  let hub = Hub.create monitors in
  f hub;
  Hub.finish hub

let invariants vs = List.sort_uniq compare (List.map (fun v -> v.Monitor.invariant) vs)

let test_corruption_budget_fires () =
  let strategy =
    Ks_sim.Adversary.make ~name:"grab3"
      ~initial_corruptions:(fun _ ~n:_ ~budget:_ -> [ 0; 1; 2 ])
      ()
  in
  let vs =
    violations_of
      [ Monitor.corruption_budget ~limit:1 () ]
      (fun hub -> ignore (mk_net ~hub ~budget:3 ~strategy ()))
  in
  Alcotest.(check (list string)) "fires" [ "corruption-budget" ] (invariants vs);
  Alcotest.(check int) "one firing per excess corruption" 2 (List.length vs)

let test_corruption_budget_quiet_within_budget () =
  let strategy =
    Ks_sim.Adversary.make ~name:"grab3"
      ~initial_corruptions:(fun _ ~n:_ ~budget:_ -> [ 0; 1; 2 ])
      ()
  in
  let vs =
    violations_of
      [ Monitor.corruption_budget () ]
      (fun hub -> ignore (mk_net ~hub ~budget:3 ~strategy ()))
  in
  Alcotest.(check (list string)) "quiet" [] (invariants vs)

let test_agreement_fires () =
  let vs =
    violations_of
      [ Monitor.agreement () ]
      (fun hub ->
        let net = mk_net ~hub () in
        Ks_sim.Net.decide net 0 1;
        Ks_sim.Net.decide net 1 1;
        Ks_sim.Net.decide net 2 0;
        (* A re-decision that changes value is also a violation. *)
        Ks_sim.Net.decide net 1 0)
  in
  Alcotest.(check (list string)) "fires" [ "agreement" ] (invariants vs);
  Alcotest.(check int) "conflict + re-decision" 2 (List.length vs)

let test_validity_fires () =
  let vs =
    violations_of
      [ Monitor.validity ~inputs:(Array.make 8 1) ]
      (fun hub ->
        let net = mk_net ~hub () in
        Ks_sim.Net.decide net 0 1;
        Ks_sim.Net.decide net 3 0)
  in
  Alcotest.(check (list string)) "fires" [ "validity" ] (invariants vs)

let test_validity_quiet_when_split () =
  let inputs = Array.init 8 (fun i -> i mod 2) in
  let vs =
    violations_of
      [ Monitor.validity ~inputs ]
      (fun hub ->
        let net = mk_net ~hub () in
        Ks_sim.Net.decide net 0 0;
        Ks_sim.Net.decide net 1 1)
  in
  Alcotest.(check (list string)) "split inputs: inert" [] (invariants vs)

let test_bit_budget_fires () =
  let vs =
    violations_of
      [ Monitor.bit_budget ~bound:(fun ~n:_ -> 20.0) () ]
      (fun hub ->
        let net = mk_net ~hub ~n:4 () in
        ignore (Ks_sim.Engine.run net (ring_protocol ~n:4) ~rounds:4))
  in
  (* 8 bits/round: each processor crosses 20 bits in round 2, once. *)
  Alcotest.(check (list string)) "fires" [ "bit-budget" ] (invariants vs);
  Alcotest.(check int) "one per processor" 4 (List.length vs)

let test_bit_budget_label_scoped () =
  let vs =
    violations_of
      [ Monitor.bit_budget ~labels:[ "tree" ] ~bound:(fun ~n:_ -> 20.0) () ]
      (fun hub ->
        let net = mk_net ~hub ~label:"rabin" ~n:4 () in
        ignore (Ks_sim.Engine.run net (ring_protocol ~n:4) ~rounds:4))
  in
  Alcotest.(check (list string)) "unwatched label: quiet" [] (invariants vs)

let test_round_bound_fires () =
  let vs =
    violations_of
      [ Monitor.round_bound ~bound:(fun ~n:_ -> 3.0) () ]
      (fun hub ->
        let net = mk_net ~hub ~n:4 () in
        ignore (Ks_sim.Engine.run net (ring_protocol ~n:4) ~rounds:6))
  in
  Alcotest.(check (list string)) "fires" [ "round-bound" ] (invariants vs);
  Alcotest.(check int) "flags once" 1 (List.length vs)

let test_termination_fires () =
  let vs =
    violations_of
      [ Monitor.decided_everywhere ~n:4 ]
      (fun hub ->
        let net = mk_net ~hub ~n:4 () in
        Ks_sim.Net.decide net 0 1;
        Ks_sim.Net.decide net 1 1)
  in
  Alcotest.(check (list string)) "fires" [ "termination" ] (invariants vs);
  Alcotest.(check int) "two procs never decided" 2 (List.length vs)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_violation_report_renders () =
  let vs =
    violations_of
      [ Monitor.decided_everywhere ~n:2 ]
      (fun hub -> ignore (mk_net ~hub ~n:2 ()))
  in
  let table = Hub.render_violations vs in
  Alcotest.(check bool) "mentions invariant" true (contains table "termination");
  Alcotest.(check bool) "mentions header" true (contains table "INVARIANT VIOLATIONS")

(* --- Property-based adversarial sweep (the ISSUE's harness) ---------- *)

let presets =
  List.filter (fun a -> Option.is_some a.Attacks.preset) Ks_attacks.registry

let scenario_gen =
  QCheck.Gen.(
    triple (oneofl presets) (int_range 32 256) (int_range 1 1000))

let print_scenario (s, n, seed) = Printf.sprintf "%s n=%d seed=%d" s.Attacks.name n seed

let prop_no_violations_under_budget =
  QCheck.Test.make ~name:"standard monitors quiet across Attacks scenarios" ~count:12
    (QCheck.make ~print:print_scenario scenario_gen)
    (fun (scenario, n, seed) ->
      let params = Params.practical n in
      let hub = Hub.create (Ks_workload.Experiments.standard_monitors ()) in
      ignore
        (Hub.with_ambient hub (fun () ->
             Ks_baselines.Rabin.run ~seed:(Int64.of_int seed) ~n
               ~budget:(Attacks.budget_of scenario ~params)
               ~rounds:12 ~epsilon:params.Params.epsilon
               ~inputs:(Array.init n (fun i -> (i + seed) mod 2 = 0))
               ~strategy:(Attacks.vote_flipper scenario ~params)));
      Hub.finish hub = [])

let prop_fires_when_budget_exceeded =
  (* Same runs, but the monitor is given a stricter limit than the model
     budget: every corrupting scenario must trip it. *)
  let corrupting =
    List.filter (fun s -> not (String.equal s.Attacks.name "honest")) presets
  in
  QCheck.Test.make ~name:"corruption monitor fires when limit exceeded" ~count:12
    (QCheck.make ~print:print_scenario
       QCheck.Gen.(triple (oneofl corrupting) (int_range 32 256) (int_range 1 1000)))
    (fun (scenario, n, seed) ->
      let params = Params.practical n in
      let budget = Attacks.budget_of scenario ~params in
      QCheck.assume (budget > 0);
      let hub = Hub.create [ Monitor.corruption_budget ~limit:0 () ] in
      ignore
        (Hub.with_ambient hub (fun () ->
             Ks_baselines.Rabin.run ~seed:(Int64.of_int seed) ~n ~budget ~rounds:12
               ~epsilon:params.Params.epsilon
               ~inputs:(Array.init n (fun i -> (i + seed) mod 2 = 0))
               ~strategy:(Attacks.vote_flipper scenario ~params)));
      invariants (Hub.finish hub) = [ "corruption-budget" ])

let () =
  Alcotest.run "monitor"
    [
      ( "trace",
        [
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
          Alcotest.test_case "malformed JSON rejected" `Quick test_json_malformed;
          Alcotest.test_case "ring capacity" `Quick test_ring_capacity;
          Alcotest.test_case "replay matches meter" `Quick test_replay_matches_meter;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed, same trace" `Quick test_trace_deterministic;
          Alcotest.test_case "monitoring is passive" `Quick
            test_monitoring_changes_nothing;
          Alcotest.test_case "meter merge totals" `Quick test_meter_merge_totals;
        ] );
      ( "monitors",
        [
          Alcotest.test_case "corruption budget fires" `Quick
            test_corruption_budget_fires;
          Alcotest.test_case "corruption budget quiet" `Quick
            test_corruption_budget_quiet_within_budget;
          Alcotest.test_case "agreement fires" `Quick test_agreement_fires;
          Alcotest.test_case "validity fires" `Quick test_validity_fires;
          Alcotest.test_case "validity inert when split" `Quick
            test_validity_quiet_when_split;
          Alcotest.test_case "bit budget fires" `Quick test_bit_budget_fires;
          Alcotest.test_case "bit budget label-scoped" `Quick
            test_bit_budget_label_scoped;
          Alcotest.test_case "round bound fires" `Quick test_round_bound_fires;
          Alcotest.test_case "termination fires" `Quick test_termination_fires;
          Alcotest.test_case "violation table renders" `Quick
            test_violation_report_renders;
        ] );
      ( "adversarial-properties",
        [
          QCheck_alcotest.to_alcotest prop_no_violations_under_budget;
          QCheck_alcotest.to_alcotest prop_fires_when_budget_exceeded;
        ] );
    ]

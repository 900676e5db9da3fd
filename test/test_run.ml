(* The shared runner ([Ks_workload.Run]) against the hand-wired calls it
   replaced (run_oracle.ml): for every registry entry and every protocol
   it drives, at n=16 and seeds 1-2, the runner's outcome must equal the
   reference's field by field — bits, rounds, decided value and the
   degradation counters.  Plus the eclipse regression: the runner aims
   the eclipse schedule at the tree the protocol really builds. *)

module Run = Ks_workload.Run
module Attacks = Ks_workload.Attacks
module Inputs = Ks_workload.Inputs
module Oracle = Run_oracle
module Params = Ks_core.Params
module Prng = Ks_stdx.Prng

let n = 16
let params = Params.practical n
let seeds = [ 1L; 2L ]
let fraction = 0.25
let inputs seed = Inputs.generate (Prng.create seed) ~n Inputs.Split

(* One comparable row per run: the outcome's common fields. *)
let row ~agreed ~valid ~value ~rounds ~max_bits ~total_bits ~degraded
    ~decode_failures ~retries ~shortfalls ~quarantined =
  [
    ("agreed", Bool.to_int agreed); ("valid", Bool.to_int valid);
    ("value", Option.value value ~default:(-1)); ("rounds", rounds);
    ("max_bits", max_bits); ("total_bits", total_bits);
    ("degraded", Bool.to_int degraded); ("decode_failures", decode_failures);
    ("retries", retries); ("shortfalls", shortfalls); ("quarantined", quarantined);
  ]

let of_outcome (o : _ Run.outcome) =
  row ~agreed:o.agreed ~valid:o.valid ~value:o.value ~rounds:o.rounds
    ~max_bits:o.max_bits ~total_bits:o.total_bits ~degraded:o.degraded
    ~decode_failures:o.decode_failures ~retries:o.retries ~shortfalls:o.shortfalls
    ~quarantined:o.quarantined

let ppm x = ("agreement_ppm", int_of_float (x *. 1e6))

let of_everywhere (r : Ks_core.Everywhere.result) =
  ppm r.ae.agreement
  :: row ~agreed:r.success ~valid:r.ae.valid ~value:r.agreed_value
       ~rounds:(r.ae_rounds + r.a2e_rounds) ~max_bits:r.max_sent_bits_total
       ~total_bits:r.total_sent_bits ~degraded:r.degraded
       ~decode_failures:r.decode_failures ~retries:r.retries_used
       ~shortfalls:r.ae.quorum_shortfalls
       ~quarantined:(Ks_core.Comm.quarantine_events r.ae.comm)

let of_ae (r : Ks_core.Ae_ba.result) =
  let net = Ks_core.Comm.net r.comm in
  let meter = Ks_sim.Net.meter net in
  let goods = Ks_sim.Net.good_procs net in
  let decode_failures = Ks_core.Comm.decode_failures r.comm in
  let retries = Ks_core.Comm.retries_used r.comm in
  ppm r.agreement
  :: row
       ~agreed:(r.agreement >= 1.0 -. (1.0 /. float_of_int (Ks_stdx.Intmath.ceil_log2 n)))
       ~valid:r.valid ~value:(Some (Bool.to_int r.majority))
       ~rounds:(Ks_sim.Meter.rounds meter)
       ~max_bits:(Ks_sim.Meter.max_sent_bits meter ~over:goods)
       ~total_bits:
         (List.fold_left (fun acc p -> acc + Ks_sim.Meter.sent_bits meter p) 0 goods)
       ~degraded:(decode_failures > 0 || retries > 0)
       ~decode_failures ~retries ~shortfalls:r.quorum_shortfalls
       ~quarantined:(Ks_core.Comm.quarantine_events r.comm)

let of_baseline (o : Ks_baselines.Outcome.t) =
  row ~agreed:o.agreement ~valid:o.validity ~value:(Option.map Bool.to_int o.value)
    ~rounds:o.rounds ~max_bits:o.max_sent_bits ~total_bits:o.total_sent_bits
    ~degraded:false ~decode_failures:0 ~retries:0 ~shortfalls:0 ~quarantined:0

let of_async (o : Ks_async.Async_ba.outcome) =
  ("events", o.events)
  :: row ~agreed:o.agreement ~valid:o.validity ~value:(Option.map Bool.to_int o.value)
       ~rounds:o.max_rounds ~max_bits:o.max_sent_bits ~total_bits:o.total_sent_bits
       ~degraded:false ~decode_failures:0 ~retries:0 ~shortfalls:0 ~quarantined:0

(* The runner's row, with the same protocol-specific extras as the
   reference's. *)
let runner_row (type r) (p : r Run.protocol) ~adversary ~budget ~seed =
  let o = Run.run p ~params ~seed ~inputs:(inputs seed) ~adversary ~budget in
  let common = of_outcome o in
  match p with
  | Run.Everywhere -> ppm o.detail.Ks_core.Everywhere.ae.agreement :: common
  | Run.Ae -> ppm o.detail.Ks_core.Ae_ba.agreement :: common
  | Run.Async -> ("events", o.detail.Ks_async.Async_ba.events) :: common
  | Run.Rabin -> common
  | Run.Phase_king -> common
  | Run.Ben_or -> common

(* The reference row for a registry entry: presets through the old
   [--adversary] wiring, attacks through the old [--attack] wiring. *)
let reference_row (type r) (p : r Run.protocol) (adversary : Ks_attacks.t) ~seed =
  let inputs = inputs seed in
  let retries = 0 and quarantine = true in
  match adversary.preset with
  | Some _ ->
    let scenario = adversary in
    (* The one deliberate difference: eclipse now aims at the protocol's
       own tree. *)
    let eclipse = String.equal adversary.name "eclipse" in
    (match p with
     | Run.Everywhere ->
       let tree =
         if eclipse then
           Some (Ks_attacks.protocol_tree ~params ~ae_seed:(Ks_attacks.ae_seed_of seed))
         else None
       in
       of_everywhere
         (Oracle.run_everywhere ?tree ~retries ~quarantine ~params ~scenario ~seed
            ~inputs ())
     | Run.Ae ->
       let tree =
         if eclipse then Some (Ks_attacks.protocol_tree ~params ~ae_seed:seed) else None
       in
       of_ae (Oracle.run_ae ?tree ~retries ~quarantine ~params ~scenario ~seed ~inputs ())
     | Run.Rabin -> of_baseline (Oracle.run_baseline `Rabin ~params ~scenario ~seed ~inputs)
     | Run.Phase_king ->
       of_baseline (Oracle.run_baseline `Phase_king ~params ~scenario ~seed ~inputs)
     | Run.Ben_or ->
       of_baseline (Oracle.run_baseline `Ben_or ~params ~scenario ~seed ~inputs)
     | Run.Async -> of_async (Oracle.run_async ~n ~scenario ~seed ~inputs))
  | None ->
    let atk = adversary in
    (match p with
     | Run.Everywhere ->
       of_everywhere
         (Oracle.run_everywhere_attack ~retries ~quarantine ~params ~atk ~fraction
            ~seed ~inputs)
     | Run.Ae ->
       of_ae
         (Oracle.run_ae_attack ~retries ~quarantine ~params ~atk ~fraction ~seed
            ~inputs)
     | Run.Rabin ->
       of_baseline (Oracle.run_rabin_attack ~params ~atk ~fraction ~seed ~inputs)
     | Run.Phase_king | Run.Ben_or | Run.Async ->
       Alcotest.fail "attacks drive only everywhere, ae and rabin")

let fields = Alcotest.(list (pair string int))

let differential (adversary : Ks_attacks.t) (pname, Run.Any p) =
  Alcotest.test_case (adversary.name ^ " / " ^ pname) `Slow (fun () ->
      let budget = Ks_attacks.budget_for adversary ~params ~fraction in
      List.iter
        (fun seed ->
          Alcotest.check fields
            (Printf.sprintf "seed %Ld" seed)
            (reference_row p adversary ~seed)
            (runner_row p ~adversary ~budget ~seed))
        seeds)

let differential_cases =
  List.concat_map
    (fun adversary ->
      List.filter_map
        (fun ((_, Run.Any p) as proto) ->
          if Run.supports adversary p then Some (differential adversary proto)
          else None)
        Run.protocols)
    Ks_attacks.registry

(* T9's and T16's adversary against the tables' old hand-wiring. *)
let test_static_carry_only () =
  let adversary = Ks_workload.Experiments.static_carry_only in
  let budget = Ks_attacks.budget ~params ~fraction:0.30 in
  List.iter
    (fun seed ->
      let inputs = inputs seed in
      Alcotest.check fields "everywhere (T9)"
        (of_everywhere (Oracle.t9_everywhere ~params ~budget ~seed ~inputs))
        (runner_row Run.Everywhere ~adversary ~budget ~seed);
      Alcotest.check fields "rabin (T16)"
        (of_baseline (Oracle.t16_rabin ~params ~budget ~seed ~inputs))
        (runner_row Run.Rabin ~adversary ~budget ~seed))
    seeds

(* The eclipse regression: at n=64, seed 42, the schedule's initial
   corruptions (eclipse never corrupts adaptively) must swallow at least
   one whole level-1 node of the tree the run actually used. *)
let test_eclipse_hits_protocol_tree () =
  let n = 64 in
  let params = Params.practical n in
  let seed = 42L in
  let inputs = Inputs.generate (Prng.create seed) ~n Inputs.Split in
  let adversary = Option.get (Ks_attacks.find "eclipse") in
  let budget = Ks_attacks.budget_for adversary ~params ~fraction in
  let whole_leaf comm =
    let tree = Ks_core.Comm.tree comm and net = Ks_core.Comm.net comm in
    List.exists
      (fun node ->
        Array.for_all (Ks_sim.Net.is_corrupt net)
          (Ks_topology.Tree.members tree ~level:1 ~node))
      (List.init (Ks_topology.Tree.node_count tree ~level:1) Fun.id)
  in
  let e = Run.run Run.Everywhere ~params ~seed ~inputs ~adversary ~budget in
  Alcotest.(check bool) "everywhere: a whole level-1 node eclipsed" true
    (whole_leaf e.detail.Ks_core.Everywhere.ae.comm);
  let a = Run.run Run.Ae ~params ~seed ~inputs ~adversary ~budget in
  Alcotest.(check bool) "ae: a whole level-1 node eclipsed" true
    (whole_leaf a.detail.Ks_core.Ae_ba.comm)

let test_registry () =
  Alcotest.(check (list string))
    "presets first, then the attack library"
    [
      "honest"; "crash"; "byz-static"; "byz-adaptive"; "eclipse"; "flood";
      "equivocate"; "bad-share-inside"; "bad-share-outside"; "hunt-committee";
      "coin-split"; "wire-junk";
    ]
    (List.map (fun a -> a.Ks_attacks.name) Ks_attacks.registry);
  Alcotest.(check int) "presets drive all six protocols" 6
    (List.length
       (List.filter
          (fun (_, Run.Any p) -> Run.supports Attacks.crash p)
          Run.protocols));
  Alcotest.(check int) "T10 round rule" 14 (Ks_baselines.Rabin.t10_rounds ~n:16)

let () =
  Alcotest.run "run"
    [
      ( "runner",
        [
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "static carry-only (T9/T16)" `Slow test_static_carry_only;
          Alcotest.test_case "eclipse aims at the protocol tree" `Slow
            test_eclipse_hits_protocol_tree;
        ] );
      ("differential", differential_cases);
    ]

module Params = Ks_core.Params
module Outcome = Ks_baselines.Outcome

type _ protocol =
  | Everywhere : Ks_core.Everywhere.result protocol
  | Ae : Ks_core.Ae_ba.result protocol
  | Rabin : Outcome.t protocol
  | Phase_king : Outcome.t protocol
  | Ben_or : Outcome.t protocol
  | Async : Ks_async.Async_ba.outcome protocol

type any = Any : _ protocol -> any

let protocols =
  [
    ("everywhere", Any Everywhere); ("ae", Any Ae); ("rabin", Any Rabin);
    ("phase-king", Any Phase_king); ("ben-or", Any Ben_or); ("async", Any Async);
  ]

type 'r outcome = {
  agreed : bool;
  valid : bool;
  value : int option;
  rounds : int;
  max_bits : int;
  total_bits : int;
  degraded : bool;
  decode_failures : int;
  retries : int;
  shortfalls : int;
  quarantined : int;
  detail : 'r;
}

let ae_target ~n = 1.0 -. (1.0 /. float_of_int (Ks_stdx.Intmath.ceil_log2 n))

let supports (type r) (adversary : Ks_attacks.t) (p : r protocol) =
  match p with
  | Everywhere | Ae | Rabin -> true
  | Phase_king | Ben_or | Async -> Option.is_some adversary.Ks_attacks.preset

let async_faults ~n ~budget = Stdlib.min budget ((n - 2) / 3)

(* The degradation and quarantine counters are the tournament's; protocols
   without a tree phase report zeros. *)
let outcome ?tournament ~agreed ~valid ~value ~rounds ~max_bits ~total_bits detail =
  let count f =
    match tournament with Some (ae : Ks_core.Ae_ba.result) -> f ae | None -> 0
  in
  let decode_failures = count (fun ae -> Ks_core.Comm.decode_failures ae.comm) in
  let retries = count (fun ae -> Ks_core.Comm.retries_used ae.comm) in
  {
    agreed; valid; value; rounds; max_bits; total_bits;
    degraded = decode_failures > 0 || retries > 0;
    decode_failures; retries;
    shortfalls = count (fun ae -> ae.quorum_shortfalls);
    quarantined = count (fun ae -> Ks_core.Comm.quarantine_events ae.comm);
    detail;
  }

let baseline (o : Outcome.t) =
  outcome ~agreed:o.agreement ~valid:o.validity
    ~value:(Option.map Bool.to_int o.value) ~rounds:o.rounds
    ~max_bits:o.max_sent_bits ~total_bits:o.total_sent_bits o

let generic (adversary : Ks_attacks.t) ~params =
  match adversary.preset with
  | Some p -> p.generic ~params
  | None -> invalid_arg ("Run.run: no baseline schedule for " ^ adversary.name)

let run (type r) ?retries ?quarantine (p : r protocol) ~params ~seed ~inputs
    ~(adversary : Ks_attacks.t) ~budget : r outcome =
  if not (supports adversary p) then
    invalid_arg
      ("Run.run: " ^ adversary.name ^ " drives only everywhere, ae and rabin");
  let n = params.Params.n in
  let lg = Ks_stdx.Intmath.ceil_log2 n in
  let behavior = adversary.behavior in
  match p with
  | Everywhere ->
    let tree =
      Ks_attacks.protocol_tree ~params ~ae_seed:(Ks_attacks.ae_seed_of seed)
    in
    let r =
      Ks_core.Everywhere.run ?retries ?quarantine ~params ~seed ~inputs ~behavior
        ~tree_strategy:(adversary.tree ~params ~tree)
        ~a2e_strategy:(fun ~carried ~coin -> adversary.a2e ~params ~carried ~coin)
        ~budget ()
    in
    outcome ~tournament:r.ae ~agreed:r.success ~valid:r.ae.valid
      ~value:r.agreed_value ~rounds:(r.ae_rounds + r.a2e_rounds)
      ~max_bits:r.max_sent_bits_total ~total_bits:r.total_sent_bits r
  | Ae ->
    (* Standalone, the tournament's seed is the run's own seed. *)
    let tree = Ks_attacks.protocol_tree ~params ~ae_seed:seed in
    let r =
      Ks_core.Ae_ba.run ?retries ?quarantine ~params ~seed ~inputs ~behavior
        ~strategy:(adversary.tree ~params ~tree) ~budget ()
    in
    let net = Ks_core.Comm.net r.comm in
    let meter = Ks_sim.Net.meter net in
    let goods = Ks_sim.Net.good_procs net in
    outcome ~tournament:r ~agreed:(r.agreement >= ae_target ~n) ~valid:r.valid
      ~value:(Some (Bool.to_int r.majority)) ~rounds:(Ks_sim.Meter.rounds meter)
      ~max_bits:(Ks_sim.Meter.max_sent_bits meter ~over:goods)
      ~total_bits:
        (List.fold_left (fun acc p -> acc + Ks_sim.Meter.sent_bits meter p) 0 goods)
      r
  | Rabin ->
    baseline
      (Ks_baselines.Rabin.run ~seed ~n ~budget
         ~rounds:(Ks_baselines.Rabin.t10_rounds ~n)
         ~epsilon:params.Params.epsilon ~inputs
         ~strategy:(adversary.vote ~params))
  | Phase_king ->
    let faults = Stdlib.min budget (Stdlib.max 1 ((n / 4) - 1)) in
    baseline
      (Ks_baselines.Phase_king.run ~seed ~n ~budget:faults ~faults ~inputs
         ~strategy:(generic adversary ~params))
  | Ben_or ->
    baseline
      (Ks_baselines.Ben_or.run ~seed ~n ~budget:(Stdlib.min budget (n / 6))
         ~max_phases:(4 * lg) ~inputs
         ~strategy:(generic adversary ~params))
  | Async ->
    let byz =
      match behavior with
      | Ks_core.Comm.Silent -> Ks_async.Async_ba.Silent
      | Ks_core.Comm.Follow | Ks_core.Comm.Garbage | Ks_core.Comm.Flip
      | Ks_core.Comm.Equivocate ->
        Ks_async.Async_ba.Equivocate
    in
    let o =
      Ks_async.Async_ba.run ~seed ~n ~f:(async_faults ~n ~budget) ~inputs ~byz
        ~scheduler:Ks_async.Async_net.Fair ~max_events:8_000_000 ()
    in
    outcome ~agreed:o.agreement ~valid:o.validity
      ~value:(Option.map Bool.to_int o.value) ~rounds:o.max_rounds
      ~max_bits:o.max_sent_bits ~total_bits:o.total_sent_bits o

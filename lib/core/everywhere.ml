module Prng = Ks_stdx.Prng
open Ks_sim.Types

let log_src = Logs.Src.create "ks.everywhere" ~doc:"Algorithm 4 composition"

module Log = (val Logs.src_log log_src : Logs.LOG)

type result = {
  ae : Ae_ba.result;
  a2e : Ae_to_e.result;
  success : bool;
  safe : bool;
  degraded : bool;
  decode_failures : int;
  retries_used : int;
  agreed_value : int option;
  ae_rounds : int;
  a2e_rounds : int;
  max_sent_bits_ae : int;
  max_sent_bits_a2e : int;
  max_sent_bits_total : int;
  total_sent_bits : int;
}

let carry_corruptions base ~carried =
  {
    base with
    initial_corruptions =
      (fun rng ~n ~budget -> carried @ base.initial_corruptions rng ~n ~budget);
  }

let run ?(retries = 0) ?quarantine ~params ~seed ~inputs ~behavior ~tree_strategy
    ~a2e_strategy ?budget () =
  let root = Prng.create seed in
  let ae_seed = Prng.bits64 root in
  let a2e_seed = Prng.bits64 root in
  Ks_sim.Tap.phase "tournament";
  let ae =
    Ae_ba.run ~retries ?quarantine ~params ~seed:ae_seed ~inputs ~behavior
      ~strategy:tree_strategy ?budget ()
  in
  let ae_net = Comm.net ae.Ae_ba.comm in
  let carried =
    List.filter
      (fun p -> Ks_sim.Net.is_corrupt ae_net p)
      (List.init params.Params.n (fun i -> i))
  in
  let config = Ae_to_e.config_of_params params in
  let a2e_net =
    Ks_sim.Net.create ~label:"a2e" ~seed:a2e_seed ~n:params.Params.n
      ~budget:(Option.value ~default:(Params.corruption_budget params) budget)
      ~msg_bits:Ae_to_e.msg_bits
      ~strategy:(a2e_strategy ~carried ~coin:ae.Ae_ba.coin_view) ()
  in
  Log.info (fun m ->
      m "tournament done: a.e. agreement %.3f, %d corrupted; amplifying"
        ae.Ae_ba.agreement (List.length carried));
  Ks_sim.Tap.phase "amplify";
  let knows p = Some (Bool.to_int ae.Ae_ba.votes.(p)) in
  let a2e =
    Ae_to_e.run ~net:a2e_net ~config ~knows ~coin:ae.Ae_ba.coin_view
  in
  (* Good = never corrupted in either phase. *)
  let good p =
    (not (Ks_sim.Net.is_corrupt ae_net p)) && not (Ks_sim.Net.is_corrupt a2e_net p)
  in
  let target = Bool.to_int ae.Ae_ba.majority in
  let success = ref true and safe = ref true in
  for p = 0 to params.Params.n - 1 do
    if good p then begin
      match a2e.Ae_to_e.decided.(p) with
      | Some v when v = target -> ()
      | Some _ -> success := false; safe := false
      | None -> success := false
    end
  done;
  (* Meters: the coin opens triggered lazily by the a2e phase landed on
     the tree network's meter, so read both only now. *)
  let ae_meter = Ks_sim.Net.meter ae_net in
  let a2e_meter = Ks_sim.Net.meter a2e_net in
  let goods = List.filter good (List.init params.Params.n (fun i -> i)) in
  let max_ae = Ks_sim.Meter.max_sent_bits ae_meter ~over:goods in
  let max_a2e = Ks_sim.Meter.max_sent_bits a2e_meter ~over:goods in
  let max_total =
    List.fold_left
      (fun acc p ->
        Stdlib.max acc
          (Ks_sim.Meter.sent_bits ae_meter p + Ks_sim.Meter.sent_bits a2e_meter p))
      0 goods
  in
  let total =
    List.fold_left
      (fun acc p ->
        acc + Ks_sim.Meter.sent_bits ae_meter p + Ks_sim.Meter.sent_bits a2e_meter p)
      0 goods
  in
  Log.info (fun m -> m "everywhere: success=%b safe=%b" !success !safe);
  (* The a2e phase triggers lazy coin opens charged to the tree meter, so
     the tree snapshot is only final now. *)
  Ks_sim.Net.emit_meter ae_net;
  let decode_failures = Comm.decode_failures ae.Ae_ba.comm in
  let retries_used = Comm.retries_used ae.Ae_ba.comm in
  {
    ae;
    a2e;
    success = !success;
    safe = !safe;
    degraded = decode_failures > 0 || retries_used > 0;
    decode_failures;
    retries_used;
    agreed_value = (if !success then Some target else None);
    ae_rounds = Ks_sim.Meter.rounds ae_meter;
    a2e_rounds = Ks_sim.Meter.rounds a2e_meter;
    max_sent_bits_ae = max_ae;
    max_sent_bits_a2e = max_a2e;
    max_sent_bits_total = max_total;
    total_sent_bits = total;
  }

module Prng = Ks_stdx.Prng
open Types

type 'msg t = {
  size : int;
  budget : int;
  corrupt : bool array;
  mutable corrupt_order : proc list; (* newest first *)
  mutable corrupt_count : int;
  meter : Meter.t;
  strategy : 'msg strategy;
  engine_rng : Prng.t;
  adversary_rng : Prng.t;
  proc_seed : Prng.t;
  proc_rngs : Prng.t option array;
  msg_bits : 'msg -> int;
  tap : Tap.t;
  mutable round : int;
}

let apply_corruptions t procs =
  List.iter
    (fun p ->
      if p >= 0 && p < t.size && (not t.corrupt.(p)) && t.corrupt_count < t.budget
      then begin
        t.corrupt.(p) <- true;
        t.corrupt_order <- p :: t.corrupt_order;
        t.corrupt_count <- t.corrupt_count + 1;
        Tap.corrupt t.tap ~round:t.round ~proc:p ~total:t.corrupt_count;
        t.strategy.on_corrupt p
      end)
    procs

let create ?(label = "net") ~seed ~n ~budget ~msg_bits ~strategy () =
  if n <= 0 then invalid_arg "Net.create: n must be positive";
  if budget < 0 || budget >= n then invalid_arg "Net.create: budget out of range";
  let tap = Tap.create ~label ~n ~budget in
  let root = Prng.create seed in
  let t =
    {
      size = n;
      budget;
      corrupt = Array.make n false;
      corrupt_order = [];
      corrupt_count = 0;
      meter = Meter.create ~n;
      strategy;
      engine_rng = Prng.split root;
      adversary_rng = Prng.split root;
      proc_seed = Prng.split root;
      proc_rngs = Array.make n None;
      msg_bits;
      tap;
      round = 0;
    }
  in
  apply_corruptions t (strategy.initial_corruptions t.adversary_rng ~n ~budget);
  t

let n t = t.size
let round t = t.round
let meter t = t.meter
let is_corrupt t p = t.corrupt.(p)
let corrupt_count t = t.corrupt_count

let good_procs t =
  let rec go p acc = if p < 0 then acc else go (p - 1) (if t.corrupt.(p) then acc else p :: acc) in
  go (t.size - 1) []

let rng t = t.engine_rng

(* Memoized so repeated calls return the same advancing stream — a fresh
   stream per call would replay the same randomness across independent
   secret-sharing polynomials. *)
let proc_rng t p =
  match t.proc_rngs.(p) with
  | Some rng -> rng
  | None ->
    let rng = Prng.split_at t.proc_seed p in
    t.proc_rngs.(p) <- Some rng;
    rng

let corrupt_now t procs = apply_corruptions t procs

let decide t p value = Tap.decide t.tap ~proc:p ~value

let quarantine t ~accuser ~offender ~evidence ~info =
  Tap.quarantine t.tap ~round:t.round ~accuser ~offender ~evidence ~info

let emit_meter t = Tap.emit_meter t.tap t.meter ~rounds:(Meter.rounds t.meter)

let make_view t good_outgoing =
  {
    view_round = t.round;
    view_n = t.size;
    view_is_corrupt = (fun p -> t.corrupt.(p));
    view_corrupt = List.rev t.corrupt_order;
    view_budget_left = t.budget - t.corrupt_count;
    view_visible = List.filter (fun e -> t.corrupt.(e.dst)) good_outgoing;
    view_rng = t.adversary_rng;
  }

let exchange t outgoing =
  Tap.round_start t.tap ~round:t.round;
  (* Benign churn first: crash/recover/silence state advances before any
     traffic moves, and below the adversary — a crashed or silenced
     processor's messages never even enter the network for the adversary
     to rush against. *)
  Tap.begin_round t.tap ~round:t.round;
  (* Only good processors' messages enter the network from the protocol. *)
  let good_outgoing =
    Tap.suppress_senders t.tap (List.filter (fun e -> not t.corrupt.(e.src)) outgoing)
  in
  (* Adaptive corruption: the adversary inspects what it may see, then
     takes over more processors before delivery. *)
  let requested = t.strategy.adapt (make_view t good_outgoing) in
  apply_corruptions t requested;
  (* Messages from freshly corrupted processors are reclaimed. *)
  let good_outgoing = List.filter (fun e -> not t.corrupt.(e.src)) good_outgoing in
  (* Rushing: the adversary reads traffic addressed to its processors and
     only now decides what the corrupted processors send.  The model is
     enforced here: only corrupted, in-range senders may inject, and the
     src bound is checked before the corruption lookup so a strategy
     returning a wild src is dropped rather than crashing the engine.  A
     crashed machine cannot transmit even under adversarial control
     (silence windows are a protocol-layer omission and bind good
     processors only). *)
  let adversarial =
    Tap.drop_down_senders t.tap
      (List.filter
         (fun e ->
           e.src >= 0 && e.src < t.size && t.corrupt.(e.src) && e.dst >= 0
           && e.dst < t.size)
         (t.strategy.act (make_view t good_outgoing)))
  in
  (* Accounting and delivery in one pass: each payload is measured once,
     the sender pays, the (good) receiver is charged once per copy that
     survives the in-flight faults, and the per-round totals for
     Round_end accumulate alongside. *)
  let inboxes = Array.make t.size [] in
  let transmit e ~adv =
    let bits = t.msg_bits e.payload in
    (* Corrupted senders pay for their traffic like everyone else —
       leaving adversarial sends unmetered undercounts total bits. *)
    Meter.charge_send t.meter e.src ~bits;
    for _ = 1 to Tap.send t.tap ~round:t.round ~src:e.src ~dst:e.dst ~bits ~adv do
      inboxes.(e.dst) <- e :: inboxes.(e.dst);
      if not t.corrupt.(e.dst) then Meter.charge_recv t.meter e.dst ~bits
    done;
    bits
  in
  let good_count = ref 0 and good_bits = ref 0 in
  List.iter
    (fun e ->
      incr good_count;
      good_bits := !good_bits + transmit e ~adv:false)
    good_outgoing;
  let adv_count = ref 0 and adv_bits = ref 0 in
  List.iter
    (fun e ->
      incr adv_count;
      adv_bits := !adv_bits + transmit e ~adv:true)
    adversarial;
  (* Reverse so good messages appear first, in send order. *)
  let inboxes = Array.map List.rev inboxes in
  Tap.round_end t.tap ~round:t.round ~msgs:!good_count ~bits:!good_bits
    ~adv_msgs:!adv_count ~adv_bits:!adv_bits;
  Meter.tick_round t.meter;
  t.round <- t.round + 1;
  inboxes

(* Everything a network reports to the monitor hub and draws from the
   benign-fault plan.  Both are picked up from their ambient slots once,
   when the net is created; a net made outside [Hub.with_ambient] stays
   silent, and one made outside [Plan.with_plan] (or under a trivial
   plan) has reliable channels and makes no extra draws. *)

module Event = Ks_monitor.Event
module Injector = Ks_faults.Injector

type t = {
  hub : Ks_monitor.Hub.t option;
  faults : Injector.t option;
  net : int;
  n : int;
  budget : int;
}

let create ~label ~n ~budget =
  let hub = Ks_monitor.Hub.ambient () in
  let faults =
    Option.bind (Ks_faults.Plan.ambient ()) (fun plan -> Injector.create plan ~label ~n)
  in
  let net =
    match hub with
    | Some h -> Ks_monitor.Hub.register_net h ~label ~n ~budget
    | None -> 0
  in
  { hub; faults; net; n; budget }

let emit t ev = match t.hub with None -> () | Some h -> Ks_monitor.Hub.emit h ev

let corrupt t ~round ~proc ~total =
  emit t (Event.Corrupt { net = t.net; round; proc; total; budget = t.budget })

let round_start t ~round = emit t (Event.Round_start { net = t.net; round })

let round_end t ~round ~msgs ~bits ~adv_msgs ~adv_bits =
  emit t (Event.Round_end { net = t.net; round; msgs; bits; adv_msgs; adv_bits })

let fault t kind ~round ~proc ~dst ~info =
  emit t
    (Event.Fault
       { net = t.net; round; kind = Injector.kind_to_string kind; proc; dst; info })

let begin_round t ~round =
  match t.faults with
  | None -> ()
  | Some inj ->
    Injector.begin_round inj ~round ~on_fault:(fun kind ~proc ~info ->
        fault t kind ~round ~proc ~dst:(-1) ~info)

let suppress_senders t msgs =
  match t.faults with
  | None -> msgs
  | Some inj -> List.filter (fun e -> not (Injector.send_suppressed inj e.Types.src)) msgs

let drop_down_senders t msgs =
  match t.faults with
  | None -> msgs
  | Some inj -> List.filter (fun e -> not (Injector.down inj e.Types.src)) msgs

(* The hot path, one call per message: the Send event is only built when
   someone is listening, and without a plan every message arrives once. *)
let send t ~round ~src ~dst ~bits ~adv =
  (match t.hub with
   | None -> ()
   | Some h -> Ks_monitor.Hub.emit h (Event.Send { net = t.net; round; src; dst; bits; adv }));
  match t.faults with
  | None -> 1
  | Some inj ->
    if Injector.down inj dst then 0
    else (
      match Injector.transit inj with
      | `Deliver -> 1
      | `Drop ->
        fault t Injector.Drop ~round ~proc:src ~dst ~info:bits;
        0
      | `Duplicate ->
        fault t Injector.Dup ~round ~proc:src ~dst ~info:bits;
        2)

let decide t ~proc ~value = emit t (Event.Decide { net = t.net; proc; value })

let quarantine t ~round ~accuser ~offender ~evidence ~info =
  emit t (Event.Quarantine { net = t.net; round; accuser; offender; evidence; info })

let emit_meter t meter ~rounds =
  match t.hub with
  | None -> ()
  | Some _ ->
    for p = 0 to t.n - 1 do
      emit t
        (Event.Meter_proc
           { net = t.net; proc = p; sent_bits = Meter.sent_bits meter p;
             recv_bits = Meter.recv_bits meter p; sent_msgs = Meter.sent_msgs meter p })
    done;
    emit t
      (Event.Run_end
         { net = t.net; rounds; total_bits = Meter.total_sent_bits meter })

let phase name =
  match Ks_monitor.Hub.ambient () with
  | Some h -> Ks_monitor.Hub.phase h name
  | None -> ()

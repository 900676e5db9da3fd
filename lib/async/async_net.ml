module Prng = Ks_stdx.Prng
open Ks_sim.Types

type 'msg scheduler = Fair | Delay_targets of int list

(* A growable pool with O(1) random removal (swap with last). *)
module Pool = struct
  type 'msg t = {
    mutable slots : 'msg envelope option array;
    mutable count : int;
  }

  let create () = { slots = Array.make 64 None; count = 0 }

  let push t e =
    if t.count = Array.length t.slots then begin
      let bigger = Array.make (2 * t.count) None in
      Array.blit t.slots 0 bigger 0 t.count;
      t.slots <- bigger
    end;
    t.slots.(t.count) <- Some e;
    t.count <- t.count + 1

  let take t i =
    match t.slots.(i) with
    | None -> assert false
    | Some e ->
      t.count <- t.count - 1;
      t.slots.(i) <- t.slots.(t.count);
      t.slots.(t.count) <- None;
      e

  let take_random t rng = take t (Prng.int rng t.count)
end

type 'msg t = {
  size : int;
  corrupt : bool array;
  starved : bool array;
  meter : Ks_sim.Meter.t;
  msg_bits : 'msg -> int;
  rng : Prng.t;
  (* Two pools keep scheduling O(1): [free] holds traffic the scheduler
     is happy to deliver, [held] the traffic to starved destinations
     (delivered only when nothing else is pending — eventual delivery). *)
  free : 'msg Pool.t;
  held : 'msg Pool.t;
  (* No rounds in the async model: events carry the delivery-event count
     instead, so a trace still orders the run. *)
  mutable delivered : int;
  tap : Ks_sim.Tap.t;
}

let create ?(label = "async") ~seed ~n ~corrupt ~msg_bits ~scheduler () =
  if n <= 0 then invalid_arg "Async_net.create: n must be positive";
  let corrupt_arr = Array.make n false in
  List.iter (fun p -> if p >= 0 && p < n then corrupt_arr.(p) <- true) corrupt;
  let starved = Array.make n false in
  (match scheduler with
   | Fair -> ()
   | Delay_targets targets ->
     List.iter (fun p -> if p >= 0 && p < n then starved.(p) <- true) targets);
  (* Corruption is static: the whole budget falls before the first
     delivery.  The round-free model has no churn pass, so only the
     plan's in-flight omission/duplication rates apply here. *)
  let fallen = List.filter (fun p -> corrupt_arr.(p)) (List.init n Fun.id) in
  let tap = Ks_sim.Tap.create ~label ~n ~budget:(List.length fallen) in
  List.iteri (fun i p -> Ks_sim.Tap.corrupt tap ~round:0 ~proc:p ~total:(i + 1)) fallen;
  {
    size = n;
    corrupt = corrupt_arr;
    starved;
    meter = Ks_sim.Meter.create ~n;
    msg_bits;
    rng = Prng.create seed;
    free = Pool.create ();
    held = Pool.create ();
    delivered = 0;
    tap;
  }

let n t = t.size
let is_corrupt t p = t.corrupt.(p)
let meter t = t.meter
let pending t = t.free.Pool.count + t.held.Pool.count

let send t msgs =
  List.iter
    (fun e ->
      if e.dst >= 0 && e.dst < t.size then begin
        let bits = t.msg_bits e.payload in
        if not t.corrupt.(e.src) then
          Ks_sim.Meter.charge_send t.meter e.src ~bits;
        (* In-flight benign faults apply at enqueue time: the sender has
           paid either way; omission loses the message, duplication
           schedules (and later charges the receiver for) a second copy. *)
        for _ = 1 to
          Ks_sim.Tap.send t.tap ~round:t.delivered ~src:e.src ~dst:e.dst ~bits
            ~adv:t.corrupt.(e.src)
        do
          if t.starved.(e.dst) then Pool.push t.held e else Pool.push t.free e
        done
      end)
    msgs

let decide t p value = Ks_sim.Tap.decide t.tap ~proc:p ~value
let emit_meter t = Ks_sim.Tap.emit_meter t.tap t.meter ~rounds:t.delivered

let step t ~handler =
  if pending t = 0 then false
  else begin
    (* Starved destinations get a trickle — one delivery in 32 — rather
       than nothing: deferring held traffic only while other traffic
       exists would let a busy network starve them forever, which the
       asynchronous model's eventual-delivery guarantee forbids. *)
    let from_held =
      t.held.Pool.count > 0
      && (t.free.Pool.count = 0 || Prng.int t.rng 32 = 0)
    in
    let e =
      if from_held then Pool.take_random t.held t.rng
      else Pool.take_random t.free t.rng
    in
    if not t.corrupt.(e.dst) then
      Ks_sim.Meter.charge_recv t.meter e.dst ~bits:(t.msg_bits e.payload);
    t.delivered <- t.delivered + 1;
    send t (handler ~me:e.dst e);
    true
  end

let run t ~handler ~max_events =
  let events = ref 0 in
  while !events < max_events && step t ~handler do
    incr events
  done;
  !events

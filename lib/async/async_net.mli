(** Asynchronous message-passing network — the substrate for the paper's
    §6 open problem ("Can we adapt our results to the asynchronous
    communication model?").

    No rounds: the adversary controls {e scheduling}.  Messages sit in a
    pending pool; one delivery event at a time, the scheduler picks which
    pending message arrives next.  Delivery is guaranteed {e eventually}
    (the classical async assumption): even a hostile scheduler can only
    reorder and delay, not drop.  Corruption is static here — the
    adaptive-async combination is open territory beyond even the paper's
    question.

    As in the synchronous simulator, good processors' sends are charged
    to a per-processor bit meter, and corrupted processors' behaviour is
    the caller's handler acting for them (the scheduler is the async
    adversary's distinctive power). *)

type 'msg scheduler =
  | Fair  (** uniformly random among pending messages *)
  | Delay_targets of int list
      (** starve the listed destinations: their messages are delivered
          only as a 1-in-32 trickle (or when nothing else is pending) —
          the strongest "unlucky network" compatible with the model's
          eventual-delivery guarantee *)

type 'msg t

(** [create ~seed ~n ~corrupt ~msg_bits ~scheduler ()] — like
    [Ks_sim.Net.create], reports to the hub in scope at creation (see
    [Ks_sim.Tap]).  Events carry the delivery-event count in place of a
    round number — the async model has no rounds.

    A fault plan in scope weakens the eventual-delivery guarantee with
    benign in-flight faults: each enqueued message may be dropped or
    duplicated per the plan's [drop] and [dup] rates.  The plan's churn
    and silence rates need a round structure and do not apply here. *)
val create :
  ?label:string ->
  seed:int64 ->
  n:int ->
  corrupt:int list ->
  msg_bits:('msg -> int) ->
  scheduler:'msg scheduler ->
  unit ->
  'msg t

val n : 'msg t -> int
val is_corrupt : 'msg t -> int -> bool
val meter : 'msg t -> Ks_sim.Meter.t

(** [send t msgs] — enqueue messages (charging good senders). *)
val send : 'msg t -> 'msg Ks_sim.Types.envelope list -> unit

val pending : 'msg t -> int

(** [step t ~handler] — deliver one message per the scheduler; the
    recipient's [handler] runs (for corrupted recipients too — the
    caller's handler decides their behaviour) and its outgoing messages
    are enqueued.  Returns [false] when nothing was pending. *)
val step : 'msg t -> handler:(me:int -> 'msg Ks_sim.Types.envelope -> 'msg Ks_sim.Types.envelope list) -> bool

(** [run t ~handler ~max_events] — step until quiescent or the event
    budget is exhausted; returns events processed. *)
val run :
  'msg t ->
  handler:(me:int -> 'msg Ks_sim.Types.envelope -> 'msg Ks_sim.Types.envelope list) ->
  max_events:int ->
  int

(** [decide t p v] — record good processor [p]'s final decision in the
    monitor event stream. *)
val decide : 'msg t -> int -> int -> unit

(** [emit_meter t] — emit per-processor meter snapshots plus a run-end
    event; call when the protocol finishes. *)
val emit_meter : 'msg t -> unit

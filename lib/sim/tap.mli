(** A network's one link to instrumentation: the monitor hub it reports
    to and the benign-fault plan it suffers.  [Net] and
    [Ks_async.Async_net] each own one tap and never build events or
    consult the plan themselves.

    Attachment is ambient and happens once, at {!create}: wrap a run in
    [Ks_monitor.Hub.with_ambient] to monitor (and trace) every network it
    creates, and in [Ks_faults.Plan.with_plan] to fault them.  With no
    hub in scope every reporting call is inert; with no plan, or a
    trivial one, no injector is built, so the channels are reliable and
    no fault randomness is drawn.  A tap never touches the engine,
    adversary or processor PRNG streams, so monitored and unmonitored
    runs are bit-identical. *)

type t

(** [create ~label ~n ~budget] — read the ambient hub and plan, build
    the fault injector (its stream is seeded by the plan's seed and
    [label]) and register the net with the hub, emitting [Run_start]. *)
val create : label:string -> n:int -> budget:int -> t

(** {1 Events} *)

(** [corrupt t ~round ~proc ~total] — [proc] fell, [total] corruptions
    so far against the [budget] given at creation. *)
val corrupt : t -> round:int -> proc:int -> total:int -> unit

val round_start : t -> round:int -> unit

val round_end :
  t -> round:int -> msgs:int -> bits:int -> adv_msgs:int -> adv_bits:int -> unit

(** [send t ~round ~src ~dst ~bits ~adv] — report one metered message
    (the [Send] event is built only when a hub listens) and return how
    many copies of it reach [dst]: 1 normally; 0 when [dst] is crashed
    or the plan drops it; 2 when the plan duplicates it.  Drops and
    duplications are reported as [Fault] events. *)
val send : t -> round:int -> src:int -> dst:int -> bits:int -> adv:bool -> int

val decide : t -> proc:int -> value:int -> unit

val quarantine :
  t -> round:int -> accuser:int -> offender:int -> evidence:string -> info:int -> unit

(** [emit_meter t meter ~rounds] — one [Meter_proc] per processor, then
    [Run_end] carrying [rounds]. *)
val emit_meter : t -> Meter.t -> rounds:int -> unit

(** [phase name] — a protocol-phase marker on the ambient hub, for
    orchestration code that spans several networks. *)
val phase : string -> unit

(** {1 Benign faults} *)

(** [begin_round t ~round] — advance crash/recover churn and silence
    windows, reporting each change as a [Fault] event.  A net without
    rounds never calls it, so churn and silence stay off there. *)
val begin_round : t -> round:int -> unit

(** [suppress_senders t msgs] — [msgs] without those whose sender is
    crashed or silenced this round ([msgs] itself when there is no plan). *)
val suppress_senders : t -> 'msg Types.envelope list -> 'msg Types.envelope list

(** [drop_down_senders t msgs] — [msgs] without those whose sender is
    crashed: a crashed machine cannot transmit even for the adversary. *)
val drop_down_senders : t -> 'msg Types.envelope list -> 'msg Types.envelope list

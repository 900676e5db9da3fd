(** The synchronous network with an adaptive rushing adversary.

    One [exchange] call is one communication round of the model:

    + the protocol hands over the messages its {e good} processors wish to
      send (anything claiming a corrupted source is discarded — the
      adversary speaks for those through its strategy);
    + the adversary, seeing only traffic addressed to processors it
      already controls, may adaptively corrupt more processors (budget
      permitting) — messages just produced by a freshly corrupted
      processor are reclaimed by the adversary (it got there before
      delivery);
    + the adversary then ("rushing") composes the corrupted processors'
      outgoing messages, with no bound on their number (flooding);
    + everything is delivered simultaneously; good processors' sends are
      charged to the meter.

    The network never reorders good processors' messages and never
    forges a good source address.  It {e can} drop or duplicate messages
    — but only under a benign-fault plan installed around the run (see
    {!Tap}); with no plan the channels are perfectly reliable.  Benign
    faults sit {e below} the adversary: crash/recover churn and silence
    windows suppress sends before the adversary sees the round's
    traffic, in-flight omission/duplication applies to adversarial
    messages too, and none of it consumes the corruption budget.  See
    docs/FAULTS.md. *)

type 'msg t

(** [create ~seed ~n ~budget ~msg_bits ~strategy] — a fresh network of
    [n] processors; the adversary may corrupt at most [budget] of them in
    total, and [msg_bits] prices each payload for the meter.  [?label]
    names the protocol phase in the event stream ("tree", "a2e",
    "rabin", ...) and seeds the net's fault stream.

    Monitoring and faults are ambient: the net's {!Tap} picks up the hub
    and fault plan in scope at creation and reports every round, send,
    corruption, fault and decision there.  Neither touches the PRNG
    streams, so monitored and unmonitored runs are bit-identical, and a
    trivial or absent plan is bit-identical to reliable channels. *)
val create :
  ?label:string ->
  seed:int64 ->
  n:int ->
  budget:int ->
  msg_bits:('msg -> int) ->
  strategy:'msg Types.strategy ->
  unit ->
  'msg t

val n : 'msg t -> int
val round : 'msg t -> int
val meter : 'msg t -> Meter.t
val is_corrupt : 'msg t -> Types.proc -> bool
val corrupt_count : 'msg t -> int

(** Good (never corrupted) processors, ascending. *)
val good_procs : 'msg t -> Types.proc list

(** The engine RNG — protocols draw their private coins from per-processor
    streams split off this one, see [proc_rng]. *)
val rng : 'msg t -> Ks_stdx.Prng.t

(** [proc_rng t p] — processor [p]'s private coin stream (deterministic in
    the seed, independent across processors). *)
val proc_rng : 'msg t -> Types.proc -> Ks_stdx.Prng.t

(** [exchange t outgoing] executes one round and returns the inbox of
    every processor (index = destination).  Within an inbox, messages
    from good senders come first in sender order, then the adversary's,
    reflecting its control over intra-round ordering being irrelevant to
    our aggregate-style protocols. *)
val exchange : 'msg t -> 'msg Types.envelope list -> 'msg Types.envelope list array

(** [corrupt_now t procs] lets a harness force corruptions outside the
    strategy (used by failure-injection tests); still bounded by the
    budget and reported through [on_corrupt]. *)
val corrupt_now : 'msg t -> Types.proc list -> unit

(** {1 Monitoring} *)

(** [decide t p v] — record good processor [p]'s final decision in the
    event stream (protocols with an everywhere-agreement contract call
    this once per good processor). *)
val decide : 'msg t -> Types.proc -> int -> unit

(** [quarantine t ~accuser ~offender ~evidence ~info] — record that
    [accuser] holds proof of misbehaviour by [offender] and will ignore
    it from now on.  [evidence] is one of ["out_of_field"],
    ["wrong_length"], ["equivocation"]; [info] carries the offending
    word, length or instance (see docs/ATTACKS.md). *)
val quarantine :
  'msg t -> accuser:Types.proc -> offender:Types.proc -> evidence:string -> info:int -> unit

(** [emit_meter t] — emit a [Meter_proc] snapshot for every processor
    plus a [Run_end]; call at the end of a protocol run.  Re-emission is
    fine: replay readers take the last snapshot per processor. *)
val emit_meter : 'msg t -> unit

(** One runner for every protocol: [protocol × params × seed × inputs ×
    adversary × budget → outcome].  It owns the wiring callers used to
    repeat: the adversary aims at the tree the protocol really builds
    ({!Ks_attacks.protocol_tree}), the amplification strategy closure,
    Rabin's T10 round rule and the baselines' fault caps.  Adversaries
    come from {!Ks_attacks.registry} or share its shape; budgets are the
    caller's, usually {!Ks_attacks.budget_for}. *)

(** An [Async] run's delivery order and its cap on delivery events. *)
type async_net = {
  scheduler : Ks_async.Async_ba.msg Ks_async.Async_net.scheduler;
  max_events : int;
}

(** A protocol, indexed by its full result.  [Ae] is the tournament
    alone; [Async] is MMR'14 with a coin oracle under its [async_net]. *)
type _ protocol =
  | Everywhere : Ks_core.Everywhere.result protocol
  | Ae : Ks_core.Ae_ba.result protocol
  | Rabin : Ks_baselines.Outcome.t protocol
  | Phase_king : Ks_baselines.Outcome.t protocol
  | Ben_or : Ks_baselines.Outcome.t protocol
  | Async : async_net -> Ks_async.Async_ba.outcome protocol

type any = Any : _ protocol -> any

(** CLI names: everywhere, ae, rabin, phase-king, ben-or, async (fair
    scheduler, 8 M delivery events). *)
val protocols : (string * any) list

type 'r outcome = {
  agreed : bool;
      (** every good processor decided one value; for [Ae], the
          a.e. agreement reached {!ae_target} (Theorem 2) *)
  valid : bool;  (** the (majority) value is some good processor's input *)
  value : int option;  (** the decided (for [Ae]: majority) value *)
  rounds : int;
  max_bits : int;  (** max bits sent by a good processor *)
  total_bits : int;  (** bits sent by all good processors *)
  degraded : bool;  (** decode failures or re-request rounds in the tree phase *)
  decode_failures : int;
  retries : int;  (** re-request rounds taken *)
  shortfalls : int;  (** tree-phase quorum shortfalls *)
  quarantined : int;  (** quarantine convictions *)
  detail : 'r;  (** the protocol's own result *)
}

(** 1 − 1/⌈lg n⌉, Theorem 2's a.e. agreement target (T3's column). *)
val ae_target : n:int -> float

(** Presets drive every protocol; attacks only everywhere, ae and Rabin. *)
val supports : Ks_attacks.t -> _ protocol -> bool

(** The corrupted count of an [Async] run: the budget, capped below n/3. *)
val async_faults : n:int -> budget:int -> int

(** [run p ~params ~seed ~inputs ~adversary ~budget] runs [p] once;
    [?retries] and [?quarantine] reach the tree phase ({!Ks_core.Comm}).
    @raise Invalid_argument when not [supports adversary p]. *)
val run :
  ?retries:int ->
  ?quarantine:bool ->
  'r protocol ->
  params:Ks_core.Params.t ->
  seed:int64 ->
  inputs:bool array ->
  adversary:Ks_attacks.t ->
  budget:int ->
  'r outcome

(** Almost-everywhere Byzantine agreement with unreliable global coins —
    Algorithm 5 (§A.2) and Theorems 3/5.

    Participants sit on a sparse (k·log n-regular) graph.  Every round,
    each good participant sends its current vote to its graph neighbours,
    tallies the received votes, and either adopts the majority (when the
    majority fraction clears [(1 − ε₀)(2/3 + ε/2)]) or falls back on the
    round's global coin.  If the coin is common, random and unknown to the
    adversary in enough rounds, all but O(n / log n) good participants
    converge on one good input bit, failing with probability ≈ 2^−r in
    [r] good-coin rounds (Theorem 5).

    This module is the only code that tallies votes and applies the
    rule.  A group {!t} holds [k] vote instances per member on one graph.
    [Ks_core.Ae_ba] keeps one group per election node (an instance per
    bit of each candidate's bin choice) and a single-instance group for
    the root agreement on the protocol inputs; it sends the ballots
    itself and hands inboxes and coins to {!step}.  {!play} is the round
    loop of a single-instance group on its own network, shared by
    {!run_standalone} (T4, the tests) and Rabin's all-to-all baseline
    ([Ks_baselines.Rabin]: the complete graph, an ideal coin). *)

type t

(** [create ~members ~graph ~inputs ~epsilon ?eps0 ()] — [members.(pos)]
    is the global processor at position [pos]; [graph] connects
    positions; [inputs.(pos)] holds the position's initial votes, one per
    instance (every row has the same length [k]).  [eps0] is the slack
    constant ε₀ of the informed-fraction test (default 0.05). *)
val create :
  members:int array ->
  graph:Ks_topology.Graph.t ->
  inputs:bool array array ->
  epsilon:float ->
  ?eps0:float ->
  unit ->
  t

val member_count : t -> int

(** [member t ~pos] — global processor id at a position. *)
val member : t -> pos:int -> int

(** [position_of t proc] — position of a processor, if a member. *)
val position_of : t -> int -> int option

(** [member_votes t ~pos] — the position's current votes, one per
    instance: the live array, which only {!step} may change. *)
val member_votes : t -> pos:int -> bool array

(** [votes t] — snapshot of every position's instance-0 vote (the only
    instance when [k] = 1).  Corrupt positions hold their last honest
    value; the adversary speaks for them on the wire, not here. *)
val votes : t -> bool array

(** [outgoing t] — the messages of one round of a single-instance
    group: every position's instance-0 vote to each graph neighbour,
    positions in order.  The network discards entries of corrupted
    sources. *)
val outgoing : t -> bool Ks_sim.Types.envelope list

(** [step t ~inbox ~ballot ~vote ~coin ~good] — one round for every
    good member ([good] on processor ids).  [inbox pos] lists the
    messages delivered to position [pos]; [ballot pos e] is the group's
    ballot in [e], [None] when [e] is none or the member refuses it (a
    quarantined sender).  At most one ballot per graph neighbour counts:
    non-members, non-neighbours and repeats are discarded (flooding
    defence).  [vote b i] is instance [i]'s vote in [b], if carried.
    After the tally, [coin pos i] is the member's view of instance [i]'s
    coin ([coin pos] is applied once per member), [None] when the coin
    never reached it.  Returns the quorum shortfall: good members of a
    group with [k] > 0 that counted no vote at all. *)
val step :
  t ->
  inbox:(int -> 'm Ks_sim.Types.envelope list) ->
  ballot:(int -> 'm Ks_sim.Types.envelope -> 'b option) ->
  vote:('b -> int -> bool option) ->
  coin:(int -> int -> bool option) ->
  good:(int -> bool) ->
  int

(** [update_vote ~epsilon ~eps0 ~ones ~total ~coin ~current] — the bare
    vote-update rule of Algorithm 5 (steps 3–7) that {!step} applies to
    each instance: adopt the majority of the [total] received votes
    ([ones] of them for 1) when its fraction clears [(1 − eps0)(2/3 +
    epsilon/2)], otherwise follow [coin] (or keep the majority when the
    coin never arrived).  [current] is returned when no votes arrived at
    all. *)
val update_vote :
  epsilon:float ->
  eps0:float ->
  ones:int ->
  total:int ->
  coin:bool option ->
  current:bool ->
  bool

(** Instance 0's outcome over the good members. *)
type verdict = {
  agreement : float;
      (** largest fraction of good members sharing one vote (1 when there
          are none): the "all but C₂n/log n agree" metric of Theorem 5 *)
  majority : bool;  (** the majority good vote, 1 on a tie *)
  valid : bool;  (** [majority] was some good member's input *)
}

(** [verdict t ~good] — instance 0's verdict; [k] must be at least 1. *)
val verdict : t -> good:(int -> bool) -> verdict

(** [play net t ~rounds ~coin] — [rounds] rounds of a single-instance
    group on its own network: each round sends {!outgoing}, exchanges on
    [net], asks [coin ()] for the round's per-position coin view and
    applies {!step}; [net]'s corrupted processors are the bad members. *)
val play :
  bool Ks_sim.Net.t -> t -> rounds:int -> coin:(unit -> int -> bool option) -> unit

(** How the standalone runner models GetGlobalCoin. *)
type coin_source =
  | Ideal  (** every good participant receives the same fresh fair coin *)
  | Unreliable of float
      (** each participant independently misses the common coin with the
          given probability (receives [None]) *)

(** Result of a standalone run. *)
type outcome = {
  final_votes : bool array;
  agreement : float;  (** agreement fraction among good participants *)
  decided : bool;  (** the majority good vote *)
  valid : bool;  (** decided value was some good participant's input *)
  rounds_run : int;
  max_sent_bits : int;  (** over good participants *)
}

(** [run_standalone ~seed ~n ~degree ~rounds ~epsilon ~budget ~inputs
    ~strategy ~coin] builds a fresh network and a random [degree]-regular
    graph and {!play}s the algorithm on it. *)
val run_standalone :
  seed:int64 ->
  n:int ->
  degree:int ->
  rounds:int ->
  epsilon:float ->
  budget:int ->
  inputs:bool array ->
  strategy:bool Ks_sim.Types.strategy ->
  coin:coin_source ->
  outcome

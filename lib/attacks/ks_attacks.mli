(** The adversaries: one shape, {!t}, for the in-model scenario presets
    and the seeded, replayable active-Byzantine attacks alike.

    Each entry bundles the Comm {!Ks_core.Comm.behavior} policy for the
    corrupted processors' regular protocol traffic with three
    {!Ks_sim.Types.strategy} constructors — one per network the
    Everywhere stack creates.  All randomness comes from the adversary
    view's RNG, so runs replay bit-identically from their seed; the
    library being linked changes nothing about unattacked executions.

    One rule picks the corruption count: a preset's [budget_of], an
    attack's {!budget} ({!budget_for} chooses).  Strategies never cap it:
    each spends whatever budget its net reports.

    The presets ([ba_sim --adversary]): [honest], [crash], [byz-static],
    [byz-adaptive], [eclipse], [flood].

    The attacks (docs/ATTACKS.md, [ba_sim --list-attacks]):
    - [equivocate] — rushing equivocation: conflicting in-field values per
      recipient parity, plus duplicate conflicting deals on one channel
      (the provable kind);
    - [bad-share-inside] / [bad-share-outside] — off-polynomial share
      floods targeted just inside / just outside the Berlekamp–Welch
      radius of each leaf decode;
    - [hunt-committee] — adaptive corruption of top election-node members
      and observed responders, driven by the rushing view;
    - [coin-split] — per-recipient-parity conflicting votes against every
      election and agreement instance ({!Ks_core.Aeba_coin} biasing);
    - [wire-junk] — malformed payloads (out-of-field words, wrong lengths,
      absurd identifiers) at every decode path. *)

type t = {
  name : string;  (** registry key; [ba_sim --attack NAME] *)
  doc : string;  (** one-line description ([--list-attacks]) *)
  behavior : Ks_core.Comm.behavior;
      (** what corrupted processors do with their regular tree traffic *)
  tree :
    params:Ks_core.Params.t ->
    tree:Ks_topology.Tree.t ->
    Ks_core.Comm.payload Ks_sim.Types.strategy;
  a2e :
    params:Ks_core.Params.t ->
    carried:int list ->
    coin:(iteration:int -> int -> int option) ->
    Ks_core.Ae_to_e.msg Ks_sim.Types.strategy;
      (** amplification-phase strategy; [carried] are the processors that
          fell during the tournament (already included) *)
  vote : params:Ks_core.Params.t -> bool Ks_sim.Types.strategy;
      (** plain vote nets: Algorithm 5 standalone and the Rabin baseline *)
  preset : preset option;
      (** [Some] for the in-model scenario presets; [None] for attacks,
          which take ⌊fraction·n⌋ corruptions ({!budget}), may cross 1/3,
          flood past the bit and round envelopes, and drive only
          everywhere, ae and Rabin. *)
}

(** A preset's own budget (within (1/3 − ε)·n) and its schedule at any
    message type with silent corrupted processors (Phase King, Ben-Or). *)
and preset = {
  budget_of : params:Ks_core.Params.t -> int;
  generic : 'msg. params:Ks_core.Params.t -> 'msg Ks_sim.Types.strategy;
}

(** The six presets.  [budget_of] is ⌊n/4⌋ within (1/3 − ε)·n, except
    [honest]'s 0 ([honest] corrupts no one and draws nothing from the
    RNG); vote nets get the minority echo.
    - [crash] — a static random set, silent;
    - [byzantine_static] ([byz-static]) — a static random set, [Garbage];
    - [byzantine_adaptive] ([byz-adaptive]) — one fresh corruption per
      round, [Garbage];
    - [eclipse] — whole level-1 nodes on the tree net (static random sets
      elsewhere), [Flip];
    - [flood] — [byz-static] plus poisoned replies and label-guessing
      request floods in amplification. *)

val honest : t
val crash : t
val byzantine_static : t
val byzantine_adaptive : t
val eclipse : t
val flood : t

(** Every adversary [ba_sim] can run ([--adversary] and [--attack] both
    look names up here): the six presets, then the six attacks. *)
val registry : t list

val find : string -> t option

(** [budget ~params ~fraction] — ⌊fraction·n⌋ capped at n − 1 but {e not}
    at the model's (1/3 − ε) allowance: breaking-point sweeps walk past
    1/3 on purpose. *)
val budget : params:Ks_core.Params.t -> fraction:float -> int

(** [budget_for t ~params ~fraction] — the entry's own rule: a preset's
    [budget_of] (ignoring [fraction]), otherwise {!budget}. *)
val budget_for : t -> params:Ks_core.Params.t -> fraction:float -> int

(** Mirror of the protocol's seed plumbing: [ae_seed_of seed] is the
    tournament seed {!Ks_core.Everywhere.run} derives from its own, and
    [protocol_tree ~params ~ae_seed] rebuilds the exact tree
    {!Ks_core.Ae_ba.run} will build from it — public-sampler knowledge
    the model grants the adversary.  Pinned against [Comm.tree] in
    test_attacks. *)
val ae_seed_of : int64 -> int64

val protocol_tree :
  params:Ks_core.Params.t -> ae_seed:int64 -> Ks_topology.Tree.t

(** Exposed for tests: the per-leaf Berlekamp–Welch correction radius and
    the seeded per-leaf target picker the bad-share attacks use. *)
val leaf_radius : params:Ks_core.Params.t -> tree:Ks_topology.Tree.t -> int

val per_leaf_targets :
  Ks_stdx.Prng.t -> Ks_topology.Tree.t -> per_node:int -> budget:int -> int list

(** The public candidate-array length (words) a forged [Deal] must match. *)
val array_len : params:Ks_core.Params.t -> tree:Ks_topology.Tree.t -> int

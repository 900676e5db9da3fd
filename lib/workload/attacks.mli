(** Adversary scenarios: who falls, when, and how the fallen fight.

    A scenario bundles a corruption schedule (an [Ks_sim] strategy
    skeleton reusable at any message type), a tree-phase behavior policy,
    and an amplification-phase strategy builder.  The experiment tables
    sweep over [all]. *)

type corruption_schedule =
  | No_corruption
  | Static of float  (** corrupt a random ⌊f·n⌋ set before round 0 *)
  | Creeping of float
      (** same total fraction, but spread over the run: a constant
          trickle of adaptive corruptions per round *)
  | Eclipse_leaves of float
      (** spend the budget taking over {e whole level-1 nodes} (chosen at
          random), the natural adaptive attack on share custody *)

type t = {
  label : string;
  schedule : corruption_schedule;
  behavior : Ks_core.Comm.behavior;
  a2e_flood : bool;
      (** corrupted processors also fight the amplification phase:
          mis-replies to every request received and label-targeted
          request floods against random responders *)
}

val all : t list
val honest : t
val crash : t
val byzantine_static : t
val byzantine_adaptive : t
val eclipse : t
val flood : t

(** [budget_of t ~params] — corruptions this scenario actually wants (at
    most the model budget ⌊(1/3 − ε)n⌋). *)
val budget_of : t -> params:Ks_core.Params.t -> int

(** [tree_strategy t ~params ~tree] — the corruption schedule instantiated
    for the tree phase. *)
val tree_strategy :
  t ->
  params:Ks_core.Params.t ->
  tree:Ks_topology.Tree.t ->
  Ks_core.Comm.payload Ks_sim.Types.strategy

(** [a2e_strategy t ~params ~coin ~carried] — the amplification-phase
    strategy: carries over [carried] corruptions and, when [a2e_flood],
    floods the round's agreed label (learned through [coin] exactly as a
    real adversary would from its corrupted knowledgeable processors) and
    answers every request with a poisoned value. *)
val a2e_strategy :
  t ->
  params:Ks_core.Params.t ->
  coin:(iteration:int -> int -> int option) ->
  carried:int list ->
  Ks_core.Ae_to_e.msg Ks_sim.Types.strategy

(** [generic_strategy t ~params] — the schedule at an arbitrary message
    type with silent corrupted processors; used by the single-protocol
    experiments (Algorithm 5 standalone, baselines). *)
val generic_strategy : t -> params:Ks_core.Params.t -> 'msg Ks_sim.Types.strategy

(** [vote_flipper ~params schedule] — a strategy for bool-vote protocols
    (Algorithm 5 standalone, Rabin) whose corrupted processors echo the
    {e minority} of what they can see, maximally delaying convergence. *)
val vote_flipper :
  t -> params:Ks_core.Params.t -> bool Ks_sim.Types.strategy

(** [adversary t] — the preset in the registry's one adversary shape,
    built from the four functions above and {!budget_of}. *)
val adversary : t -> Ks_attacks.t

(** Every adversary [ba_sim] can run ([--adversary] and [--attack] both
    look names up here): the six presets of [all], then the six attacks
    of {!Ks_attacks.all}. *)
val registry : Ks_attacks.t list

val find : string -> Ks_attacks.t option

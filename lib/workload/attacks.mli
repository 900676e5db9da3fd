(** The preset surface the whole-run benchmark ([e2ebench/ledger.ml]) and
    the runner's reference wiring ([test/run_oracle.ml]) are written
    against.  There is one adversary shape, {!Ks_attacks.t}: the values
    here are {!Ks_attacks}' presets, and the functions project an entry's
    fields.  A preset's [budget_of] picks the corruption count; strategies
    never cap it.  New code uses {!Ks_attacks} directly. *)

type t = Ks_attacks.t = {
  name : string;
  doc : string;
  behavior : Ks_core.Comm.behavior;
  tree :
    params:Ks_core.Params.t ->
    tree:Ks_topology.Tree.t ->
    Ks_core.Comm.payload Ks_sim.Types.strategy;
  a2e :
    params:Ks_core.Params.t ->
    carried:int list ->
    coin:(iteration:int -> int -> int option) ->
    Ks_core.Ae_to_e.msg Ks_sim.Types.strategy;
  vote : params:Ks_core.Params.t -> bool Ks_sim.Types.strategy;
  preset : Ks_attacks.preset option;
}

val honest : t
val crash : t
val byzantine_static : t
val byzantine_adaptive : t
val eclipse : t
val flood : t

(** The preset's own budget ([Invalid_argument] for an attack). *)
val budget_of : t -> params:Ks_core.Params.t -> int

val tree_strategy :
  t ->
  params:Ks_core.Params.t ->
  tree:Ks_topology.Tree.t ->
  Ks_core.Comm.payload Ks_sim.Types.strategy

val a2e_strategy :
  t ->
  params:Ks_core.Params.t ->
  coin:(iteration:int -> int -> int option) ->
  carried:int list ->
  Ks_core.Ae_to_e.msg Ks_sim.Types.strategy

val vote_flipper : t -> params:Ks_core.Params.t -> bool Ks_sim.Types.strategy

(** The preset's schedule at any message type ([Invalid_argument] for an
    attack). *)
val generic_strategy : t -> params:Ks_core.Params.t -> 'msg Ks_sim.Types.strategy

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

let honest = Ks_attacks.honest
let crash = Ks_attacks.crash
let byzantine_static = Ks_attacks.byzantine_static
let byzantine_adaptive = Ks_attacks.byzantine_adaptive
let eclipse = Ks_attacks.eclipse
let flood = Ks_attacks.flood
let budget_of t = (Option.get t.preset).Ks_attacks.budget_of
let tree_strategy t ~params ~tree = t.tree ~params ~tree
let a2e_strategy t ~params ~coin ~carried = t.a2e ~params ~carried ~coin
let vote_flipper t ~params = t.vote ~params
let generic_strategy t ~params = (Option.get t.preset).Ks_attacks.generic ~params

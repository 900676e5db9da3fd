(* A guided walk through one run of the tournament (Algorithm 2),
   rendering the structures of the paper's Figure 1 from a live run.

     dune exec examples/election_walkthrough.exe

   Left side of Figure 1: the network tree with node memberships and the
   candidates competing at each node.  Right side: the communication
   phases of one election.  We build the same picture from an actual
   n = 32 execution, then print each election's bins, winners, and how
   the share instances fan out level by level. *)

module Tree = Ks_topology.Tree
module Params = Ks_core.Params
module Comm = Ks_core.Comm
module Ae_ba = Ks_core.Ae_ba
module Prng = Ks_stdx.Prng

let n = 32

let show_array a =
  "{" ^ String.concat "," (List.map string_of_int (Array.to_list a)) ^ "}"

let truncate_list max l =
  let l = Array.to_list l in
  if List.length l <= max then show_array (Array.of_list l)
  else
    "{"
    ^ String.concat "," (List.map string_of_int (List.filteri (fun i _ -> i < max) l))
    ^ ",...}"

let () =
  let params = Params.practical n in
  let tree = Tree.build (Prng.create 7L) (Params.tree_config params) in
  Printf.printf "== The network tree (Figure 1, left) ==\n";
  Printf.printf "n=%d processors, arity q=%d, %d levels\n\n" n params.Params.q
    (Tree.levels tree);
  for level = Tree.levels tree downto 1 do
    let count = Tree.node_count tree ~level in
    Printf.printf "level %d: %d node(s) of %d processors each\n" level count
      (Tree.node_size tree ~level);
    let show = Stdlib.min count 3 in
    for node = 0 to show - 1 do
      Printf.printf "  node %d: members %s\n" node
        (truncate_list 8 (Tree.members tree ~level ~node))
    done;
    if count > show then Printf.printf "  ... %d more\n" (count - show)
  done;

  Printf.printf "\n== Share instances (Definition 1, iterated i-shares) ==\n";
  let comm =
    Comm.create ~params ~tree ~seed:9L ~behavior:Comm.Follow
      ~strategy:Ks_sim.Adversary.none ()
  in
  let s = Comm.structure comm in
  for level = 1 to Tree.levels tree do
    Printf.printf
      "level %d: every candidate array exists as %d %d-share instance(s)\n" level
      (Comm.Structure.count s ~level) level
  done;
  Printf.printf
    "(each reshare splits every share among its holder's uplinks and erases\n\
     the original — taking over a whole lower node later reveals nothing)\n";

  Printf.printf "\n== One full tournament run (Figure 1, right) ==\n";
  let adversary = Ks_attacks.byzantine_static in
  let inputs = Array.init n (fun i -> i mod 2 = 0) in
  let run =
    Ks_workload.Run.run Ks_workload.Run.Ae ~params ~seed:11L ~inputs ~adversary
      ~budget:(Ks_attacks.budget_for adversary ~params ~fraction:0.25)
  in
  let r = run.Ks_workload.Run.detail in
  Printf.printf
    "phases per election: expose bin choices (sendDown + sendOpen), agree\n\
     on bin choices (coin exposure + sparse voting, one candidate's block\n\
     per round), then send the winners' shares up.\n\n";
  List.iter
    (fun (e : Ae_ba.election_stats) ->
      Printf.printf
        "election at level %d node %d: candidates %s -> winners %s\n\
        \  good winners %.0f%%, members agreeing on the result %.0f%%\n"
        e.level e.node
        (truncate_list 8 e.candidates)
        (show_array e.winners)
        (100.0 *. e.good_winner_fraction)
        (100.0 *. e.member_agreement))
    r.Ae_ba.elections;
  Printf.printf
    "\nroot: %d surviving arrays feed coins to the final agreement among all\n\
     %d processors; outcome: %.1f%% of good processors vote %b (valid=%b)\n"
    (Array.length r.Ae_ba.root_candidates)
    n
    (100.0 *. r.Ae_ba.agreement)
    r.Ae_ba.majority r.Ae_ba.valid

module Prng = Ks_stdx.Prng
open Ks_sim.Types

type corruption_schedule =
  | No_corruption
  | Static of float
  | Creeping of float
  | Eclipse_leaves of float

type t = {
  label : string;
  schedule : corruption_schedule;
  behavior : Ks_core.Comm.behavior;
  a2e_flood : bool;
}

let honest =
  { label = "honest"; schedule = No_corruption; behavior = Ks_core.Comm.Follow;
    a2e_flood = false }

let crash =
  { label = "crash"; schedule = Static 0.25; behavior = Ks_core.Comm.Silent;
    a2e_flood = false }

let byzantine_static =
  { label = "byz-static"; schedule = Static 0.25; behavior = Ks_core.Comm.Garbage;
    a2e_flood = false }

let byzantine_adaptive =
  { label = "byz-adaptive"; schedule = Creeping 0.25; behavior = Ks_core.Comm.Garbage;
    a2e_flood = false }

let eclipse =
  { label = "eclipse"; schedule = Eclipse_leaves 0.25; behavior = Ks_core.Comm.Flip;
    a2e_flood = false }

let flood =
  { label = "flood"; schedule = Static 0.25; behavior = Ks_core.Comm.Garbage;
    a2e_flood = true }

let all = [ honest; crash; byzantine_static; byzantine_adaptive; eclipse; flood ]

let budget_of t ~params =
  let n = params.Ks_core.Params.n in
  let model = Ks_core.Params.corruption_budget params in
  let want f = Stdlib.min model (int_of_float (f *. float_of_int n)) in
  match t.schedule with
  | No_corruption -> 0
  | Static f | Creeping f | Eclipse_leaves f -> want f

(* Corrupt whole level-1 nodes until the budget runs out: the canonical
   attack on share custody. *)
let eclipse_targets rng tree budget =
  let leaves = Ks_topology.Tree.node_count tree ~level:1 in
  let order = Prng.permutation rng leaves in
  let chosen = ref [] in
  let left = ref budget in
  Array.iter
    (fun leaf ->
      if !left > 0 then begin
        let members = Ks_topology.Tree.members tree ~level:1 ~node:leaf in
        Array.iter
          (fun p ->
            if !left > 0 && not (List.mem p !chosen) then begin
              chosen := p :: !chosen;
              decr left
            end)
          members
      end)
    order;
  !chosen

let schedule_pieces t ~params ~tree =
  let want = budget_of t ~params in
  match t.schedule with
  | No_corruption -> (None, None)
  | Static _ ->
    ( Some (fun rng ~n ~budget ->
          Ks_sim.Adversary.uniform_random_set rng ~n
            ~budget:(Stdlib.min budget want)),
      None )
  | Eclipse_leaves _ ->
    (match tree with
     | Some tree ->
       (Some (fun rng ~n:_ ~budget ->
            eclipse_targets rng tree (Stdlib.min budget want)),
        None)
     | None ->
       (* No tree in this phase: degrade to a static random set. *)
       (Some (fun rng ~n ~budget ->
            Ks_sim.Adversary.uniform_random_set rng ~n
              ~budget:(Stdlib.min budget want)),
        None))
  | Creeping _ ->
    let taken = ref 0 in
    ( None,
      Some (fun view ->
          if !taken >= want || view.view_budget_left <= 0 then []
          else begin
            let rec pick tries =
              if tries = 0 then []
              else begin
                let p = Prng.int view.view_rng view.view_n in
                if view.view_is_corrupt p then pick (tries - 1)
                else begin
                  incr taken;
                  [ p ]
                end
              end
            in
            pick 16
          end) )

let strategy_of_pieces label (initial, adapt) =
  Ks_sim.Adversary.make ~name:label ?initial_corruptions:initial ?adapt ()

let tree_strategy t ~params ~tree =
  strategy_of_pieces t.label (schedule_pieces t ~params ~tree:(Some tree))

let generic_strategy t ~params =
  strategy_of_pieces t.label (schedule_pieces t ~params ~tree:None)

let a2e_strategy t ~params ~coin ~carried =
  let base = strategy_of_pieces t.label (schedule_pieces t ~params ~tree:None) in
  let base = Ks_core.Everywhere.carry_corruptions base ~carried in
  if not t.a2e_flood then base
  else begin
    let n = params.Ks_core.Params.n in
    let poison = 2 in
    let act view =
      let iteration = view.view_round / 2 in
      let respond_phase = view.view_round mod 2 = 1 in
      if respond_phase then begin
        (* Mis-reply to every request a corrupted processor received; the
           adversary legitimately knows this iteration's label through its
           corrupted knowledgeable processors. *)
        let k =
          List.find_map (fun p -> coin ~iteration p) view.view_corrupt
        in
        List.filter_map
          (fun e ->
            match (e.payload, k) with
            | Ks_core.Ae_to_e.Request label, Some k when label = k ->
              Some
                { src = e.dst; dst = e.src;
                  payload = Ks_core.Ae_to_e.Reply { label; value = poison } }
            | _ -> None)
          view.view_visible
      end
      else begin
        (* Request phase: the label is not drawn yet (that is the point of
           Algorithm 3), so each corrupted processor concentrates its full
           per-sender allowance (n - 1 requests, any more is evidently
           corrupt) on one victim with a guessed label — if the guess hits
           the drawn label, the victim is overloaded out of serving. *)
        let guess = Prng.int view.view_rng params.Ks_core.Params.a2e_labels in
        List.concat_map
          (fun p ->
            let victim = Prng.int view.view_rng n in
            List.init (n - 1) (fun _ ->
                { src = p; dst = victim; payload = Ks_core.Ae_to_e.Request guess }))
          view.view_corrupt
      end
    in
    { base with act }
  end

let vote_flipper t ~params =
  let base = generic_strategy t ~params in
  let act view =
    (* Echo the minority of the votes the adversary can see, to everyone:
       non-neighbours are discarded by the receivers, which also exercises
       that defence. *)
    let ones =
      List.fold_left
        (fun acc e -> if e.payload then acc + 1 else acc)
        0 view.view_visible
    in
    let total = List.length view.view_visible in
    let minority = if total = 0 then Prng.bool view.view_rng else 2 * ones < total in
    List.concat_map
      (fun p ->
        List.init view.view_n (fun dst ->
            { src = p; dst; payload = minority }))
      view.view_corrupt
  in
  { base with act }

let adversary t =
  {
    Ks_attacks.name = t.label;
    doc = "scenario preset";
    behavior = t.behavior;
    tree = tree_strategy t;
    a2e = (fun ~params ~carried ~coin -> a2e_strategy t ~params ~coin ~carried);
    vote = vote_flipper t;
    preset =
      Some
        {
          Ks_attacks.budget_of = budget_of t;
          generic = (fun ~params -> generic_strategy t ~params);
        };
  }

let registry = List.map adversary all @ Ks_attacks.all

let find name =
  List.find_opt (fun a -> String.equal a.Ks_attacks.name name) registry

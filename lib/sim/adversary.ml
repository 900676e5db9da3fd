open Types

let uniform_random_set rng ~n ~budget =
  Array.to_list (Ks_stdx.Prng.sample_without_replacement rng ~n ~k:budget)

let make ?(name = "custom") ?initial_corruptions ?adapt ?act ?on_corrupt () =
  {
    name;
    initial_corruptions =
      (match initial_corruptions with
       | Some f -> f
       | None -> fun _rng ~n:_ ~budget:_ -> []);
    adapt = (match adapt with Some f -> f | None -> fun _view -> []);
    act = (match act with Some f -> f | None -> fun _view -> []);
    on_corrupt = (match on_corrupt with Some f -> f | None -> fun _p -> ());
  }

(* [none] and [crash_random] are written as literal records rather than
   via [make] so they generalise (the value restriction would otherwise
   pin their message type). *)
let none =
  {
    name = "none";
    initial_corruptions = (fun _rng ~n:_ ~budget:_ -> []);
    adapt = (fun _view -> []);
    act = (fun _view -> []);
    on_corrupt = (fun _p -> ());
  }

let crash_random =
  {
    none with
    name = "crash-random";
    initial_corruptions = (fun rng ~n ~budget -> uniform_random_set rng ~n ~budget);
  }

let creeping_crash ~per_round =
  make ~name:"creeping-crash"
    ~adapt:(fun view ->
      let want = Stdlib.min per_round view.view_budget_left in
      (* Bounded rejection sampling (16 tries per slot): with fewer
         honest processors left than [want] —
         reachable when a harness hands the adversary a view with
         [view_budget_left] at or above the honest count — unbounded
         retries would never terminate.  Picking fewer than [want] is
         fine; [Net.apply_corruptions] caps against the budget anyway. *)
      let rec pick acc k tries =
        if k = 0 || tries = 0 then acc
        else begin
          let p = Ks_stdx.Prng.int view.view_rng view.view_n in
          if view.view_is_corrupt p || List.mem p acc then pick acc k (tries - 1)
          else pick (p :: acc) (k - 1) (tries - 1)
        end
      in
      if want <= 0 then [] else pick [] want (16 * want))
    ()

(** Common result shape for the baseline agreement protocols, so the
    benchmark tables can compare them uniformly with the paper's
    protocol. *)

type t = {
  decided : bool option array;  (** per-processor decision *)
  agreement : bool;  (** all good processors decided, on one value *)
  validity : bool;  (** the common value was some good input *)
  value : bool option;  (** the common value, when [agreement] *)
  rounds : int;
  max_sent_bits : int;  (** max bits sent by a good processor *)
  total_sent_bits : int;  (** bits sent by all good processors *)
}

let of_decisions ~net ~inputs decided =
  let n = Ks_sim.Net.n net in
  let good p = not (Ks_sim.Net.is_corrupt net p) in
  let values =
    List.filter_map
      (fun p -> if good p then Some decided.(p) else None)
      (List.init n (fun i -> i))
  in
  let agreement =
    match values with
    | [] -> true
    | first :: rest -> first <> None && List.for_all (fun v -> v = first) rest
  in
  let validity =
    agreement
    && (match values with
        | Some v :: _ ->
          let ok = ref false in
          for p = 0 to n - 1 do
            if good p && inputs.(p) = v then ok := true
          done;
          !ok
        | _ -> false)
  in
  let meter = Ks_sim.Net.meter net in
  let goods = Ks_sim.Net.good_procs net in
  List.iter
    (fun p ->
      match decided.(p) with
      | Some v -> Ks_sim.Net.decide net p (if v then 1 else 0)
      | None -> ())
    goods;
  Ks_sim.Net.emit_meter net;
  {
    decided;
    agreement;
    validity;
    value = (match values with first :: _ when agreement -> first | _ -> None);
    rounds = Ks_sim.Meter.rounds meter;
    max_sent_bits = Ks_sim.Meter.max_sent_bits meter ~over:goods;
    total_sent_bits =
      List.fold_left (fun acc p -> acc + Ks_sim.Meter.sent_bits meter p) 0 goods;
  }

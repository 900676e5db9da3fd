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

(** [of_decisions ~net ~inputs decided] — evaluate agreement and validity
    over the good processors of [net] and read the cost counters off its
    meter. *)
val of_decisions :
  net:'msg Ks_sim.Net.t -> inputs:bool array -> bool option array -> t

(** Per-processor communication accounting.

    The paper's headline metric is bits {e sent} per (good) processor;
    we also track received bits, message counts and rounds so the
    experiment tables can report latency and totals. *)

type t

val create : n:int -> t

val charge_send : t -> Types.proc -> bits:int -> unit
val charge_recv : t -> Types.proc -> bits:int -> unit

(** [tick_round m] advances the round counter by one. *)
val tick_round : t -> unit

val rounds : t -> int
val sent_bits : t -> Types.proc -> int
val recv_bits : t -> Types.proc -> int
val sent_msgs : t -> Types.proc -> int

(** [max_sent_bits m ~over] — the maximum bits sent by any processor in
    [over] (e.g. the good processors). *)
val max_sent_bits : t -> over:Types.proc list -> int

val total_sent_bits : t -> int

(** [merge_into dst src] adds [src]'s counters (including rounds) into
    [dst]; used to combine the meters of sequentially composed
    sub-protocols. *)
val merge_into : t -> t -> unit

(** Rabin's randomized Byzantine agreement (FOCS 1983) — the classical
    O(n²)-messages-per-round baseline the paper's tournament replaces
    ([21] in the paper; §1's "quadratic number of messages" quotes).

    Every round each processor broadcasts its vote to {e all} processors
    (n − 1 messages), adopts the supermajority when one exists, and
    otherwise follows a common coin.  Rabin's original coin comes from
    predistributed Shamir-shared values (a trusted dealer); we model it
    as an ideal common-coin oracle, which only {e strengthens} this
    baseline — its measured Θ(n) bits per processor per round is the
    quantity the paper beats.

    Per-processor cost: Θ(n·rounds) bits.  Total: Θ(n²·rounds). *)

(** [t10_rounds ~n] — 2⌈lg n⌉ + 6, the round count every table and the
    CLI run Rabin for (T10's rule): enough for the coin to settle with
    high probability, and the O(log n) latency the crossover assumes. *)
val t10_rounds : n:int -> int

val run :
  seed:int64 ->
  n:int ->
  budget:int ->
  rounds:int ->
  epsilon:float ->
  inputs:bool array ->
  strategy:bool Ks_sim.Types.strategy ->
  Outcome.t

(** Asynchronous binary Byzantine agreement — an exploration of the
    paper's §6 open problem ("Can we adapt our results to the
    asynchronous communication model?").

    The protocol is the signature-free binary agreement of Mostéfaoui,
    Moumen & Raynal (PODC 2014), which needs exactly what the King–Saia
    machinery produces: a {e common coin}.  Per round:

    + {b BV-broadcast}: broadcast [BVAL(r, est)]; on receiving the same
      [BVAL] from [f + 1] distinct senders, relay it; from [2f + 1],
      admit the value into [bin_values(r)] — a value admitted anywhere
      was proposed by a good processor and is eventually admitted
      everywhere;
    + once [bin_values] is non-empty, broadcast [AUX(r, w)] for some
      admitted [w]; collect [AUX] messages whose values are admitted
      from [n − f] distinct senders, giving a candidate set [V];
    + draw the round's common coin [c]: if [V = {v}] then adopt [v] and
      {e decide} it when [v = c]; if [V = {0, 1}], adopt [c].

    Safety holds for [f < n/3] under any scheduler; termination is
    expected-constant rounds thanks to the coin.  The coin itself is the
    oracle here — in a full adaptation it would come from the tournament's
    elected arrays, which is precisely the part the paper leaves open
    (the tree protocol leans on synchrony for its round-by-round coin
    openings).

    The per-processor cost is Θ(n) bits per round — this async variant
    inherits the quadratic total the paper's synchronous protocol
    escapes, which is an honest statement of how open the open problem
    is. *)

type msg = Bval of { r : int; v : bool } | Aux of { r : int; v : bool }

val msg_bits : msg -> int

type outcome = {
  decided : bool option array;  (** per processor *)
  agreement : bool;  (** all good processors decided one value *)
  validity : bool;  (** the value was some good input *)
  value : bool option;  (** the common decision, when [agreement] *)
  events : int;  (** delivery events consumed *)
  max_rounds : int;  (** highest round any good processor reached *)
  max_sent_bits : int;
  total_sent_bits : int;  (** bits sent by all good processors *)
}

(** What corrupted processors do: nothing, or equivocate ([BVAL] for
    both values and random [AUX]es each round they hear about). *)
type byz = Silent | Equivocate

(** [run ~seed ~n ~f ~inputs ~byz ~scheduler ~max_events ()] — [f]
    processors (chosen at random) are corrupted; requires [f < n/3] for
    the guarantees (callers may violate it to watch safety at the
    boundary). *)
val run :
  seed:int64 ->
  n:int ->
  f:int ->
  inputs:bool array ->
  byz:byz ->
  scheduler:msg Async_net.scheduler ->
  max_events:int ->
  unit ->
  outcome

(** (n, t+1) threshold secret sharing (Shamir 1979), the primitive behind
    the paper's [secretShare(s)] (Definition 1).

    A dealer hides a secret as the constant term of a uniformly random
    polynomial of degree [t]; holder [i] receives the evaluation at a
    public non-zero point [x_i].  Any [t+1] shares reconstruct the secret;
    any [t] or fewer reveal nothing (perfect hiding, Lemma 1 of the
    paper).

    The paper sets [t = n/2] ("any t in [n/3, 2n/3] would work"); the
    protocol stack uses [t = (holders - 1) / 2] so that a strict majority
    reconstructs.

    Reconstruction comes in two flavours: [reconstruct] trusts its input
    (use when shares travelled only between good processors), while
    [reconstruct_robust] is a Reed–Solomon decoder (Berlekamp–Welch) that
    tolerates up to [(m - t - 1) / 2] corrupted shares out of [m] — this
    is what lets a good node with a < 1/3 corrupt membership still recover
    a secret during [sendDown].

    The robust decoder is a maximum-likelihood list decoder: candidate
    codewords come from strided windows of [t + 1] shares, each scored by
    how many other shares it explains, plus one Berlekamp–Welch solve at
    the maximum error count (a failure there proves every smaller error
    count fails too).  Windows are scored from one table of inverse
    differences [1 / (x_i - x_j)] per decode, with no per-window
    inversion; only the accepted codeword gets an evaluator.  It accepts
    the uniquely best-supported codeword with at least [t + 2] supporters,
    answers [None] on a tie, and so decodes well past the classical
    radius when corruption is uncoordinated. *)

module Make (F : Ks_field.Field_intf.S) : sig
  type share = { index : int; value : F.t }
  (** [index] is the holder's public evaluation point minus one: holder
      [i] holds the evaluation at [of_int (index + 1)], never at zero. *)

  (** [deal rng ~threshold ~holders secret] produces [holders] shares such
      that any [threshold + 1] reconstruct and any [threshold] reveal
      nothing.  Requires [0 <= threshold < holders < F.order - 1]. *)
  val deal : Ks_stdx.Prng.t -> threshold:int -> holders:int -> F.t -> share array

  (** [reconstruct ~threshold shares] — Lagrange interpolation at zero
      using the first [threshold + 1] distinct shares.  Returns [None] if
      fewer than [threshold + 1] distinct indices are present.  Garbage in,
      garbage out: corrupted shares yield a wrong (but well-defined)
      secret. *)
  val reconstruct : threshold:int -> share list -> F.t option

  (** [reconstruct_robust ~threshold shares] — Berlekamp–Welch decoding.
      With [m] distinct shares of which at most [(m - threshold - 1) / 2]
      are corrupted, returns [Some secret]; returns [None] when no
      polynomial of degree [<= threshold] agrees with enough shares. *)
  val reconstruct_robust : threshold:int -> share list -> F.t option

  (** [deal_at rng ~threshold ~xs secret] — like [deal] but evaluating at
      the points [of_int (xs.(i) + 1)]: used when holders are identified
      by member {e positions} rather than 0..n-1 (the uplink pattern).
      The [xs] must be distinct and non-negative. *)
  val deal_at : Ks_stdx.Prng.t -> threshold:int -> xs:int array -> F.t -> share array

  (** Sharing of a sequence of words: the [i]-th element of the result is
      holder [i]'s vector of shares (one per word, independent dealer
      polynomials).  This is [secretShare(s)] for a sequence [s]. *)
  val deal_vector :
    Ks_stdx.Prng.t -> threshold:int -> holders:int -> F.t array -> share array array

  (** [deal_vector_at rng ~threshold ~xs words] — vector sharing at given
      points; result.(i) is the share vector (one value per word) for the
      holder at [xs.(i)]. *)
  val deal_vector_at :
    Ks_stdx.Prng.t -> threshold:int -> xs:int array -> F.t array -> F.t array array

  (** [reconstruct_vectors ~threshold holders] — decode a whole share
      {e vector} at once, exploiting that corruption is per-{e holder}:
      [holders] is a list of [(x_index, vector)] pairs, all vectors of
      equal length.  The good-holder set is identified once (fast path:
      unanimous consistency on a probe word; slow path: Berlekamp–Welch
      on the probe), then every word is a Lagrange dot-product.  Words on
      which the two verification subsets disagree fall back to per-word
      Berlekamp–Welch.  Returns [None] when no degree-[threshold]
      polynomial explains enough holders — and, as a detection hook for
      graceful degradation, increments [?failures] once per such failed
      decode so callers can retry or report instead of silently losing
      the value. *)
  val reconstruct_vectors :
    ?failures:int ref -> threshold:int -> (int * F.t array) list -> F.t array option

  (** [reconstruct_vector ~threshold per_word] reconstructs each word
      independently; [None] if any word fails. *)
  val reconstruct_vector : threshold:int -> share list array -> F.t array option

  val reconstruct_vector_robust : threshold:int -> share list array -> F.t array option
end

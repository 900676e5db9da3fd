(** Serializable benign-fault plans.

    A plan parameterises the deterministic fault injector
    ({!Injector}) that sits {e underneath} the Byzantine adversary in
    [Ks_sim.Net] and [Ks_async.Async_net]: it describes how unreliable
    the network itself is, independent of (and never charged against)
    the adversary's corruption budget.  See docs/FAULTS.md. *)

type t = {
  seed : int64;  (** seed of the fault stream, independent of the run seed *)
  drop : float;  (** per-delivery omission probability *)
  dup : float;  (** per-delivery duplication probability *)
  crash : float;  (** per-round, per-processor crash probability *)
  recover : float;  (** per-round, per-crashed-processor recovery probability *)
  max_down : int;  (** cap on simultaneously crashed processors; 0 = no cap *)
  silence : float;  (** per-round, per-processor silence-window start probability *)
  silence_len : int;  (** length of a silence window, in rounds *)
}

(** The trivial plan: all fault rates zero, [seed = 1], [recover = 0.25],
    [silence_len = 1].  Running under [none] is bit-identical to running
    with no plan at all. *)
val none : t

(** A plan is trivial when it can never inject a fault ([drop], [dup],
    [crash] and [silence] all zero).  Trivial plans build no injector. *)
val is_trivial : t -> bool

(** Canonical serialization: a comma-separated [key=value] list with all
    eight fields in fixed order.  [of_string (to_string t) = Ok t]. *)
val to_string : t -> string

(** Parse a [key=value] comma-separated plan.  Unknown keys, rates
    outside [0,1] and non-positive [silence_len] are errors; omitted
    keys keep their {!none} defaults; the empty string is {!none}. *)
val of_string : string -> (t, string) result

(** Named plans for the CLI: [(name, plan, one-line description)].
    T16 reads the first three as its faulted rows. *)
val presets : (string * t * string) list

(** Resolve a {!presets} name, falling back to {!of_string}. *)
val of_string_or_preset : string -> (t, string) result

(** [with_plan t f] runs [f] with [t] installed as the ambient plan;
    nets created inside pick it up by default.  Restores the previous
    ambient plan on exit (exceptions included). *)
val with_plan : t -> (unit -> 'a) -> 'a

(** The currently installed ambient plan, if any. *)
val ambient : unit -> t option

(** The hub fans one event stream out to a trace sink and a set of
    monitors, and collects the violations they emit.

    Wiring: there is one attach path.  Every network ([Ks_sim.Net],
    [Ks_async.Async_net]) reads the {e ambient} hub installed by
    {!with_ambient} once, when it is created, through its
    [Ks_sim.Tap], and registers itself via {!register_net}; every
    subsequent exchange feeds events here. *)

type t

(** [create ?trace ?trace_sends monitors] — [trace_sends] (default
    [true]) controls whether per-message [Send] events reach the trace
    sink; monitors always see them.  Set it [false] (or use a ring sink)
    for low-overhead always-on monitoring.  [close_trace] (default
    [true]) makes {!finish} close the sink; pass [false] when several
    hubs share one sink — it is flushed instead, and the owner closes
    it. *)
val create :
  ?trace:Trace.sink -> ?trace_sends:bool -> ?close_trace:bool -> Monitor.t list -> t

(** [emit t ev] — write to the trace and feed every monitor. *)
val emit : t -> Event.t -> unit

(** [register_net t ~label ~n ~budget] — allocate a fresh net id and
    emit its [Run_start]. *)
val register_net : t -> label:string -> n:int -> budget:int -> int

(** [phase t name] — emit a protocol-phase marker. *)
val phase : t -> string -> unit

(** Violations collected so far, oldest first. *)
val violations : t -> Monitor.violation list

(** [finish t] — run every monitor's end-of-run check, close the trace,
    and return all violations.  Idempotent. *)
val finish : t -> Monitor.violation list

(** [render_violations vs] — the violation table ([Ks_stdx.Table]). *)
val render_violations : Monitor.violation list -> string

(** {1 Ambient installation} *)

(** The hub new networks attach to. *)
val ambient : unit -> t option

(** [with_ambient t f] — run [f] with [t] installed as the ambient hub
    (restored afterwards, exception-safe). *)
val with_ambient : t -> (unit -> 'a) -> 'a

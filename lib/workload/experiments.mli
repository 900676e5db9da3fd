(** The reproduction experiments — one function per table of
    EXPERIMENTS.md (T1–T17, DESIGN.md §3).

    Each [tN] function returns its table's rows and prints nothing, so
    tests call them at small sizes.  The net-driving ones are built from
    cells: a protocol ({!Run.protocol}) × params × adversary
    ({!Ks_attacks.t}) × budget × fault plan ({!Ks_faults.Plan.t}) ×
    retries/quarantine × a seed offset, run once per seed through
    {!Run.run} with seed [n·1000003 + seed + offset] and split inputs.
    A column reduces a cell's runs to a [k/N] count or a mean.  The
    table list pairs each [tN] with its name, monitors, title and
    headers at full or quick size; {!run_all} and {!run_table} are the
    only code that prints a table. *)

type row = string list

(** Data point shared by T1/T2/T10 (one full Everywhere run + baselines
    at one n). *)
type scaling_point = {
  n : int;
  ks_ae_bits : float;  (** max bits/processor, tournament phase *)
  ks_a2e_bits : float;  (** max bits/processor, amplification phase *)
  ks_total_bits : float;
  ks_rounds : float;
  rabin_bits : float;
  rabin_rounds : float;
  king_bits : float;
  king_rounds : float;
  ks_success : bool;
}

(** One table cell (see the header). *)
type 'r cell

(** [cell p ~params ~adversary ~budget ~offset]; [?plan] defaults to
    {!Ks_faults.Plan.none}, [?retries] and [?quarantine] to {!Run.run}'s. *)
val cell :
  ?retries:int ->
  ?quarantine:bool ->
  ?plan:Ks_faults.Plan.t ->
  'r Run.protocol ->
  params:Ks_core.Params.t ->
  adversary:Ks_attacks.t ->
  budget:int ->
  offset:int ->
  'r cell

(** [run_cell c seeds] — one {!Run.run} per seed, in order, with the
    cell's plan installed ({!Ks_faults.Plan.with_plan}). *)
val run_cell : 'r cell -> int list -> 'r Run.outcome list

(** [collect_scaling ~ns ~seeds] — runs the full protocol and both
    baselines at each n (T1/T2/T10 share this data). *)
val collect_scaling : ns:int list -> seeds:int list -> scaling_point list

val t1_bits : scaling_point list -> row list
val t2_latency : scaling_point list -> row list
val t10_crossover : scaling_point list -> row list

(** T3: almost-everywhere agreement fraction vs adversary scenario. *)
val t3_ae_agreement : ns:int list -> seeds:int list -> row list

(** T4: Algorithm 5 standalone — failure probability vs good-coin rounds,
    and agreement vs corruption fraction. *)
val t4_aeba_coins : n:int -> trials:int -> row list

(** T5: Feige elections under a rushing bin-stuffing adversary. *)
val t5_election : candidates:int -> trials:int -> row list

(** T6: Algorithm 3 standalone — success probability, Õ(√n) bits,
    overload events; honest and flooding adversaries. *)
val t6_a2e : ns:int list -> seeds:int list -> row list

(** T7: secret-sharing hiding (Lemma 1) — distinguishing advantage with
    t vs t+1 shares, through iterated resharing. *)
val t7_hiding : trials:int -> row list

(** T8: sampler quality (Lemma 2) — measured δ and max degree vs d. *)
val t8_samplers : r:int -> s:int -> row list

(** T9's and T16's adversary in the registry's shape: a static random
    set of Garbage senders that only carries its tournament corruptions
    into amplification (Rabin faces byz-static's vote flipper).  Its
    budget is each table cell's corruption fraction. *)
val static_carry_only : Ks_attacks.t

(** T9: everywhere-BA success rate vs corruption fraction (the 1/3
    threshold). *)
val t9_threshold : n:int -> seeds:int list -> row list

(** T11: ablations of the design choices DESIGN.md calls out (sharing
    threshold policy, amplification fan-out, round budgets). *)
val t11_ablation : n:int -> seeds:int list -> row list

(** T12: universe reduction (§1.2) and the array-vs-processor election
    motivation (§1.3) — committee representativeness before and after a
    post-election hunt, with coin quality measured after the hunt. *)
val t12_universe : n:int -> seeds:int list -> row list

(** T13: the KSSV'06 processor tournament (the paper's non-adaptive
    predecessor) against static vs adaptive adversaries. *)
val t13_kssv : n:int -> seeds:int list -> row list

(** T14: the two parameter profiles side by side (pure formulas). *)
val t14_parameters : unit -> row list

(** T15: the §6 open problem explored — asynchronous binary agreement
    (MMR'14) with a common-coin oracle, under hostile scheduling. *)
val t15_async : ns:int list -> seeds:int list -> row list

(** T16: breaking points under benign faults (docs/FAULTS.md) crossed
    with Byzantine corruption past 1/3 — agreement and degradation rate,
    retry rounds taken, residual decode failures, bit overhead relative
    to the fault-free cell, and the Rabin baseline under the same plan. *)
val t16_faults : n:int -> seeds:int list -> row list

(** T17: survival under the active-attack library (docs/ATTACKS.md) —
    every {!Ks_attacks} strategy crossed with corruption fraction (past
    1/3 on purpose) and with the provable-misbehaviour quarantine armed
    and disarmed, with agreement rate, bits, rounds, quarantine
    convictions, and the Rabin baseline under the same attack's votes. *)
val t17_attacks : n:int -> seeds:int list -> row list

(** The always-on accounting monitors every experiment runs under:
    corruption-budget, Õ(√n) bit budget and polylog round bound (the
    latter two scoped to the King–Saia phase networks — the O(n²)
    baselines exist to violate them). *)
val standard_monitors : unit -> Ks_monitor.Monitor.t list

(** The table names, in the order {!run_all} runs them ("t1" .. "t17"). *)
val table_names : string list

(** [run_all ~quick ()] — every table, in order, each net-driving table
    under its invariant monitors ({!standard_monitors}, or only the
    corruption budget for the deliberately faulted T16 and attacked
    T17); a violation prints the violation table and raises [Failure].
    [?trace] streams all of them into one JSONL sink (closed on
    return). *)
val run_all : ?quick:bool -> ?trace:Ks_monitor.Trace.sink -> unit -> unit

(** [run_table name] — the full-size entry [name] of {!run_all}, alone,
    under the same monitors (T1, T2 and T10 collect their own scaling
    runs).  Raises [Invalid_argument] on a name not in {!table_names}. *)
val run_table : ?trace:Ks_monitor.Trace.sink -> string -> unit

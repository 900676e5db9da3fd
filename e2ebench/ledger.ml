(* Whole-run agreement benchmark (see NOTES.md).

   One workload per process, one agreement instance at a time (a closed
   loop on a single domain).  With [--trace 0] it prints the end-to-end
   metrics of untraced instances; with [--trace 1] it prints the
   per-layer ledger of one traced instance plus direct layer probes.

   The clock lives here, never in lib/ (lint rule R5): layers are timed
   by wrapping calls into their public functions and by a passive
   monitor on the ambient hub that timestamps the phase and round
   events the networks already emit.

   The last line of stdout is one JSON object:
   {"correct": _, "attempted": _, "failed": _, "metrics": {...}}.
   Everything else goes to stderr. *)

module Prng = Ks_stdx.Prng
module Intmath = Ks_stdx.Intmath
module Params = Ks_core.Params
module Comm = Ks_core.Comm
module Ae_ba = Ks_core.Ae_ba
module Everywhere = Ks_core.Everywhere
module Attacks = Ks_workload.Attacks
module Inputs = Ks_workload.Inputs
module Hub = Ks_monitor.Hub
module Monitor = Ks_monitor.Monitor
module Event = Ks_monitor.Event
module Net = Ks_sim.Net

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let k = Array.length a in
  if k = 0 then Float.nan
  else if k mod 2 = 1 then a.(k / 2)
  else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.0

let mib words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.0

(* A fixed pure-arithmetic loop, in ns per iteration: printed next to
   every measurement so host-speed drift shows. *)
let calib_ns () =
  let iters = 20_000_000 in
  let t0 = now () in
  let acc = ref 1 in
  for i = 1 to iters do
    acc := ((!acc * 1103515245) + i) land 0x3fffffff
  done;
  ignore (Sys.opaque_identity !acc);
  (now () -. t0) *. 1e9 /. float_of_int iters

(* --- Instances and their checked outcome --- *)

type outcome = {
  ok : bool;  (** every per-instance correctness check held *)
  max_bits : int;  (** most bits sent by a never-corrupted processor *)
  total_bits : int;  (** bits sent by all never-corrupted processors *)
  rounds : int;  (** synchronous rounds to decision *)
  counters : (string * float) list;  (** exact result counters *)
}

let counter_names =
  [
    "comm.decode_failures"; "comm.retries_used"; "comm.quarantine_events";
    "ae_ba.quorum_shortfalls"; "ae_ba.agreement"; "ae_ba.elections";
    "a2e.iterations_run"; "a2e.overloaded_events";
  ]

let zero_counters = List.map (fun k -> (k, 0.0)) counter_names

let failed_outcome =
  { ok = false; max_bits = 0; total_bits = 0; rounds = 0; counters = zero_counters }

(* The same derivation as the experiment tables' [seed_of]. *)
let instance_seed ~n ~seed =
  Int64.add (Int64.mul 1000003L (Int64.of_int n)) (Int64.of_int seed)

(* Set-up (params, inputs, the protocol's tree, scenario strategies)
   happens when this is applied; the returned closure is one instance. *)
let everywhere_instance ~scenario ~n ~seed =
  let params = Params.practical n in
  let seed64 = instance_seed ~n ~seed in
  let inputs = Inputs.generate (Prng.create seed64) ~n Inputs.Split in
  let tree =
    Ks_attacks.protocol_tree ~params ~ae_seed:(Ks_attacks.ae_seed_of seed64)
  in
  let budget = Attacks.budget_of scenario ~params in
  let tree_strategy = Attacks.tree_strategy scenario ~params ~tree in
  let bit_bound = Monitor.default_bit_bound ~n () in
  let round_bound = Monitor.default_round_bound ~n () in
  fun () ->
    let r =
      Everywhere.run ~params ~seed:seed64 ~inputs
        ~behavior:scenario.Attacks.behavior ~tree_strategy
        ~a2e_strategy:(fun ~carried ~coin ->
          Attacks.a2e_strategy scenario ~params ~coin ~carried)
        ~budget ()
    in
    let ae = r.Everywhere.ae in
    let comm = ae.Ae_ba.comm in
    let rounds = r.Everywhere.ae_rounds + r.Everywhere.a2e_rounds in
    let max_bits = r.Everywhere.max_sent_bits_total in
    {
      ok =
        r.Everywhere.success && r.Everywhere.safe && ae.Ae_ba.valid
        && float_of_int max_bits <= bit_bound
        && float_of_int rounds <= round_bound;
      max_bits;
      total_bits = r.Everywhere.total_sent_bits;
      rounds;
      counters =
        (let fi = float_of_int in
         List.combine counter_names
           [
             fi (Comm.decode_failures comm); fi (Comm.retries_used comm);
             fi (Comm.quarantine_events comm); fi ae.Ae_ba.quorum_shortfalls;
             ae.Ae_ba.agreement; fi (List.length ae.Ae_ba.elections);
             fi r.Everywhere.a2e.Ks_core.Ae_to_e.iterations_run;
             fi r.Everywhere.a2e.Ks_core.Ae_to_e.overloaded_events;
           ]);
    }

(* Rabin at T10's settings: 25% vote-flipping static corruption and
   2⌈lg n⌉ + 6 rounds. *)
let rabin_instance ~n ~seed =
  let params = Params.practical n in
  let scenario = Attacks.byzantine_static in
  let seed64 = instance_seed ~n ~seed in
  let inputs = Inputs.generate (Prng.create seed64) ~n Inputs.Split in
  let budget = Attacks.budget_of scenario ~params in
  let rounds = (2 * Intmath.ceil_log2 n) + 6 in
  let strategy = Attacks.vote_flipper scenario ~params in
  fun () ->
    let o =
      Ks_baselines.Rabin.run ~seed:seed64 ~n ~budget ~rounds
        ~epsilon:params.Params.epsilon ~inputs ~strategy
    in
    {
      ok = o.Ks_baselines.Outcome.agreement && o.Ks_baselines.Outcome.validity;
      max_bits = o.Ks_baselines.Outcome.max_sent_bits;
      total_bits = o.Ks_baselines.Outcome.total_sent_bits;
      rounds = o.Ks_baselines.Outcome.rounds;
      counters = zero_counters;
    }

type workload = { name : string; prepare : seed:int -> unit -> outcome }

(* Sizes keep one instance at a few seconds on a 2-core host, so a run
   of --seconds holds several instances (NOTES.md, "Sizing"). *)
let workloads =
  [
    { name = "everywhere-honest";
      prepare = everywhere_instance ~scenario:Attacks.honest ~n:128 };
    { name = "everywhere-flood";
      prepare = everywhere_instance ~scenario:Attacks.flood ~n:64 };
    { name = "rabin-allpairs"; prepare = rabin_instance ~n:512 };
  ]

(* --- Measuring one call --- *)

type sample = { wall : float; alloc_words : float; outcome : outcome }

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* An exception inside an instance is a failed instance, never a crash
   of the benchmark. *)
let measure instance =
  let w0 = alloc_words () in
  let t0 = now () in
  let outcome =
    match instance () with
    | o -> o
    | exception e ->
      Printf.eprintf "instance raised %s\n%!" (Printexc.to_string e);
      failed_outcome
  in
  let wall = now () -. t0 in
  { wall; alloc_words = alloc_words () -. w0; outcome }

(* Time and allocation of one call to [f]. *)
let probe f =
  Gc.compact ();
  let w0 = alloc_words () in
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  (r, dt, alloc_words () -. w0)

(* Per-op time (ns) and minor words of a cheap kernel: batches sized to
   take at least a millisecond, repeated for [budget] seconds, median. *)
let per_op ?(budget = 0.2) f =
  let run b =
    for _ = 1 to b do
      f ()
    done
  in
  let rec size b =
    let t0 = now () in
    run b;
    if now () -. t0 >= 1e-3 || b >= 1 lsl 24 then b else size (2 * b)
  in
  let b = size 1 in
  let stop = now () +. budget in
  let rec go ns ws k =
    if k >= 5 && now () >= stop then (median ns, median ws)
    else begin
      let w0 = Gc.minor_words () in
      let t0 = now () in
      run b;
      let dt = now () -. t0 in
      let dw = Gc.minor_words () -. w0 in
      let fb = float_of_int b in
      go ((dt *. 1e9 /. fb) :: ns) ((dw /. fb) :: ws) (k + 1)
    end
  in
  go [] [] 0

(* --- The traced-run monitor: per-net time split and traffic --- *)

module Ledger = struct
  type net = {
    label : string;
    mutable rounds : int;
    mutable exchange_s : float;
    mutable compute_s : float;
    mutable msgs : int;
    mutable bits : int;
    mutable adv_msgs : int;
    mutable adv_bits : int;
    mutable round_t0 : float;
    meter : (int, int) Hashtbl.t;  (** proc -> last Meter_proc sent_bits *)
  }

  type t = {
    nets : (int, net) Hashtbl.t;
    corrupted : (int, unit) Hashtbl.t;  (** procs corrupted on any net *)
    phases : (string, float) Hashtbl.t;
    mutable phase : (string * float) option;
    mutable after_round : (net * float) option;
        (** the net whose round ended last, and when *)
    mutable coin_open_rounds : int;
    mutable coin_open_s : float;
  }

  let create () =
    {
      nets = Hashtbl.create 4; corrupted = Hashtbl.create 64;
      phases = Hashtbl.create 4; phase = None; after_round = None;
      coin_open_rounds = 0; coin_open_s = 0.0;
    }

  (* Tree-net rounds during amplification are the lazy §3.5 coin opens. *)
  let coin_open t (net : net) =
    match t.phase with Some ("amplify", _) -> net.label = "tree" | _ -> false

  (* Protocol self time: from a net's Round_end to the next Round_start
     on any net, or to the next phase boundary. *)
  let settle t at =
    match t.after_round with
    | None -> ()
    | Some (net, t0) ->
      let dt = at -. t0 in
      net.compute_s <- net.compute_s +. dt;
      if coin_open t net then t.coin_open_s <- t.coin_open_s +. dt;
      t.after_round <- None

  let end_phase t at =
    settle t at;
    match t.phase with
    | None -> ()
    | Some (name, t0) ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt t.phases name) in
      Hashtbl.replace t.phases name (prev +. (at -. t0));
      t.phase <- None

  let on_event t ev =
    match ev with
    | Event.Send _ -> ()
    | Event.Run_start { net; label; _ } ->
      Hashtbl.replace t.nets net
        { label; rounds = 0; exchange_s = 0.0; compute_s = 0.0; msgs = 0;
          bits = 0; adv_msgs = 0; adv_bits = 0; round_t0 = 0.0;
          meter = Hashtbl.create 64 }
    | Event.Round_start { net; _ } ->
      let at = now () in
      settle t at;
      (Hashtbl.find t.nets net).round_t0 <- at
    | Event.Round_end { net; msgs; bits; adv_msgs; adv_bits; _ } ->
      let at = now () in
      let s = Hashtbl.find t.nets net in
      let dt = at -. s.round_t0 in
      s.rounds <- s.rounds + 1;
      s.exchange_s <- s.exchange_s +. dt;
      s.msgs <- s.msgs + msgs;
      s.bits <- s.bits + bits;
      s.adv_msgs <- s.adv_msgs + adv_msgs;
      s.adv_bits <- s.adv_bits + adv_bits;
      if coin_open t s then begin
        t.coin_open_rounds <- t.coin_open_rounds + 1;
        t.coin_open_s <- t.coin_open_s +. dt
      end;
      t.after_round <- Some (s, at)
    | Event.Phase { name } ->
      let at = now () in
      end_phase t at;
      t.phase <- Some (name, at)
    | Event.Corrupt { proc; _ } -> Hashtbl.replace t.corrupted proc ()
    | Event.Meter_proc { net; proc; sent_bits; _ } ->
      Hashtbl.replace (Hashtbl.find t.nets net).meter proc sent_bits
    | Event.Decide _ | Event.Run_end _ | Event.Fault _ | Event.Quarantine _
    | Event.Violation _ ->
      ()

  let monitor t =
    Monitor.make ~name:"e2ebench-ledger" ~on_event:(fun ~emit:_ ev -> on_event t ev) ()

  let by_label t label =
    Hashtbl.fold (fun _ s acc -> if s.label = label then s :: acc else acc) t.nets []

  (* Trace aggregates against the meters: per net, the Round_end totals
     equal the last Meter_proc snapshot summed over processors; across
     nets, the never-corrupted processors' snapshots give the outcome's
     meter-derived max and total bits. *)
  let reconcile t (o : outcome) =
    let problems = ref [] in
    let per_proc = Hashtbl.create 64 in
    Hashtbl.iter
      (fun id s ->
        let metered = Hashtbl.fold (fun _ b acc -> acc + b) s.meter 0 in
        if metered <> s.bits + s.adv_bits then
          problems :=
            Printf.sprintf "net %d (%s): Round_end bits %d <> meter %d" id s.label
              (s.bits + s.adv_bits) metered
            :: !problems;
        Hashtbl.iter
          (fun p b ->
            if not (Hashtbl.mem t.corrupted p) then
              Hashtbl.replace per_proc p
                (b + Option.value ~default:0 (Hashtbl.find_opt per_proc p)))
          s.meter)
      t.nets;
    let total = Hashtbl.fold (fun _ b acc -> acc + b) per_proc 0 in
    let mx = Hashtbl.fold (fun _ b acc -> Stdlib.max acc b) per_proc 0 in
    if total <> o.total_bits then
      problems :=
        Printf.sprintf "trace total bits %d <> outcome %d" total o.total_bits
        :: !problems;
    if mx <> o.max_bits then
      problems :=
        Printf.sprintf "trace max bits/proc %d <> outcome %d" mx o.max_bits :: !problems;
    List.rev !problems

  let metrics t =
    let net_metrics label =
      let ss = by_label t label in
      let sumi f = List.fold_left (fun acc s -> acc + f s) 0 ss in
      let sumf f = List.fold_left (fun acc s -> acc +. f s) 0.0 ss in
      let msgs = sumi (fun s -> s.msgs) and adv = sumi (fun s -> s.adv_msgs) in
      [
        (label ^ ".rounds", float_of_int (sumi (fun s -> s.rounds)), "rounds");
        (label ^ ".exchange_s", sumf (fun s -> s.exchange_s), "s");
        (label ^ ".compute_s", sumf (fun s -> s.compute_s), "s");
        (label ^ ".msgs", float_of_int msgs, "count");
        (label ^ ".bits", float_of_int (sumi (fun s -> s.bits)), "bits");
        (label ^ ".adv_msgs", float_of_int adv, "count");
        ( label ^ ".adv_share",
          (if msgs + adv = 0 then 0.0 else float_of_int adv /. float_of_int (msgs + adv)),
          "ratio" );
      ]
    in
    let phase name = Option.value ~default:0.0 (Hashtbl.find_opt t.phases name) in
    List.concat_map net_metrics [ "tree"; "a2e"; "rabin" ]
    @ [
        ("everywhere.tournament_s", phase "tournament", "s");
        ("everywhere.amplify_s", phase "amplify", "s");
        ("everywhere.coin_open_rounds", float_of_int t.coin_open_rounds, "rounds");
        ("everywhere.coin_open_s", t.coin_open_s, "s");
      ]
end

(* --- Direct layer probes --- *)

(* One call of each Comm primitive on a Comm the bench builds: deal the
   protocol-sized arrays, push the 1-shares up, then open one word of
   each candidate of the first level-2 node (one election's bin
   exposure). *)
let comm_probes ~variant ~n ~scenario =
  let params = Params.practical n in
  let tree = Ks_topology.Tree.build (Prng.create 31L) (Params.tree_config params) in
  let budget = Attacks.budget_of scenario ~params in
  let comm =
    Comm.create ~params ~tree ~seed:11L ~behavior:scenario.Attacks.behavior
      ~strategy:(Attacks.generic_strategy scenario ~params) ~budget ()
  in
  let layout = Ae_ba.Layout.make params tree in
  let rng = Prng.create 12L in
  let arrays =
    Array.init n (fun _ ->
        Array.init layout.Ae_ba.Layout.total (fun _ -> Ks_field.Zp.random rng))
  in
  let cands = List.init n (fun c -> c) in
  let (), deal_s, deal_w = probe (fun () -> Comm.deal_all comm ~arrays) in
  let (), up_s, up_w = probe (fun () -> Comm.reshare_up comm ~cands ~drop:[]) in
  let ranges =
    List.map
      (fun c -> (c, layout.Ae_ba.Layout.block_off.(2), 1))
      (Ks_topology.Tree.children tree ~level:2 ~node:0)
  in
  let _view, open_s, open_w =
    probe (fun () -> Comm.open_ranges_view comm ~level:2 ~ranges)
  in
  List.concat_map
    (fun (name, s, w) ->
      [
        (Printf.sprintf "comm.%s_s.%s" name variant, s, "s");
        (Printf.sprintf "comm.%s_words.%s" name variant, w, "words");
      ])
    [ ("deal_all", deal_s, deal_w); ("reshare_up", up_s, up_w);
      ("open_ranges_view", open_s, open_w) ]

(* One all-to-all round of 1-bit payloads with no adversary and no hub:
   Net.exchange's own cost per message, median of three rounds. *)
let net_probe () =
  let n = 1024 in
  let net =
    Net.create ~seed:5L ~n ~budget:0 ~msg_bits:(fun (_ : bool) -> 1)
      ~strategy:Ks_sim.Adversary.none ()
  in
  let outgoing =
    List.concat
      (List.init n (fun src ->
           List.filter_map
             (fun dst ->
               if dst = src then None
               else Some { Ks_sim.Types.src; dst; payload = src land 1 = 0 })
             (List.init n (fun d -> d))))
  in
  let msgs = float_of_int (List.length outgoing) in
  let rounds =
    List.init 3 (fun _ ->
        let _, s, w = probe (fun () -> Net.exchange net outgoing) in
        (s *. 1e9 /. msgs, w /. msgs))
  in
  [
    ("net.exchange_ns_per_msg", median (List.map fst rounds), "ns/msg");
    ("net.exchange_words_per_msg", median (List.map snd rounds), "words/msg");
  ]

let kernel_probes () =
  List.concat_map
    (fun (name, f) ->
      let name = String.map (fun c -> if c = '/' then '.' else c) name in
      let ns, words = per_op f in
      [ (name ^ ".ns_per_op", ns, "ns/op"); (name ^ ".words_per_op", words, "words/op") ])
    (Kernels.all ())

(* --- Runs --- *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
}

let same_counts a b =
  a.max_bits = b.max_bits && a.total_bits = b.total_bits && a.rounds = b.rounds
  && List.for_all2
       (fun (k, x) (k', y) -> String.equal k k' && Float.equal x y)
       a.counters b.counters

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* A run of --seed covers [subseeds] distinct instances, seeds
   [subseeds·seed + j].  Per-seed work differs (on everywhere-flood the
   wall time ranges over ±15% across seeds), so a run reports the mean
   of its instances, which narrows that spread by about √subseeds. *)
let subseeds = 3

let sub_seed ~seed j = (subseeds * seed) + j

(* Set-up of the run's instances, repeated so its time is a median, not
   one cold sample. *)
let timed_setup wl ~seed =
  let rec go acc k =
    let t0 = now () in
    let instances = Array.init subseeds (fun j -> wl.prepare ~seed:(sub_seed ~seed j)) in
    let acc = (now () -. t0) :: acc in
    if k >= 4 && (k >= 200 || List.fold_left ( +. ) 0.0 acc >= 0.2) then
      (instances, median acc)
    else go acc (k + 1)
  in
  go [] 0

(* Instances cycle through the sub-seeds: one full pass, then more while
   --seconds allows.  Per sub-seed a time is the median over its repeats;
   a metric is the mean over sub-seeds.  A repeat does the same seeded
   work, so its counts must equal its sub-seed's first: a difference is
   a failed instance. *)
let run_untraced wl ~seed ~seconds =
  let instances, setup_s = timed_setup wl ~seed in
  let start = now () in
  let rec loop acc i =
    Gc.compact ();
    let s = measure instances.(i mod subseeds) in
    let acc = (i mod subseeds, s) :: acc in
    let typical = median (List.map (fun (_, s) -> s.wall) acc) in
    if i + 1 >= subseeds && now () -. start +. typical > seconds then List.rev acc
    else loop acc (i + 1)
  in
  let samples = loop [] 0 in
  let runs_of j =
    List.filter_map (fun (j', s) -> if j = j' then Some s else None) samples
  in
  let per_sub f = mean (List.init subseeds (fun j -> f (runs_of j))) in
  let first j = (List.hd (runs_of j)).outcome in
  let failed =
    List.length
      (List.filter
         (fun (j, s) -> not (s.outcome.ok && same_counts s.outcome (first j)))
         samples)
  in
  let heap = (Gc.quick_stat ()).Gc.top_heap_words in
  Printf.eprintf "%s: %d instances, walls %s s\n%!" wl.name (List.length samples)
    (String.concat " "
       (List.map (fun (j, s) -> Printf.sprintf "%d:%.3f" j s.wall) samples));
  let count f = per_sub (fun ss -> float_of_int (f (List.hd ss).outcome)) in
  {
    correct = failed = 0;
    attempted = List.length samples;
    failed;
    metrics =
      [
        ("wall_s", per_sub (fun ss -> median (List.map (fun s -> s.wall) ss)), "s");
        ("setup_s", setup_s, "s");
        ("peak_heap_mb", mib heap, "MiB");
        ( "alloc_mwords",
          per_sub (fun ss -> median (List.map (fun s -> s.alloc_words /. 1e6) ss)),
          "Mwords" );
        ("max_bits_per_proc", count (fun o -> o.max_bits), "bits");
        ("total_bits", count (fun o -> o.total_bits), "bits");
        ("rounds", count (fun o -> o.rounds), "rounds");
      ];
  }

(* The run's first instance twice: untraced (the reference for counts,
   GC and overhead), then traced under the ledger monitor.  Then the
   probes. *)
let run_traced wl ~seed =
  let calib0 = calib_ns () in
  let instance = wl.prepare ~seed:(sub_seed ~seed 0) in
  Gc.compact ();
  let gc0 = Gc.quick_stat () in
  let plain = measure instance in
  let gc1 = Gc.quick_stat () in
  Gc.compact ();
  let ledger = Ledger.create () in
  let hub = Hub.create [ Ledger.monitor ledger ] in
  let traced = Hub.with_ambient hub (fun () -> measure instance) in
  Ledger.end_phase ledger (now ());
  let violations = Hub.finish hub in
  let problems =
    (if same_counts plain.outcome traced.outcome then []
     else [ "traced and untraced counts differ" ])
    @ Ledger.reconcile ledger traced.outcome
    @ List.map (fun v -> "violation: " ^ v.Monitor.detail) violations
  in
  List.iter (Printf.eprintf "%s: %s\n%!" wl.name) problems;
  let probes =
    kernel_probes ()
    @ comm_probes ~variant:"honest" ~n:256 ~scenario:Attacks.honest
    @ comm_probes ~variant:"garbage" ~n:64 ~scenario:Attacks.byzantine_static
    @ net_probe ()
  in
  let calib1 = calib_ns () in
  Printf.eprintf "%s: calib %.4f / %.4f ns, walls %.3f untraced / %.3f traced s\n%!"
    wl.name calib0 calib1 plain.wall traced.wall;
  let failed =
    List.length (List.filter (fun s -> not s.outcome.ok) [ plain; traced ])
  in
  let gc_diff f = float_of_int (f gc1 - f gc0) in
  {
    correct = failed = 0 && problems = [];
    attempted = 2;
    failed;
    metrics =
      Ledger.metrics ledger
      @ List.map
          (fun (k, v) -> (k, v, if k = "ae_ba.agreement" then "ratio" else "count"))
          traced.outcome.counters
      @ [
          ("gc.minor_collections", gc_diff (fun g -> g.Gc.minor_collections), "count");
          ("gc.major_collections", gc_diff (fun g -> g.Gc.major_collections), "count");
          ( "gc.promoted_mwords",
            (gc1.Gc.promoted_words -. gc0.Gc.promoted_words) /. 1e6,
            "Mwords" );
          ("trace.overhead_s", traced.wall -. plain.wall, "s");
        ]
      @ probes
      @ [ ("host.calib_ns", (calib0 +. calib1) /. 2.0, "ns") ];
  }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let print_result r =
  let metrics =
    List.map
      (fun (k, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" k (json_number v) unit)
      r.metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.correct r.attempted r.failed (String.concat ", " metrics)

let usage () =
  prerr_endline
    "usage: ledger.exe --workload NAME --seed N --seconds S --trace 0|1";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map (fun w -> w.name) workloads));
  exit 2

let () =
  let rec parse acc = function
    | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
      parse ((String.sub flag 2 (String.length flag - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  let arg k = match List.assoc_opt k args with Some v -> v | None -> usage () in
  let int_arg k = match int_of_string_opt (arg k) with Some v -> v | None -> usage () in
  let known = [ "workload"; "seed"; "seconds"; "trace" ] in
  if List.exists (fun (k, _) -> not (List.mem k known)) args
  then usage ();
  let wl =
    match List.find_opt (fun w -> w.name = arg "workload") workloads with
    | Some w -> w
    | None -> usage ()
  in
  let seed = int_arg "seed" in
  let seconds = float_of_int (int_arg "seconds") in
  let result =
    match int_arg "trace" with
    | 0 ->
      let calib0 = calib_ns () in
      let r = run_untraced wl ~seed ~seconds in
      Printf.eprintf "%s: calib %.4f / %.4f ns\n%!" wl.name calib0 (calib_ns ());
      r
    | 1 -> run_traced wl ~seed
    | _ -> usage ()
  in
  print_result result

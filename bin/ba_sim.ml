(* ba_sim — command-line driver for the King–Saia reproduction.

   Run one protocol at a chosen size, adversary and seed, and print the
   outcome and communication costs.  Every adversary comes from one
   registry ([Ks_attacks.registry]): the six scenario presets and the six
   strategies of the attack library.  [--adversary] and [--attack] both
   name a registry entry ([--attack] wins when both are given); presets
   pick their own corruption count, attacks take [--corrupt].  Each
   protocol runs through [Ks_workload.Run]:

     ba_sim run --protocol everywhere -n 128 --adversary byz-static --seed 7
     ba_sim run --protocol ae -n 64 --attack equivocate --corrupt 0.2
     ba_sim run --protocol rabin -n 256 --adversary crash
     ba_sim inspect -n 1024            # show parameters, tree and layout
*)

module Params = Ks_core.Params
module Run = Ks_workload.Run
module Inputs = Ks_workload.Inputs
module Prng = Ks_stdx.Prng
open Cmdliner

let inputs_of_name rng ~n = function
  | "split" -> Ok (Inputs.generate rng ~n Inputs.Split)
  | "random" -> Ok (Inputs.generate rng ~n Inputs.Random)
  | "zeros" -> Ok (Inputs.generate rng ~n Inputs.All_zero)
  | "ones" -> Ok (Inputs.generate rng ~n Inputs.All_one)
  | other -> Error (Printf.sprintf "unknown inputs %S (split|random|zeros|ones)" other)

(* Documented exit codes (docs/FAULTS.md, pinned by test/test_cli.ml):
   0 = agreed cleanly, 3 = degraded but agreed (decode failures detected
   and/or re-request rounds spent), 4 = failed (no agreement, or an
   invariant violation).  Usage errors keep cmdliner's 124. *)
let exit_agreed = 0
let exit_degraded = 3
let exit_failed = 4

let print_counters (o : _ Run.outcome) =
  Printf.printf "decode_failures=%d retries_used=%d shortfalls=%d quarantined=%d\n"
    o.decode_failures o.retries o.shortfalls o.quarantined

(* One reporter per protocol family; each returns why the run failed,
   if it did. *)
let report_everywhere ~label ~budget ~n (o : Ks_core.Everywhere.result Run.outcome) =
  let r = o.detail in
  Printf.printf "everywhere BA: n=%d adversary=%s budget=%d\n" n label budget;
  Printf.printf "  success=%b safe=%b value=%s\n" o.agreed r.safe
    (match o.value with Some v -> string_of_int v | None -> "-");
  Printf.printf "  a.e. agreement=%.1f%% (tournament), rounds ae=%d a2e=%d\n"
    (100.0 *. r.ae.agreement) r.ae_rounds r.a2e_rounds;
  Printf.printf "  max bits/proc: tournament=%d amplify=%d total=%d\n"
    r.max_sent_bits_ae r.max_sent_bits_a2e o.max_bits;
  Printf.printf "  degraded=%b " o.degraded;
  print_counters o;
  if o.agreed then None else Some "no everywhere agreement"

(* Theorem 2's bar: the tournament fails when its majority value is no
   good input or fewer than 1 - 1/lg n of the good processors hold it. *)
let report_ae ~n (o : Ks_core.Ae_ba.result Run.outcome) =
  Printf.printf "almost-everywhere BA: agreement=%.1f%% majority=%b valid=%b\n"
    (100.0 *. o.detail.agreement) o.detail.majority o.valid;
  List.iter
    (fun (e : Ks_core.Ae_ba.election_stats) ->
      Printf.printf "  election l%d/n%d: %d cands -> %d winners (good %.0f%%)\n"
        e.level e.node (Array.length e.candidates) (Array.length e.winners)
        (100.0 *. e.good_winner_fraction))
    o.detail.elections;
  Printf.printf "  ";
  print_counters o;
  if o.agreed && o.valid then None
  else
    Some
      (Printf.sprintf "no almost-everywhere agreement (target %.1f%%, valid value)"
         (100.0 *. Run.ae_target ~n))

let report_baseline (o : _ Run.outcome) =
  Printf.printf "baseline: agreement=%b validity=%b rounds=%d max bits/proc=%d\n"
    o.agreed o.valid o.rounds o.max_bits;
  if o.agreed then None else Some "disagreement"

let report_async ~n ~budget (o : Ks_async.Async_ba.outcome Run.outcome) =
  Printf.printf
    "async BA (MMR'14, coin oracle): n=%d f=%d\n\
    \  agreement=%b validity=%b rounds=%d deliveries=%d max bits/proc=%d\n"
    n (Run.async_faults ~n ~budget) o.agreed o.valid o.rounds o.detail.events
    o.max_bits;
  if o.agreed then None else Some "disagreement"

(* One dispatch for every protocol: run through the shared runner, print
   the family's report, and turn it into the exit code. *)
let run_protocol (type r) (p : r Run.protocol) ~retries ~quarantine ~params
    ~adversary ~budget ~seed ~inputs =
  let n = params.Params.n in
  let o = Run.run ~retries ~quarantine p ~params ~seed ~inputs ~adversary ~budget in
  let failure =
    match p with
    | Run.Everywhere ->
      let name = adversary.Ks_attacks.name in
      let label = if Option.is_some adversary.preset then name else "attack:" ^ name in
      report_everywhere ~label ~budget ~n o
    | Run.Ae -> report_ae ~n o
    | Run.Async _ -> report_async ~n ~budget o
    | Run.Rabin | Run.Phase_king | Run.Ben_or -> report_baseline o
  in
  match failure with
  | Some why ->
    Printf.printf "  FAILED: %s\n" why;
    `Ok exit_failed
  | None -> `Ok (if o.degraded then exit_degraded else exit_agreed)

let setup_logging verbose =
  if verbose then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Debug)
  end

(* Every run executes under the invariant monitors: the accounting set of
   [Experiments.standard_monitors] plus agreement/validity over the actual
   decisions.  [--trace FILE] additionally streams the JSONL event trace. *)
let monitored ~envelopes ~trace_file ~inputs f =
  match
    try Ok (Option.map Ks_monitor.Trace.file trace_file)
    with Sys_error e -> Error (`Error (false, Printf.sprintf "--trace: %s" e))
  with
  | Error e -> e
  | Ok trace ->
  (* Attacks flood crafted traffic and may corrupt past 1/3 on purpose,
     so the bit/round envelopes apply only to the in-model presets; the
     budget, agreement and validity invariants always do. *)
  let monitors =
    (if envelopes then Ks_workload.Experiments.standard_monitors ()
     else [ Ks_monitor.Monitor.corruption_budget () ])
    @ [
        Ks_monitor.Monitor.agreement ();
        Ks_monitor.Monitor.validity ~inputs:(Array.map Bool.to_int inputs);
      ]
  in
  let hub = Ks_monitor.Hub.create ?trace monitors in
  let result = Ks_monitor.Hub.with_ambient hub f in
  match Ks_monitor.Hub.finish hub with
  | [] -> result
  | vs ->
    prerr_string (Ks_monitor.Hub.render_violations vs);
    Printf.eprintf "FAILED: %d invariant violation(s)\n" (List.length vs);
    `Ok exit_failed

let run_cmd verbose protocol n adversary attack fraction no_quarantine seed inputs
    trace_file faults retries_opt =
  setup_logging verbose;
  let ( let* ) r f = match r with Ok x -> f x | Error e -> `Error (false, e) in
  let names show xs = String.concat ", " (List.map show xs) in
  let name = Option.value attack ~default:adversary in
  let* adversary =
    Option.to_result (Ks_attacks.find name)
      ~none:
        (Printf.sprintf "unknown adversary %S (one of: %s; see --list-attacks)" name
           (names (fun a -> a.Ks_attacks.name) Ks_attacks.registry))
  in
  let* (Run.Any p) =
    Option.to_result
      (List.assoc_opt protocol Run.protocols)
      ~none:
        (Printf.sprintf "unknown protocol %S (one of: %s)" protocol
           (names fst Run.protocols))
  in
  let* () =
    if not (Run.supports adversary p) then
      Error (Printf.sprintf "%s supports everywhere, ae and rabin (got %S)" name protocol)
    else if Option.is_none adversary.preset && (fraction < 0. || fraction > 1.) then
      Error (Printf.sprintf "--corrupt %g is not a fraction in [0,1]" fraction)
    else Ok ()
  in
  let* plan =
    match faults with
    | None -> Ok None
    | Some s -> Result.map Option.some (Ks_faults.Plan.of_string_or_preset s)
  in
  let params = Params.practical n in
  let rng = Prng.create (Int64.of_int seed) in
  let* inputs = inputs_of_name rng ~n inputs in
  let seed = Int64.of_int seed in
  let quarantine = not no_quarantine in
  (* Bounded retry defaults on exactly when faults are injected: plain
     runs stay bit-identical to the pre-fault-layer code. *)
  let retries =
    match retries_opt with
    | Some r -> Stdlib.max 0 r
    | None -> ( match plan with Some _ -> 2 | None -> 0)
  in
  let budget = Ks_attacks.budget_for adversary ~params ~fraction in
  let go () =
    monitored ~envelopes:(Option.is_some adversary.preset) ~trace_file ~inputs
      (fun () ->
        run_protocol p ~retries ~quarantine ~params ~adversary ~budget ~seed ~inputs)
  in
  match plan with Some p -> Ks_faults.Plan.with_plan p go | None -> go ()

let inspect_cmd n theoretical =
  let params = if theoretical then Params.theoretical n else Params.practical n in
  Format.printf "parameters: %a@." Params.pp params;
  if not theoretical then begin
    let tree = Ks_topology.Tree.build (Prng.create 1L) (Params.tree_config params) in
    Printf.printf "tree: %d levels\n" (Ks_topology.Tree.levels tree);
    for level = 1 to Ks_topology.Tree.levels tree do
      Printf.printf "  level %d: %d nodes x %d members\n" level
        (Ks_topology.Tree.node_count tree ~level)
        (Ks_topology.Tree.node_size tree ~level)
    done;
    let layout = Ks_core.Ae_ba.Layout.make params tree in
    Printf.printf "candidate array: %d words " layout.Ks_core.Ae_ba.Layout.total;
    Printf.printf "(election blocks + root coin + amplification coin)\n";
    Printf.printf "corruption budget: %d (%.1f%% of n)\n"
      (Params.corruption_budget params)
      (100.0 *. float_of_int (Params.corruption_budget params) /. float_of_int n)
  end;
  `Ok 0

let n_arg =
  Arg.(value & opt int 64 & info [ "n" ] ~docv:"N" ~doc:"Number of processors.")

let protocol_arg =
  Arg.(
    value
    & opt string "everywhere"
    & info [ "p"; "protocol" ] ~docv:"PROTO"
        ~doc:"Protocol: everywhere, ae, rabin, phase-king, ben-or or async.")

let adversary_arg =
  Arg.(
    value
    & opt string "byz-static"
    & info [ "a"; "adversary" ] ~docv:"ADV"
        ~doc:
          "Adversary from the registry: a scenario preset (honest, crash, \
           byz-static, byz-adaptive, eclipse, flood) or any attack of \
           $(b,ba_sim --list-attacks).  Presets choose their own corruption \
           count and drive every protocol.")

let attack_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "attack" ] ~docv:"NAME"
        ~doc:
          "Alias of $(b,--adversary) that wins over it when both are given; \
           names the same registry.  Attacks (docs/ATTACKS.md, $(b,ba_sim \
           --list-attacks)) corrupt the $(b,--corrupt) fraction and drive \
           everywhere, ae and rabin.")

let corrupt_arg =
  Arg.(
    value
    & opt float 0.25
    & info [ "corrupt" ] ~docv:"FRAC"
        ~doc:
          "Corrupted fraction of processors for attack-library adversaries \
           (presets ignore it).  May deliberately exceed 1/3; capped at n-1 \
           processors.")

let no_quarantine_arg =
  Arg.(
    value
    & flag
    & info [ "no-quarantine" ]
        ~doc:
          "Disarm the tree phase's provable-misbehaviour quarantine layer \
           (armed by default; see docs/ATTACKS.md).")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")

let inputs_arg =
  Arg.(
    value
    & opt string "split"
    & info [ "inputs" ] ~doc:"Input assignment: split, random, zeros or ones.")

let theoretical_arg =
  Arg.(value & flag & info [ "theoretical" ] ~doc:"Show the paper-faithful profile.")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log protocol phases to stderr.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write the structured JSONL event trace (rounds, sends, corruptions, \
           decisions, meters) to $(docv).")

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"PLAN"
        ~doc:
          "Benign-fault plan: a preset name (see $(b,ba_sim --list-faults)) or \
           a comma-separated key=value list (see docs/FAULTS.md): drop, dup, \
           crash, recover, silence, silence_len, max_down, seed.  Example: \
           drop=0.1,dup=0.02,crash=0.01,recover=0.3.  Faults never consume \
           the adversary's corruption budget.")

let retries_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Re-request rounds allowed per failed robust decode in the tree phase \
           (graceful degradation).  Defaults to 2 when $(b,--faults) is given, 0 \
           otherwise.")

let run_term =
  Term.(
    ret
      (const run_cmd $ verbose_arg $ protocol_arg $ n_arg $ adversary_arg
     $ attack_arg $ corrupt_arg $ no_quarantine_arg $ seed_arg $ inputs_arg
     $ trace_arg $ faults_arg $ retries_arg))

let inspect_term = Term.(ret (const inspect_cmd $ n_arg $ theoretical_arg))

let cmds =
  [
    Cmd.v
      (Cmd.info "run"
         ~doc:
           "Run a protocol once and print the outcome.  Exit codes: 0 = agreed, \
            3 = degraded but agreed, 4 = failed (no agreement or invariant \
            violation), 124 = usage error.")
      run_term;
    Cmd.v
      (Cmd.info "inspect" ~doc:"Print the derived parameters, tree shape and layout.")
      inspect_term;
  ]

(* Top-level catalog listings ([ba_sim --list-attacks] / [--list-faults]);
   with neither flag the default term falls back to the group help, so
   plain [ba_sim] stays informative. *)
let list_cmd list_attacks list_faults =
  if list_attacks then begin
    List.iter
      (fun a ->
        if Option.is_none a.Ks_attacks.preset then
          Printf.printf "%-18s %s\n" a.Ks_attacks.name a.Ks_attacks.doc)
      Ks_attacks.registry;
    `Ok 0
  end
  else if list_faults then begin
    List.iter
      (fun (name, plan, doc) ->
        Printf.printf "%-8s %s\n%8s   (%s)\n" name doc ""
          (Ks_faults.Plan.to_string plan))
      Ks_faults.Plan.presets;
    `Ok 0
  end
  else `Help (`Auto, None)

let list_attacks_arg =
  Arg.(
    value
    & flag
    & info [ "list-attacks" ]
        ~doc:"List the attack library's strategies (for $(b,run --attack)) and exit.")

let list_faults_arg =
  Arg.(
    value
    & flag
    & info [ "list-faults" ]
        ~doc:"List the named benign-fault presets (for $(b,run --faults)) and exit.")

let default_term = Term.(ret (const list_cmd $ list_attacks_arg $ list_faults_arg))

let () =
  let info =
    Cmd.info "ba_sim" ~version:"1.0.0"
      ~doc:"Scalable Byzantine agreement (King-Saia PODC'10) simulator"
  in
  (* [eval_value] instead of [eval]: the run commands' return value is the
     process exit code (0/3/4, documented above), while usage and internal
     errors keep cmdliner's distinct 124/125. *)
  match Cmd.eval_value (Cmd.group ~default:default_term info cmds) with
  | Ok (`Ok code) -> exit code
  | Ok (`Version | `Help) -> exit 0
  | Error (`Parse | `Term) -> exit Cmd.Exit.cli_error
  | Error `Exn -> exit Cmd.Exit.internal_error

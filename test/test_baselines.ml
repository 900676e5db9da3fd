module Rabin = Ks_baselines.Rabin
module Pk = Ks_baselines.Phase_king
module Bo = Ks_baselines.Ben_or
module Outcome = Ks_baselines.Outcome

let inputs_split n = Array.init n (fun i -> i mod 2 = 0)
let inputs_const n v = Array.make n v

let test_rabin_honest () =
  let n = 48 in
  let o =
    Rabin.run ~seed:1L ~n ~budget:0 ~rounds:12 ~epsilon:0.1 ~inputs:(inputs_split n)
      ~strategy:Ks_sim.Adversary.none
  in
  Alcotest.(check bool) "agreement" true o.Outcome.agreement;
  Alcotest.(check bool) "validity" true o.Outcome.validity;
  Alcotest.(check int) "rounds" 12 o.Outcome.rounds

let test_rabin_validity () =
  let n = 48 in
  let o =
    Rabin.run ~seed:1L ~n ~budget:0 ~rounds:12 ~epsilon:0.1
      ~inputs:(inputs_const n true) ~strategy:Ks_sim.Adversary.none
  in
  Alcotest.(check bool) "agreement" true o.Outcome.agreement;
  (match o.Outcome.decided.(0) with
   | Some v -> Alcotest.(check bool) "keeps unanimous input" true v
   | None -> Alcotest.fail "undecided")

let test_rabin_under_crash () =
  let n = 48 in
  let o =
    Rabin.run ~seed:2L ~n ~budget:12 ~rounds:14 ~epsilon:0.1 ~inputs:(inputs_split n)
      ~strategy:Ks_sim.Adversary.crash_random
  in
  Alcotest.(check bool) "agreement" true o.Outcome.agreement;
  Alcotest.(check bool) "validity" true o.Outcome.validity

let test_rabin_bits_linear () =
  let n = 48 in
  let o =
    Rabin.run ~seed:1L ~n ~budget:0 ~rounds:10 ~epsilon:0.1 ~inputs:(inputs_split n)
      ~strategy:Ks_sim.Adversary.none
  in
  (* All-to-all: (n-1) one-bit messages per round. *)
  Alcotest.(check int) "bits = (n-1)*rounds" ((n - 1) * 10) o.Outcome.max_sent_bits

let test_phase_king_honest () =
  let n = 40 in
  let o =
    Pk.run ~seed:1L ~n ~budget:0 ~faults:8 ~inputs:(inputs_split n)
      ~strategy:Ks_sim.Adversary.none
  in
  Alcotest.(check bool) "agreement" true o.Outcome.agreement;
  Alcotest.(check bool) "validity" true o.Outcome.validity

let test_phase_king_crash_quarter_minus () =
  let n = 40 in
  (* Phase King tolerates f < n/4: use 8 < 10. *)
  let o =
    Pk.run ~seed:3L ~n ~budget:8 ~faults:8 ~inputs:(inputs_split n)
      ~strategy:Ks_sim.Adversary.crash_random
  in
  Alcotest.(check bool) "agreement" true o.Outcome.agreement;
  Alcotest.(check bool) "validity" true o.Outcome.validity

let test_phase_king_unanimity_strong () =
  let n = 40 in
  let o =
    Pk.run ~seed:4L ~n ~budget:8 ~faults:8 ~inputs:(inputs_const n false)
      ~strategy:Ks_sim.Adversary.crash_random
  in
  Alcotest.(check bool) "agreement" true o.Outcome.agreement;
  (match o.Outcome.decided.(1) with
   | Some v -> Alcotest.(check bool) "unanimous zero kept" false v
   | None -> Alcotest.fail "undecided")

let test_ben_or_honest () =
  let n = 40 in
  let o =
    Bo.run ~seed:1L ~n ~budget:0 ~max_phases:30 ~inputs:(inputs_split n)
      ~strategy:Ks_sim.Adversary.none
  in
  Alcotest.(check bool) "agreement" true o.Outcome.agreement;
  Alcotest.(check bool) "validity" true o.Outcome.validity

let test_ben_or_crash_small () =
  let n = 50 in
  (* f < n/5; a biased start converges fast — an even split would take
     expected-exponential phases, which is exactly why the paper needs
     common coins. *)
  let inputs = Array.init n (fun i -> i < 40) in
  let o =
    Bo.run ~seed:2L ~n ~budget:8 ~max_phases:40 ~inputs
      ~strategy:Ks_sim.Adversary.crash_random
  in
  Alcotest.(check bool) "agreement" true o.Outcome.agreement;
  Alcotest.(check bool) "validity" true o.Outcome.validity

let test_ben_or_unanimity_one_phase () =
  let n = 40 in
  let o =
    Bo.run ~seed:1L ~n ~budget:0 ~max_phases:3 ~inputs:(inputs_const n true)
      ~strategy:Ks_sim.Adversary.none
  in
  Alcotest.(check bool) "fast unanimous decision" true o.Outcome.agreement;
  (match o.Outcome.decided.(0) with
   | Some v -> Alcotest.(check bool) "keeps input" true v
   | None -> Alcotest.fail "undecided")

let test_kssv_static_vs_adaptive () =
  let params = Ks_core.Params.practical 128 in
  let budget = Ks_core.Params.corruption_budget params in
  let static =
    Ks_baselines.Kssv_tournament.run ~seed:9L ~params ~adaptive:false ~budget
  in
  let adaptive =
    Ks_baselines.Kssv_tournament.run ~seed:9L ~params ~adaptive:true ~budget
  in
  Alcotest.(check bool) "committees formed" true
    (Array.length static.Ks_baselines.Kssv_tournament.committee > 0
     && Array.length adaptive.Ks_baselines.Kssv_tournament.committee > 0);
  Alcotest.(check bool) "static committee representative" true
    (static.Ks_baselines.Kssv_tournament.good_fraction >= 0.5);
  (* The whole point: the adaptive adversary owns the announced winners. *)
  Alcotest.(check (float 1e-9)) "adaptive committee owned" 0.0
    adaptive.Ks_baselines.Kssv_tournament.good_fraction

let test_outcome_detects_disagreement () =
  let net =
    Ks_sim.Net.create ~seed:1L ~n:4 ~budget:0 ~msg_bits:(fun (_ : unit) -> 1)
      ~strategy:Ks_sim.Adversary.none ()
  in
  let o =
    Outcome.of_decisions ~net ~inputs:[| true; true; false; false |]
      [| Some true; Some true; Some false; Some true |]
  in
  Alcotest.(check bool) "disagreement detected" false o.Outcome.agreement;
  let o2 =
    Outcome.of_decisions ~net ~inputs:[| true; true; false; false |]
      [| Some true; Some true; Some true; Some true |]
  in
  Alcotest.(check bool) "agreement detected" true o2.Outcome.agreement;
  Alcotest.(check bool) "validity detected" true o2.Outcome.validity

(* [Rabin.run] against its pre-refactor body ([Run_oracle.rabin_run]):
   the same outcome, decisions and meter readings, at two sizes, three
   seeds, honest and under three vote-flipping attacks. *)
let outcome =
  Alcotest.testable
    (fun ppf (o : Outcome.t) ->
      Format.fprintf ppf "{agreement=%b; validity=%b; rounds=%d; max=%d; total=%d; decided=%s}"
        o.agreement o.validity o.rounds o.max_sent_bits o.total_sent_bits
        (String.concat ""
           (Array.to_list
              (Array.map
                 (function Some true -> "1" | Some false -> "0" | None -> "-")
                 o.decided))))
    ( = )

let test_rabin_oracle () =
  List.iter
    (fun n ->
      let params = Ks_core.Params.practical n in
      let adversaries =
        ("none", Ks_sim.Adversary.none, 0)
        :: List.map
             (fun name ->
               let atk = Option.get (Ks_attacks.find name) in
               ( name,
                 atk.Ks_attacks.vote ~params,
                 Ks_attacks.budget_for atk ~params ~fraction:0.25 ))
             [ "byz-static"; "coin-split"; "equivocate" ]
      in
      List.iter
        (fun (name, strategy, budget) ->
          List.iter
            (fun seed ->
              let run f =
                f ~seed ~n ~budget ~rounds:(Rabin.t10_rounds ~n)
                  ~epsilon:params.Ks_core.Params.epsilon ~inputs:(inputs_split n)
                  ~strategy
              in
              Alcotest.check outcome
                (Printf.sprintf "n=%d %s seed %Ld" n name seed)
                (run Run_oracle.rabin_run) (run Rabin.run))
            [ 1L; 2L; 3L ])
        adversaries)
    [ 16; 64 ]

let () =
  Alcotest.run "baselines"
    [
      ( "rabin",
        [
          Alcotest.test_case "honest" `Quick test_rabin_honest;
          Alcotest.test_case "validity" `Quick test_rabin_validity;
          Alcotest.test_case "crash" `Quick test_rabin_under_crash;
          Alcotest.test_case "bits linear in n" `Quick test_rabin_bits_linear;
          Alcotest.test_case "pre-refactor oracle" `Quick test_rabin_oracle;
        ] );
      ( "phase-king",
        [
          Alcotest.test_case "honest" `Quick test_phase_king_honest;
          Alcotest.test_case "crash under n/4" `Quick test_phase_king_crash_quarter_minus;
          Alcotest.test_case "unanimity" `Quick test_phase_king_unanimity_strong;
        ] );
      ( "ben-or",
        [
          Alcotest.test_case "honest" `Quick test_ben_or_honest;
          Alcotest.test_case "crash" `Quick test_ben_or_crash_small;
          Alcotest.test_case "unanimous fast" `Quick test_ben_or_unanimity_one_phase;
        ] );
      ( "kssv",
        [ Alcotest.test_case "static vs adaptive" `Quick test_kssv_static_vs_adaptive ] );
      ( "outcome",
        [ Alcotest.test_case "agreement detection" `Quick test_outcome_detects_disagreement ] );
    ]

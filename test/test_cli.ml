(* CLI contract tests: the executables must reject unknown flags with a
   usage message and a distinct exit code, never a raw exception.  Runs
   the real binaries (declared as deps in test/dune); the test cwd is
   _build/default/test. *)

(* Resolve the binaries relative to this test executable so the paths
   hold both under `dune runtest` (cwd _build/default/test) and under
   `dune exec` from the project root. *)
let build_root = Filename.concat (Filename.dirname Sys.executable_name) ".."
let ba_sim = Filename.concat build_root "bin/ba_sim.exe"
let bench = Filename.concat build_root "bench/main.exe"
let ks_lint = Filename.concat build_root "bin/ks_lint.exe"

let run ?(stdin_null = true) cmd_line =
  let out = Filename.temp_file "ks_cli" ".out" in
  let err = Filename.temp_file "ks_cli" ".err" in
  let redirect_in = if stdin_null then " < /dev/null" else "" in
  let code = Sys.command (cmd_line ^ redirect_in ^ " > " ^ out ^ " 2> " ^ err) in
  let read f =
    let ic = open_in_bin f in
    Fun.protect
      ~finally:(fun () ->
        close_in_noerr ic;
        Sys.remove f)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  (code, read out, read err)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let check_usage name (code, out, err) ~expect_code =
  Alcotest.(check int) (name ^ ": exit code") expect_code code;
  let text = out ^ err in
  Alcotest.(check bool)
    (name ^ ": prints usage, not a backtrace") true
    ((contains text "usage" || contains text "Usage") && not (contains text "Fatal error"))

let test_ba_sim_unknown_flag () =
  check_usage "ba_sim unknown option" (run (ba_sim ^ " run --definitely-not-a-flag"))
    ~expect_code:124;
  check_usage "ba_sim unknown command" (run (ba_sim ^ " frobnicate")) ~expect_code:124

let test_ba_sim_help () =
  let code, out, _ = run (ba_sim ^ " --help=plain") in
  Alcotest.(check int) "ba_sim --help exits 0" 0 code;
  Alcotest.(check bool) "help mentions the run command" true (contains out "run")

(* The run command's documented exit codes (docs/FAULTS.md): 0 = agreed
   cleanly, 3 = degraded but agreed, 4 = failed; bad command lines stay
   at cmdliner's 124.  Each pin is a deterministic seeded run. *)
let test_ba_sim_exit_codes () =
  let code, out, _ =
    run (ba_sim ^ " run --protocol ae -n 32 --adversary honest --seed 7")
  in
  Alcotest.(check int) "clean honest run exits 0" 0 code;
  Alcotest.(check bool) "reports no degradation" true
    (contains out "decode_failures=0");
  let code, out, _ =
    run
      (ba_sim
      ^ " run --protocol ae -n 32 --adversary honest --seed 7 --faults drop=0.05")
  in
  Alcotest.(check int) "benign drops degrade to exit 3" 3 code;
  Alcotest.(check bool) "agreement still reported" true
    (contains out "agreement=100.0%");
  let code, out, _ =
    run
      (ba_sim
      ^ " run --protocol phase-king -n 32 --adversary honest --seed 7 --faults \
         drop=0.8")
  in
  Alcotest.(check int) "heavy drops break phase-king: exit 4" 4 code;
  Alcotest.(check bool) "failure is explicit" true (contains out "FAILED");
  let code, _, err =
    run (ba_sim ^ " run --protocol rabin -n 16 --faults nonsense=1")
  in
  Alcotest.(check int) "malformed fault plan exits 124" 124 code;
  Alcotest.(check bool) "names the bad key" true (contains err "nonsense")

(* The discovery flags are part of the scripting surface (CI's attack
   matrix iterates over them), so the names they print are pinned. *)
let test_ba_sim_list_attacks () =
  let code, out, _ = run (ba_sim ^ " --list-attacks") in
  Alcotest.(check int) "--list-attacks exits 0" 0 code;
  List.iter
    (fun name ->
      Alcotest.(check bool) ("lists " ^ name) true (contains out name))
    [
      "equivocate"; "bad-share-inside"; "bad-share-outside"; "hunt-committee";
      "coin-split"; "wire-junk";
    ]

let test_ba_sim_list_faults () =
  let code, out, _ = run (ba_sim ^ " --list-faults") in
  Alcotest.(check int) "--list-faults exits 0" 0 code;
  List.iter
    (fun name ->
      Alcotest.(check bool) ("lists preset " ^ name) true (contains out name))
    [ "lossy"; "choppy"; "churn"; "flaky" ];
  Alcotest.(check bool) "shows the spec each preset expands to" true
    (contains out "drop=0.02")

let test_ba_sim_attack_flag () =
  let code, out, _ =
    run
      (ba_sim
      ^ " run --protocol everywhere -n 16 --attack wire-junk --corrupt 0.25 \
         --seed 3")
  in
  Alcotest.(check int) "attacked run below threshold: degraded but agreed" 3 code;
  Alcotest.(check bool) "labels the adversary" true
    (contains out "adversary=attack:wire-junk");
  Alcotest.(check bool) "reports quarantine convictions" true
    (contains out "quarantined=31");
  let code, _, err =
    run (ba_sim ^ " run --protocol everywhere -n 16 --attack nope --seed 3")
  in
  Alcotest.(check int) "unknown attack exits 124" 124 code;
  Alcotest.(check bool) "names the unknown attack" true (contains err "nope");
  let code, _, _ =
    run
      (ba_sim
      ^ " run --protocol everywhere -n 16 --attack wire-junk --corrupt 1.5 \
         --seed 3")
  in
  Alcotest.(check int) "corruption fraction outside [0,1] exits 124" 124 code;
  (* A preset name must behave exactly like its documented expansion. *)
  let preset =
    run (ba_sim ^ " run --protocol ae -n 32 --adversary honest --seed 7 --faults choppy")
  in
  let manual =
    run
      (ba_sim
      ^ " run --protocol ae -n 32 --adversary honest --seed 7 --faults \
         seed=22,drop=0.05,dup=0.02")
  in
  let pc, po, _ = preset and mc, mo, _ = manual in
  Alcotest.(check int) "preset exit = manual-spec exit" mc pc;
  Alcotest.(check string) "preset output = manual-spec output" mo po

(* The ae verdict is Theorem 2's: this run reaches full a.e. agreement on
   a valid value (its majority value happens to be 0), with decode
   failures — degraded, not failed.  [--adversary] and [--attack] name
   the same registry entry. *)
let test_ba_sim_ae_verdict () =
  let cmd flag =
    ba_sim ^ " run -p ae -n 16 " ^ flag ^ " equivocate --corrupt 0.2 --seed 1"
  in
  let code, out, _ = run (cmd "--attack") in
  Alcotest.(check int) "full agreement, majority=false: exit 3" 3 code;
  Alcotest.(check bool) "prints the run" true
    (contains out "agreement=100.0% majority=false valid=true");
  Alcotest.(check bool) "prints the elections" true (contains out "election l");
  Alcotest.(check bool) "no failure" false (contains out "FAILED");
  let code', out', _ = run (cmd "--adversary") in
  Alcotest.(check int) "--adversary NAME: same exit" code code';
  Alcotest.(check string) "--adversary NAME: same output" out out'

let test_bench_unknown_flag () =
  check_usage "bench unknown option" (run (bench ^ " --definitely-not-a-flag"))
    ~expect_code:2;
  check_usage "bench unknown table" (run (bench ^ " --table t99")) ~expect_code:2;
  check_usage "bench missing table name" (run (bench ^ " --table")) ~expect_code:2;
  check_usage "bench trailing junk" (run (bench ^ " --quick --junk")) ~expect_code:2;
  check_usage "bench --trace without file" (run (bench ^ " --trace")) ~expect_code:2;
  check_usage "bench --json without file" (run (bench ^ " --json")) ~expect_code:2;
  check_usage "bench --baseline without --json"
    (run (bench ^ " --baseline some.json"))
    ~expect_code:2;
  check_usage "bench --enforce-baseline without --json"
    (run (bench ^ " --enforce-baseline"))
    ~expect_code:2

(* ks-bench/1's words_per_op counts minor-heap words per call: the
   Lagrange kernel allocates its evaluator on every call, while chained
   Zp multiplication on immediate ints allocates nothing. *)
let test_bench_json_words () =
  let json = Filename.temp_file "ks_bench" ".json" in
  let code, _, _ = run (bench ^ " --quick --json " ^ json) in
  Alcotest.(check int) "bench --quick --json exits 0" 0 code;
  let ic = open_in_bin json in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove json;
  let words_of kernel =
    let line =
      List.find
        (fun l -> contains l (Printf.sprintf "\"name\": %S" kernel))
        (String.split_on_char '\n' text)
    in
    Scanf.sscanf
      (String.sub line (String.index line ',') (String.length line - String.index line ','))
      ", \"ns_per_op\": %f, \"words_per_op\": %f" (fun _ w -> w)
  in
  Alcotest.(check bool) "Lagrange kernel allocates" true
    (words_of "poly/lagrange_eval_k12_x16" > 0.0);
  Alcotest.(check (float 0.0)) "Zp multiplication allocates nothing" 0.0
    (words_of "field/zp_mul_256")

let test_ks_lint_cli () =
  check_usage "ks_lint unknown option" (run (ks_lint ^ " --bogus")) ~expect_code:2;
  let code, _, err = run (ks_lint ^ " no-such-dir") in
  Alcotest.(check int) "ks_lint missing path exits 2" 2 code;
  Alcotest.(check bool) "names the missing path" true (contains err "no-such-dir");
  let code, out, _ = run (ks_lint ^ " --help") in
  Alcotest.(check int) "ks_lint --help exits 0" 0 code;
  Alcotest.(check bool) "help names the rules doc" true (contains out "LINT.md")

(* End to end through the real binary: a fixture tree with a violation
   must produce a diagnostic and exit 1. *)
let test_ks_lint_fixture_tree () =
  let dir = Filename.temp_file "ks_lint_fixture" "" in
  Sys.remove dir;
  let core = Filename.concat dir "lib/core" in
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  mkdir_p core;
  let write f content =
    let oc = open_out (Filename.concat core f) in
    output_string oc content;
    close_out oc
  in
  write "bad.ml" "let x = Random.int 10\n";
  write "good.ml" "let x rng = Ks_stdx.Prng.int rng 10\n";
  let code, out, _ = run (ks_lint ^ " " ^ dir) in
  Alcotest.(check int) "violations exit 1" 1 code;
  Alcotest.(check bool) "diagnostic names file and rule" true
    (contains out "bad.ml:1: [R1]");
  Alcotest.(check bool) "clean file not reported" true (not (contains out "good.ml"));
  write "bad.ml" "let x rng = Ks_stdx.Prng.int rng 10\n";
  let code, out, _ = run (ks_lint ^ " " ^ dir) in
  Alcotest.(check int) "clean tree exits 0" 0 code;
  Alcotest.(check bool) "reports clean" true (contains out "clean")

let () =
  Alcotest.run "cli"
    [
      ( "ba_sim",
        [
          Alcotest.test_case "unknown flag" `Quick test_ba_sim_unknown_flag;
          Alcotest.test_case "help" `Quick test_ba_sim_help;
          Alcotest.test_case "exit codes" `Quick test_ba_sim_exit_codes;
          Alcotest.test_case "list attacks" `Quick test_ba_sim_list_attacks;
          Alcotest.test_case "list faults" `Quick test_ba_sim_list_faults;
          Alcotest.test_case "attack flag" `Quick test_ba_sim_attack_flag;
          Alcotest.test_case "ae verdict" `Quick test_ba_sim_ae_verdict;
        ] );
      ( "bench",
        [
          Alcotest.test_case "unknown flag" `Quick test_bench_unknown_flag;
          Alcotest.test_case "json words per op" `Quick test_bench_json_words;
        ] );
      ( "ks_lint",
        [
          Alcotest.test_case "flags" `Quick test_ks_lint_cli;
          Alcotest.test_case "fixture tree" `Quick test_ks_lint_fixture_tree;
        ] );
    ]

(* Benchmark harness for the King–Saia reproduction.

   Modes:
   - no arguments / [--quick]: regenerate every experiment table of
     EXPERIMENTS.md (T1–T17) by running the full protocol stack, the
     baselines and the substrate measurements.
   - [--table tN]: regenerate a single table, exactly as the full run
     does (same sizes, same invariant monitors).
   - [--bechamel]: wall-clock micro-benchmarks, one [Test.make] per table
     (the dominating kernel of each experiment).
   - [--json FILE]: coding-kernel micro-benchmarks (field mul, Lagrange
     evaluation, robust Reed–Solomon decoding at protocol sizes), written
     as machine-readable JSON (schema ks-bench/1) so the perf trajectory
     is a tracked artifact — see docs/PERF.md.  [--baseline FILE]
     additionally prints a speedup-vs-baseline table and flags kernels
     that regressed more than 2x after machine-speed normalisation
     ([--enforce-baseline] turns the flag into a non-zero exit). *)

module Experiments = Ks_workload.Experiments
module Inputs = Ks_workload.Inputs
module Run = Ks_workload.Run
module Params = Ks_core.Params
module Prng = Ks_stdx.Prng

(* --- Bechamel micro-benchmarks: one kernel per table. --- *)

let protocol_kernel p ~n ~scenario ~seed () =
  let params = Params.practical n in
  let inputs = Inputs.generate (Prng.create seed) ~n Inputs.Split in
  Run.run p ~params ~seed ~inputs ~adversary:scenario
    ~budget:(Ks_attacks.budget_for scenario ~params ~fraction:0.25)

let aeba_coin_kernel ~n ~seed () =
  let params = Params.practical n in
  let rng = Prng.create seed in
  let inputs = Inputs.generate rng ~n Inputs.Split in
  Ks_core.Aeba_coin.run_standalone ~seed ~n ~degree:params.Params.aeba_degree
    ~rounds:8 ~epsilon:params.Params.epsilon ~budget:(n / 4) ~inputs
    ~strategy:(Ks_attacks.byzantine_static.vote ~params)
    ~coin:Ks_core.Aeba_coin.Ideal ()

let a2e_kernel ~n ~seed () =
  let params = Params.practical n in
  let config = Ks_core.Ae_to_e.config_of_params params in
  let net =
    Ks_sim.Net.create ~label:"a2e" ~seed ~n ~budget:0
      ~msg_bits:Ks_core.Ae_to_e.msg_bits
      ~strategy:Ks_sim.Adversary.none ()
  in
  Ks_core.Ae_to_e.run ~net ~config
    ~knows:(fun _ -> Some 1)
    ~coin:(fun ~iteration _ -> Some (iteration mod config.Ks_core.Ae_to_e.labels))

let shamir_kernel ~seed () =
  let module Sh = Ks_shamir.Shamir.Make (Ks_field.Zp) in
  let rng = Prng.create seed in
  let shares = Sh.deal rng ~threshold:5 ~holders:16 (Ks_field.Zp.of_int 123) in
  shares.(3) <- { shares.(3) with Sh.value = Ks_field.Zp.of_int 1 };
  Sh.reconstruct_robust ~threshold:5 (Array.to_list shares)

let bechamel_tests =
  let open Bechamel in
  [
    Test.make ~name:"t1/t10: everywhere BA, n=32, 25% byz"
      (Staged.stage
         (protocol_kernel Run.Everywhere ~n:32 ~scenario:Ks_attacks.byzantine_static
            ~seed:1L));
    Test.make ~name:"t2: rabin all-to-all, n=256"
      (Staged.stage
         (protocol_kernel Run.Rabin ~n:256 ~scenario:Ks_attacks.crash ~seed:1L));
    Test.make ~name:"t3: almost-everywhere BA, n=32"
      (Staged.stage
         (protocol_kernel Run.Ae ~n:32 ~scenario:Ks_attacks.byzantine_static
            ~seed:2L));
    Test.make ~name:"t4: algorithm 5, n=256, 8 rounds"
      (Staged.stage (aeba_coin_kernel ~n:256 ~seed:3L));
    Test.make ~name:"t5: feige election, r=256"
      (Staged.stage (fun () ->
           let rng = Prng.create 4L in
           let bins = Array.init 256 (fun _ -> Prng.int rng 32) in
           Ks_core.Election.winner_indices ~num_bins:32 ~target:8 bins));
    Test.make ~name:"t6: almost-everywhere-to-everywhere, n=256"
      (Staged.stage (a2e_kernel ~n:256 ~seed:5L));
    Test.make ~name:"t7: shamir robust reconstruct (16,6)+err"
      (Staged.stage (shamir_kernel ~seed:6L));
    Test.make ~name:"t8: sampler build r=s=1024 d=16"
      (Staged.stage (fun () ->
           Ks_sampler.Sampler.create (Prng.create 7L) ~r:1024 ~s:1024 ~d:16));
    Test.make ~name:"t9: everywhere BA at the threshold, n=32, 33%"
      (Staged.stage
         (protocol_kernel Run.Everywhere ~n:32 ~scenario:Ks_attacks.byzantine_static
            ~seed:8L));
  ]

let run_bechamel () =
  let open Bechamel in
  let open Toolkit in
  let cfg = Benchmark.cfg ~limit:20 ~quota:(Time.second 5.0) ~kde:None () in
  let analysis = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| "run" |] in
  Printf.printf "\n== Bechamel micro-benchmarks (one kernel per table) ==\n";
  Printf.printf "%-50s %16s\n" "kernel" "time/run";
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg Instance.[ monotonic_clock ] elt in
          let ols = Analyze.one analysis Instance.monotonic_clock raw in
          match Analyze.OLS.estimates ols with
          | Some (t :: _) ->
            let human =
              if t > 1e9 then Printf.sprintf "%.2f s" (t /. 1e9)
              else if t > 1e6 then Printf.sprintf "%.2f ms" (t /. 1e6)
              else if t > 1e3 then Printf.sprintf "%.2f us" (t /. 1e3)
              else Printf.sprintf "%.0f ns" t
            in
            Printf.printf "%-50s %16s\n%!" (Test.Elt.name elt) human
          | Some [] | None ->
            Printf.printf "%-50s %16s\n%!" (Test.Elt.name elt) "n/a")
        (Test.elements test))
    bechamel_tests

(* --- Coding-kernel micro-benchmarks with machine-readable output. ---

   Each kernel is a pure decode/arithmetic hot path with deterministic,
   pre-built inputs (the PRNG seeds are fixed, so every run measures the
   same work).  Sizes n in {64, 128, 256} derive holder counts and
   thresholds exactly as the protocol does ([Params.practical]). *)

module Kernels = struct
  module Zp = Ks_field.Zp
  module Gf = Ks_field.Gf256
  module PZ = Ks_field.Poly.Make (Ks_field.Zp)
  module Sh = Ks_shamir.Shamir.Make (Ks_field.Zp)

  let protocol_sizes = [ 64; 128; 256 ]

  let mul_zp =
    let rng = Prng.create 101L in
    let xs = Array.init 256 (fun _ -> Zp.random_nonzero rng) in
    fun () ->
      let acc = ref Zp.one in
      for i = 0 to 255 do
        acc := Zp.mul !acc xs.(i)
      done;
      ignore (Sys.opaque_identity !acc)

  let mul_gf256 =
    let rng = Prng.create 102L in
    let xs = Array.init 256 (fun _ -> Gf.random_nonzero rng) in
    fun () ->
      let acc = ref Gf.one in
      for i = 0 to 255 do
        acc := Gf.mul !acc xs.(i)
      done;
      ignore (Sys.opaque_identity !acc)

  let lagrange_eval =
    let rng = Prng.create 103L in
    let pts = List.init 12 (fun i -> (Zp.of_int (i + 1), Zp.random rng)) in
    let xs = Array.init 16 (fun i -> Zp.of_int (100 + i)) in
    fun () ->
      let acc = ref Zp.zero in
      Array.iter (fun x -> acc := Zp.add !acc (PZ.lagrange_eval pts x)) xs;
      ignore (Sys.opaque_identity !acc)

  let interp_zero =
    let rng = Prng.create 104L in
    let shares = Sh.deal rng ~threshold:5 ~holders:12 (Zp.of_int 4242) in
    let shares = Array.to_list shares in
    fun () -> ignore (Sys.opaque_identity (Sh.reconstruct ~threshold:5 shares))

  (* Robust word decode at protocol sizes: holders = k1(n), protocol
     threshold, [errors_of ~radius] corrupted shares. *)
  let robust_case ~n ~errors_of =
    let params = Params.practical n in
    let holders = params.Params.k1 in
    let threshold = Params.share_threshold params ~holders in
    let rng = Prng.create (Int64.of_int (7700 + n)) in
    let secret = Zp.random rng in
    let shares = Sh.deal rng ~threshold ~holders secret in
    let radius = (holders - threshold - 1) / 2 in
    let errors = errors_of ~radius in
    let idx = Prng.sample_without_replacement rng ~n:holders ~k:errors in
    Array.iter
      (fun i -> shares.(i) <- { shares.(i) with Sh.value = Zp.random rng })
      idx;
    let shares = Array.to_list shares in
    fun () ->
      ignore (Sys.opaque_identity (Sh.reconstruct_robust ~threshold shares))

  (* Vector decode (the sendDown hot path): 32-word vectors, two wholly
     corrupted holders plus one word-targeted lie, which forces the probe
     decode and at least one per-word fallback. *)
  let vectors_case ~n =
    let params = Params.practical n in
    let holders = params.Params.k1 in
    let threshold = Params.share_threshold params ~holders in
    let rng = Prng.create (Int64.of_int (8800 + n)) in
    let words = Array.init 32 (fun _ -> Zp.random rng) in
    let xs = Array.init holders (fun i -> i) in
    let per_holder = Sh.deal_vector_at rng ~threshold ~xs words in
    for h = 0 to 1 do
      per_holder.(h) <- Array.map (fun _ -> Zp.random rng) per_holder.(h)
    done;
    per_holder.(2).(17) <- Zp.random rng;
    let holders_l = List.init holders (fun h -> (xs.(h), per_holder.(h))) in
    fun () ->
      ignore
        (Sys.opaque_identity (Sh.reconstruct_vectors ~threshold holders_l))

  let all () =
    [
      ("field/zp_mul_256", mul_zp);
      ("field/gf256_mul_256", mul_gf256);
      ("poly/lagrange_eval_k12_x16", lagrange_eval);
      ("shamir/interp_zero_m12_t5", interp_zero);
    ]
    @ List.concat_map
        (fun n ->
          [
            ( Printf.sprintf "shamir/robust_scatter_n%d" n,
              robust_case ~n ~errors_of:(fun ~radius -> Stdlib.max 1 (radius - 1)) );
            ( Printf.sprintf "shamir/robust_radius_n%d" n,
              robust_case ~n ~errors_of:(fun ~radius -> radius) );
            (Printf.sprintf "shamir/vectors32_n%d" n, vectors_case ~n);
          ])
        protocol_sizes
end

type kernel_result = { name : string; ns_per_op : float; words_per_op : float }

(* Minor-heap words allocated per call: the median over five batches of
   [Gc.minor_words] deltas.  (Bechamel's [minor_allocated] instance reads
   0 for every kernel here.) *)
let words_per_op fn =
  let batch = 32 in
  let once () =
    let w0 = Gc.minor_words () in
    for _ = 1 to batch do
      fn ()
    done;
    (Gc.minor_words () -. w0) /. float_of_int batch
  in
  let ws = Array.init 5 (fun _ -> once ()) in
  Array.sort Float.compare ws;
  ws.(2)

let measure_kernels ~quick =
  let open Bechamel in
  let open Toolkit in
  let quota = if quick then 0.5 else 2.0 in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second quota) ~kde:None () in
  let analysis = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |] in
  List.map
    (fun (name, fn) ->
      let test = Test.make ~name (Staged.stage fn) in
      let elt = List.hd (Test.elements test) in
      let raw = Benchmark.run cfg Instance.[ monotonic_clock ] elt in
      let ns_per_op =
        match Analyze.OLS.estimates (Analyze.one analysis Instance.monotonic_clock raw) with
        | Some (v :: _) -> v
        | Some [] | None -> Float.nan
      in
      let r = { name; ns_per_op; words_per_op = words_per_op fn } in
      Printf.printf "%-32s %12.0f ns/op %12.0f w/op\n%!" r.name r.ns_per_op
        r.words_per_op;
      r)
    (Kernels.all ())

let write_json path results =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"schema\": \"ks-bench/1\",\n  \"kernels\": [\n";
  let last = List.length results - 1 in
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"name\": %S, \"ns_per_op\": %.2f, \"words_per_op\": %.2f}%s\n"
        r.name r.ns_per_op r.words_per_op
        (if i = last then "" else ","))
    results;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc

(* Minimal parser for the flat ks-bench/1 schema this binary writes: scan
   "name" / "ns_per_op" field pairs.  Kernel names contain no escapes. *)
let parse_baseline path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  let find_from needle i =
    let nn = String.length needle and nt = String.length text in
    let rec go i =
      if i + nn > nt then None
      else if String.sub text i nn = needle then Some (i + nn)
      else go (i + 1)
    in
    go i
  in
  let rec scan i acc =
    match find_from "\"name\": \"" i with
    | None -> List.rev acc
    | Some j ->
      let close = String.index_from text j '"' in
      let name = String.sub text j (close - j) in
      (match find_from "\"ns_per_op\": " close with
       | None -> failwith "parse_baseline: missing ns_per_op"
       | Some k ->
         let stop = ref k in
         while
           !stop < String.length text
           && (match text.[!stop] with '0' .. '9' | '.' | '-' | 'e' | '+' -> true | _ -> false)
         do
           incr stop
         done;
         let ns = float_of_string (String.sub text k (!stop - k)) in
         scan !stop ((name, ns) :: acc))
  in
  match find_from "ks-bench/1" 0 with
  | None -> failwith (path ^ ": not a ks-bench/1 file")
  | Some _ -> scan 0 []

(* Speedup table plus a regression gate.  Raw ratios confound machine
   speed with code changes when the baseline was recorded elsewhere, so
   the gate normalises by the median ratio: a uniformly slower machine
   moves every ratio equally and trips nothing, while a single kernel
   regressing > 2x relative to its peers is flagged.  A kernel must also
   be absolutely slower than its baseline to flag — when most kernels
   just got faster, the ones left unchanged are not regressions. *)
let compare_baseline ~enforce results baseline =
  let rows =
    List.filter_map
      (fun r ->
        match List.assoc_opt r.name baseline with
        | Some base when base > 0.0 && Float.is_finite r.ns_per_op ->
          Some (r.name, base, r.ns_per_op, r.ns_per_op /. base)
        | Some _ | None -> None)
      results
  in
  if rows = [] then begin
    prerr_endline "bench: baseline shares no kernels with this run";
    exit 2
  end;
  let median xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let m = median (List.map (fun (_, _, _, r) -> r) rows) in
  Printf.printf "\n%-32s %14s %14s %9s\n" "kernel" "baseline" "current" "speedup";
  List.iter
    (fun (name, base, now, _) ->
      Printf.printf "%-32s %11.0f ns %11.0f ns %8.2fx\n" name base now (base /. now))
    rows;
  let flagged = List.filter (fun (_, _, _, r) -> r > 1.0 && r > 2.0 *. m) rows in
  List.iter
    (fun (name, base, now, r) ->
      Printf.eprintf
        "bench: REGRESSION %s: %.0f -> %.0f ns/op (%.2fx vs %.2fx median)\n" name
        base now r m)
    flagged;
  if flagged <> [] && enforce then exit 1

let run_json ~quick ~json ~baseline ~enforce =
  let results = measure_kernels ~quick in
  write_json json results;
  Printf.printf "bench: wrote %s (%d kernels, schema ks-bench/1)\n" json
    (List.length results);
  match baseline with
  | None -> ()
  | Some path ->
    (match parse_baseline path with
     | baseline -> compare_baseline ~enforce results baseline
     | exception (Sys_error e | Failure e) ->
       Printf.eprintf "bench: --baseline: %s\n" e;
       exit 2)

let usage_and_exit () =
  prerr_endline
    "usage: main.exe [--quick | --table tN | --bechamel | --json FILE] [--trace FILE]";
  prerr_endline "                [--baseline FILE] [--enforce-baseline]";
  Printf.eprintf "  tables: %s\n" (String.concat " " Experiments.table_names);
  prerr_endline "  --json FILE: coding-kernel microbenchmarks as ks-bench/1 JSON";
  prerr_endline "               (--quick shortens the measurement quota;";
  prerr_endline "                --baseline FILE prints a speedup table and flags >2x";
  prerr_endline "                normalised regressions, fatal with --enforce-baseline)";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* [--trace FILE] streams the JSONL event trace of whatever runs. *)
  let trace, args =
    let rec strip acc = function
      | "--trace" :: file :: rest ->
        let sink =
          try Ks_monitor.Trace.file file
          with Sys_error e ->
            Printf.eprintf "bench: --trace: %s\n" e;
            exit 2
        in
        (Some sink, List.rev_append acc rest)
      | [ "--trace" ] ->
        prerr_endline "bench: --trace requires a FILE argument";
        usage_and_exit ()
      | a :: rest -> strip (a :: acc) rest
      | [] -> (None, List.rev acc)
    in
    strip [] args
  in
  (* [--json FILE] / [--baseline FILE] / [--enforce-baseline] select and
     configure the coding-kernel microbenchmark mode. *)
  let take_file flag args =
    let rec strip acc = function
      | f :: file :: rest when f = flag && String.length file > 0 && file.[0] <> '-' ->
        (Some file, List.rev_append acc rest)
      | [ f ] when f = flag ->
        Printf.eprintf "bench: %s requires a FILE argument\n" flag;
        usage_and_exit ()
      | f :: _ when f = flag ->
        Printf.eprintf "bench: %s requires a FILE argument\n" flag;
        usage_and_exit ()
      | a :: rest -> strip (a :: acc) rest
      | [] -> (None, List.rev acc)
    in
    strip [] args
  in
  let json, args = take_file "--json" args in
  let baseline, args = take_file "--baseline" args in
  let enforce = List.mem "--enforce-baseline" args in
  let args = List.filter (fun a -> a <> "--enforce-baseline") args in
  (match json, baseline, enforce with
   | None, Some _, _ | None, _, true ->
     prerr_endline "bench: --baseline/--enforce-baseline need --json FILE";
     usage_and_exit ()
   | _ -> ());
  match json with
  | Some json ->
    (match args with
     | [] -> run_json ~quick:false ~json ~baseline ~enforce
     | [ "--quick" ] -> run_json ~quick:true ~json ~baseline ~enforce
     | _ ->
       prerr_endline "bench: --json combines only with --quick/--baseline";
       usage_and_exit ())
  | None ->
    (* Exactly one mode; anything unrecognised is an error, not a no-op. *)
    (match args with
     | [ "--bechamel" ] -> run_bechamel ()
     | [ "--table" ] ->
       prerr_endline "bench: --table requires a table name";
       usage_and_exit ()
     | [ "--table"; name ] ->
       if List.mem name Experiments.table_names then Experiments.run_table ?trace name
       else begin
         Printf.eprintf "bench: unknown table %S (expected t1..t17)\n" name;
         usage_and_exit ()
       end
     | [ "--quick" ] -> Experiments.run_all ~quick:true ?trace ()
     | [] -> Experiments.run_all ?trace ()
     | args ->
       let known a = List.mem a [ "--quick"; "--bechamel"; "--table" ] in
       (match List.find_opt (fun a -> not (known a)) args with
        | Some unknown when String.length unknown > 0 && unknown.[0] = '-' ->
          Printf.eprintf "bench: unknown option %s\n" unknown
        | Some stray -> Printf.eprintf "bench: unexpected argument %s\n" stray
        | None -> prerr_endline "bench: expected exactly one mode");
       usage_and_exit ())

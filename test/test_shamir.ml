module Zp = Ks_field.Zp
module Gf = Ks_field.Gf256
module Sh = Ks_shamir.Shamir.Make (Ks_field.Zp)
module ShG = Ks_shamir.Shamir.Make (Ks_field.Gf256)
module Add = Ks_shamir.Additive.Make (Ks_field.Zp)
module Pz = Ks_field.Poly.Make (Ks_field.Zp)
module Pg = Ks_field.Poly.Make (Ks_field.Gf256)
module OracleZ = Decode_oracle.Make (Ks_field.Zp)
module OracleG = Decode_oracle.Make (Ks_field.Gf256)
module Prng = Ks_stdx.Prng

let rng () = Prng.create 20260706L

let test_roundtrip () =
  let rng = rng () in
  for _ = 1 to 50 do
    let secret = Zp.random rng in
    let shares = Sh.deal rng ~threshold:5 ~holders:16 secret in
    match Sh.reconstruct ~threshold:5 (Array.to_list shares) with
    | Some v -> Alcotest.(check int) "recovers" (Zp.to_int secret) (Zp.to_int v)
    | None -> Alcotest.fail "reconstruction failed"
  done

let test_any_subset_reconstructs () =
  let rng = rng () in
  let secret = Zp.of_int 123456 in
  let shares = Sh.deal rng ~threshold:4 ~holders:12 secret in
  for _ = 1 to 30 do
    let idx = Prng.sample_without_replacement rng ~n:12 ~k:5 in
    let subset = Array.to_list (Array.map (fun i -> shares.(i)) idx) in
    match Sh.reconstruct ~threshold:4 subset with
    | Some v -> Alcotest.(check int) "any 5-subset" 123456 (Zp.to_int v)
    | None -> Alcotest.fail "subset reconstruction failed"
  done

let test_too_few_shares () =
  let rng = rng () in
  let shares = Sh.deal rng ~threshold:4 ~holders:12 (Zp.of_int 9) in
  let subset = Array.to_list (Array.sub shares 0 4) in
  Alcotest.(check bool) "threshold shares insufficient" true
    (Sh.reconstruct ~threshold:4 subset = None)

let test_duplicate_shares_ignored () =
  let rng = rng () in
  let shares = Sh.deal rng ~threshold:2 ~holders:6 (Zp.of_int 77) in
  (* Three distinct + duplicates of one: must reconstruct from distinct. *)
  let subset = [ shares.(0); shares.(0); shares.(1); shares.(1); shares.(2) ] in
  match Sh.reconstruct ~threshold:2 subset with
  | Some v -> Alcotest.(check int) "dedup" 77 (Zp.to_int v)
  | None -> Alcotest.fail "should reconstruct"

let test_hiding_statistical () =
  (* With t shares, the view distribution is independent of the secret:
     compare the first share's low bits across two secrets. *)
  let rng = rng () in
  let buckets = 16 in
  let hist secret =
    let h = Array.make buckets 0 in
    for _ = 1 to 4000 do
      let shares = Sh.deal rng ~threshold:3 ~holders:8 secret in
      let v = Zp.to_int shares.(0).Sh.value mod buckets in
      h.(v) <- h.(v) + 1
    done;
    h
  in
  let h0 = hist Zp.zero and h1 = hist (Zp.of_int 424242) in
  let tv = ref 0.0 in
  for i = 0 to buckets - 1 do
    tv := !tv +. Float.abs (float_of_int (h0.(i) - h1.(i)))
  done;
  let tv = !tv /. (2.0 *. 4000.0) in
  Alcotest.(check bool) (Printf.sprintf "TV small (%.3f)" tv) true (tv < 0.08)

let test_deal_validation () =
  let rng = rng () in
  Alcotest.check_raises "holders <= threshold"
    (Invalid_argument "Shamir.deal: holders <= threshold") (fun () ->
      ignore (Sh.deal rng ~threshold:5 ~holders:5 Zp.zero));
  Alcotest.check_raises "negative threshold"
    (Invalid_argument "Shamir.deal: negative threshold") (fun () ->
      ignore (Sh.deal rng ~threshold:(-1) ~holders:5 Zp.zero))

let test_deal_at_positions () =
  let rng = rng () in
  let xs = [| 9; 3; 25; 14; 7; 30 |] in
  let shares = Sh.deal_at rng ~threshold:2 ~xs (Zp.of_int 55) in
  Array.iteri
    (fun i s -> Alcotest.(check int) "index preserved" xs.(i) s.Sh.index)
    shares;
  match Sh.reconstruct ~threshold:2 (Array.to_list shares) with
  | Some v -> Alcotest.(check int) "reconstructs from positions" 55 (Zp.to_int v)
  | None -> Alcotest.fail "failed"

let corrupt_some rng shares ~count =
  let shares = Array.copy shares in
  let idx = Prng.sample_without_replacement rng ~n:(Array.length shares) ~k:count in
  Array.iter
    (fun i -> shares.(i) <- { shares.(i) with Sh.value = Zp.random rng })
    idx;
  shares

let test_robust_corrects_errors () =
  let rng = rng () in
  for _ = 1 to 30 do
    let secret = Zp.random rng in
    (* holders 16, threshold 5: classical radius (16-6)/2 = 5. *)
    let shares = Sh.deal rng ~threshold:5 ~holders:16 secret in
    let bad = corrupt_some rng shares ~count:4 in
    match Sh.reconstruct_robust ~threshold:5 (Array.to_list bad) with
    | Some v -> Alcotest.(check int) "corrected" (Zp.to_int secret) (Zp.to_int v)
    | None -> Alcotest.fail "robust reconstruction failed"
  done

let test_robust_beyond_radius_list_decoding () =
  (* 6 random errors among 16 with k = 6 exceed the BW radius, but random
     errors rarely form a competing codeword, so list decoding wins. *)
  let rng = rng () in
  let ok = ref 0 in
  let trials = 30 in
  for _ = 1 to trials do
    let secret = Zp.random rng in
    let shares = Sh.deal rng ~threshold:5 ~holders:16 secret in
    let bad = corrupt_some rng shares ~count:6 in
    match Sh.reconstruct_robust ~threshold:5 (Array.to_list bad) with
    | Some v when Zp.equal v secret -> incr ok
    | Some _ -> Alcotest.fail "wrong value accepted"
    | None -> ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "decodes beyond radius (%d/%d)" !ok trials)
    true
    (!ok >= trials * 2 / 3)

let test_robust_never_wrong_under_majority_garbage () =
  (* With 8 of 16 shares corrupted the truth is not recoverable; the
     decoder must answer None or (exceptionally) the truth — never a
     confidently wrong value. *)
  let rng = rng () in
  for _ = 1 to 20 do
    let secret = Zp.random rng in
    let shares = Sh.deal rng ~threshold:5 ~holders:16 secret in
    let bad = corrupt_some rng shares ~count:8 in
    match Sh.reconstruct_robust ~threshold:5 (Array.to_list bad) with
    | Some v -> Alcotest.(check int) "only truth accepted" (Zp.to_int secret) (Zp.to_int v)
    | None -> ()
  done

let test_robust_exact_threshold_rejected () =
  (* Exactly t+1 shares carry no redundancy: robust reconstruction must
     refuse rather than trust them blindly. *)
  let rng = rng () in
  let shares = Sh.deal rng ~threshold:5 ~holders:16 (Zp.of_int 8) in
  let subset = Array.to_list (Array.sub shares 0 6) in
  Alcotest.(check bool) "no redundancy -> None" true
    (Sh.reconstruct_robust ~threshold:5 subset = None)

let test_vector_roundtrip () =
  let rng = rng () in
  let words = Array.init 20 (fun i -> Zp.of_int (i * i)) in
  let per_holder = Sh.deal_vector rng ~threshold:4 ~holders:12 words in
  (* Rebuild per-word share lists. *)
  let per_word =
    Array.init 20 (fun w ->
        List.init 12 (fun h ->
            { Sh.index = h; value = per_holder.(h).(w).Sh.value }))
  in
  match Sh.reconstruct_vector ~threshold:4 per_word with
  | Some out ->
    Array.iteri
      (fun i v -> Alcotest.(check int) "word" (i * i) (Zp.to_int v))
      out
  | None -> Alcotest.fail "vector reconstruction failed"

let test_reconstruct_vectors_fast () =
  let rng = rng () in
  for trial = 1 to 20 do
    let words = Array.init 8 (fun i -> Zp.of_int ((trial * 100) + i)) in
    let xs = Array.init 14 (fun i -> i * 2) in
    let per_holder = Sh.deal_vector_at rng ~threshold:4 ~xs words in
    (* Corrupt three whole holders. *)
    let holders =
      List.init 14 (fun h ->
          let v =
            if h < 3 then Array.map (fun _ -> Zp.random rng) per_holder.(h)
            else per_holder.(h)
          in
          (xs.(h), v))
    in
    match Sh.reconstruct_vectors ~threshold:4 holders with
    | Some out ->
      Array.iteri
        (fun i v -> Alcotest.(check int) "word" ((trial * 100) + i) (Zp.to_int v))
        out
    | None -> Alcotest.fail "vector decode failed"
  done

let test_reconstruct_vectors_word_targeted_lie () =
  (* A holder honest on the probe word but lying on a later word must not
     silently poison that word. *)
  let rng = rng () in
  let words = Array.init 6 (fun i -> Zp.of_int (i + 1)) in
  let xs = Array.init 12 (fun i -> i) in
  let per_holder = Sh.deal_vector_at rng ~threshold:3 ~xs words in
  per_holder.(0).(4) <- Zp.random rng;
  let holders = List.init 12 (fun h -> (h, per_holder.(h))) in
  match Sh.reconstruct_vectors ~threshold:3 holders with
  | Some out ->
    Array.iteri (fun i v -> Alcotest.(check int) "word survives lie" (i + 1) (Zp.to_int v)) out
  | None -> Alcotest.fail "should decode"

let test_additive () =
  let rng = rng () in
  for _ = 1 to 20 do
    let secret = Zp.random rng in
    let shares = Add.deal rng ~holders:7 secret in
    Alcotest.(check int) "sum reconstructs" (Zp.to_int secret)
      (Zp.to_int (Add.reconstruct shares))
  done;
  Alcotest.check_raises "zero holders"
    (Invalid_argument "Additive.deal: need at least one holder") (fun () ->
      ignore (Add.deal rng ~holders:0 Zp.zero))

let prop_roundtrip =
  QCheck.Test.make ~name:"deal/reconstruct roundtrip (random t, holders)" ~count:100
    QCheck.(pair small_nat small_nat)
    (fun (a, b) ->
      let rng = Prng.create (Int64.of_int ((a * 1000) + b)) in
      let threshold = 1 + (a mod 6) in
      let holders = threshold + 2 + (b mod 8) in
      let secret = Zp.random rng in
      let shares = Sh.deal rng ~threshold ~holders secret in
      match Sh.reconstruct ~threshold (Array.to_list shares) with
      | Some v -> Zp.equal v secret
      | None -> false)

let prop_robust_radius =
  QCheck.Test.make ~name:"robust corrects within radius" ~count:60
    QCheck.(pair small_nat small_nat)
    (fun (a, b) ->
      let rng = Prng.create (Int64.of_int ((a * 7919) + b + 1)) in
      let threshold = 2 + (a mod 4) in
      let holders = (3 * (threshold + 1)) + (b mod 4) in
      let radius = (holders - threshold - 1) / 2 in
      let errors = Stdlib.min radius (holders / 4) in
      let secret = Zp.random rng in
      let shares = Sh.deal rng ~threshold ~holders secret in
      let bad = corrupt_some rng shares ~count:errors in
      match Sh.reconstruct_robust ~threshold (Array.to_list bad) with
      | Some v -> Zp.equal v secret
      | None -> false)

let prop_subset_threshold_boundary =
  (* Any subset strictly above the threshold reconstructs; any subset at
     or below it yields None (information-theoretic hiding boundary). *)
  QCheck.Test.make ~name:"subset size vs threshold boundary" ~count:100
    QCheck.(triple small_nat small_nat small_nat)
    (fun (a, b, c) ->
      let rng = Prng.create (Int64.of_int ((a * 65537) + (b * 257) + c + 1)) in
      let threshold = 1 + (a mod 5) in
      let holders = threshold + 2 + (b mod 8) in
      let secret = Zp.random rng in
      let shares = Sh.deal rng ~threshold ~holders secret in
      let k = 1 + (c mod holders) in
      let idx = Prng.sample_without_replacement rng ~n:holders ~k in
      let subset = Array.to_list (Array.map (fun i -> shares.(i)) idx) in
      match Sh.reconstruct ~threshold subset with
      | Some v -> k > threshold && Zp.equal v secret
      | None -> k <= threshold)

let prop_robust_at_exact_radius =
  (* Error patterns of every weight up to and including the classical
     radius ⌊(holders − threshold − 1) / 2⌋ must decode to the secret. *)
  QCheck.Test.make ~name:"robust corrects at the exact radius" ~count:60
    QCheck.(triple small_nat small_nat small_nat)
    (fun (a, b, c) ->
      let rng = Prng.create (Int64.of_int ((a * 7907) + (b * 131) + c + 1)) in
      let threshold = 2 + (a mod 4) in
      let holders = (3 * (threshold + 1)) + (b mod 4) in
      let radius = (holders - threshold - 1) / 2 in
      let errors = c mod (radius + 1) in
      let secret = Zp.random rng in
      let shares = Sh.deal rng ~threshold ~holders secret in
      let bad = corrupt_some rng shares ~count:errors in
      match Sh.reconstruct_robust ~threshold (Array.to_list bad) with
      | Some v -> Zp.equal v secret
      | None -> false)

let prop_robust_beyond_radius_fails_cleanly =
  (* Past the radius the decoder may recover (list decoding) or give up,
     but it must never raise and never return a wrong secret for random
     (non-colluding) error patterns at these sizes. *)
  QCheck.Test.make ~name:"robust beyond radius: no crash, no wrong secret" ~count:60
    QCheck.(triple small_nat small_nat small_nat)
    (fun (a, b, c) ->
      let rng = Prng.create (Int64.of_int ((a * 104729) + (b * 433) + c + 1)) in
      let threshold = 2 + (a mod 3) in
      let holders = (3 * (threshold + 1)) + (b mod 4) in
      let radius = (holders - threshold - 1) / 2 in
      let max_errors = holders - threshold - 1 in
      let errors = Stdlib.min max_errors (radius + 1 + (c mod 3)) in
      let secret = Zp.random rng in
      let shares = Sh.deal rng ~threshold ~holders secret in
      let bad = corrupt_some rng shares ~count:errors in
      match Sh.reconstruct_robust ~threshold (Array.to_list bad) with
      | Some v -> Zp.equal v secret
      | None -> true)

(* ------------------------------------------------------------------ *)
(* Equivalence against the pre-optimization reference decoder
   (test/decode_oracle.ml).  The optimized kernels (support-mask
   memoization, barycentric evaluators, running-power Vandermonde rows)
   must be bit-for-bit behaviour-preserving, including the None-on-tie
   refusal. *)

let equal_opt eq a b =
  match (a, b) with
  | Some x, Some y -> eq x y
  | None, None -> true
  | _ -> false

let corrupt_some_g rng shares ~count =
  let shares = Array.copy shares in
  let idx = Prng.sample_without_replacement rng ~n:(Array.length shares) ~k:count in
  Array.iter
    (fun i -> shares.(i) <- { shares.(i) with ShG.value = Gf.random rng })
    idx;
  shares

let prop_robust_equiv_oracle_zp =
  (* Error weights sweep the whole range, well past the decodable radius:
     the optimized and reference decoders must agree on every verdict —
     recovered value, wrong-but-identical value, or None. *)
  QCheck.Test.make ~name:"optimized robust decode == reference oracle (Z_p)"
    ~count:120 ~long_factor:20
    QCheck.(triple small_nat small_nat small_nat)
    (fun (a, b, c) ->
      let rng = Prng.create (Int64.of_int ((a * 92821) + (b * 613) + c + 1)) in
      let threshold = 1 + (a mod 5) in
      let holders = threshold + 2 + (b mod 12) in
      let max_errors = holders - threshold - 1 in
      let errors = c mod (max_errors + 1) in
      let secret = Zp.random rng in
      let shares = Sh.deal rng ~threshold ~holders secret in
      let bad = Array.to_list (corrupt_some rng shares ~count:errors) in
      equal_opt Zp.equal
        (Sh.reconstruct_robust ~threshold bad)
        (OracleZ.reconstruct_robust ~threshold bad))

let prop_robust_equiv_oracle_gf256 =
  QCheck.Test.make ~name:"optimized robust decode == reference oracle (GF(256))"
    ~count:120 ~long_factor:20
    QCheck.(triple small_nat small_nat small_nat)
    (fun (a, b, c) ->
      let rng = Prng.create (Int64.of_int ((a * 48611) + (b * 769) + c + 1)) in
      let threshold = 1 + (a mod 5) in
      let holders = threshold + 2 + (b mod 12) in
      let max_errors = holders - threshold - 1 in
      let errors = c mod (max_errors + 1) in
      let secret = Gf.random rng in
      let shares = ShG.deal rng ~threshold ~holders secret in
      let bad = Array.to_list (corrupt_some_g rng shares ~count:errors) in
      equal_opt Gf.equal
        (ShG.reconstruct_robust ~threshold bad)
        (OracleG.reconstruct_robust ~threshold bad))

let prop_lagrange_eval_equiv_oracle =
  QCheck.Test.make ~name:"Poly.lagrange_eval == reference oracle (both fields)"
    ~count:100 ~long_factor:20
    QCheck.(pair small_nat small_nat)
    (fun (a, b) ->
      let rng = Prng.create (Int64.of_int ((a * 31337) + b + 1)) in
      let k = 1 + (a mod 10) in
      let ptsz = List.init k (fun i -> (Zp.of_int (i + 1), Zp.random rng)) in
      let xz = Zp.random rng in
      let ptsg = List.init k (fun i -> (Gf.of_int (i + 1), Gf.random rng)) in
      let xg = Gf.random rng in
      Zp.equal (Pz.lagrange_eval ptsz xz) (OracleZ.lagrange_eval ptsz xz)
      && Gf.equal (Pg.lagrange_eval ptsg xg) (OracleG.lagrange_eval ptsg xg))

(* Vector decode against the reference vector decoder, at the shapes
   [Comm] decodes: k in {4, 6}, m from k + 1 to 16 holders in shuffled
   order, up to m - k wholly garbage holders plus word-targeted lies by
   holders that are honest on the probe word.  Verdict, every word and
   the failure count must match. *)
module Vectors_equiv (F : Ks_field.Field_intf.S) = struct
  module S = Ks_shamir.Shamir.Make (F)
  module O = Decode_oracle.Make (F)

  let case (a, b, c, d) =
    let rng = Prng.create (Int64.of_int ((a * 7877) + (b * 389) + (c * 17) + d + 1)) in
    let k = if a mod 2 = 0 then 4 else 6 in
    let threshold = k - 1 in
    let m = k + 1 + (b mod (16 - k)) in
    let words = 1 + (c mod 6) in
    let xs = Prng.sample_without_replacement rng ~n:40 ~k:m in
    let secret = Array.init words (fun _ -> F.random rng) in
    let vs = S.deal_vector_at rng ~threshold ~xs secret in
    let garbage = d mod (m - k + 1) in
    let order = Prng.permutation rng m in
    Array.iteri
      (fun rank h ->
        if rank < garbage then vs.(h) <- Array.map (fun _ -> F.random rng) vs.(h)
        else if Prng.int rng 4 = 0 then begin
          let w = Prng.int rng words in
          vs.(h).(w) <- F.random rng
        end)
      order;
    let holders = Array.init m (fun h -> (xs.(h), vs.(h))) in
    Prng.shuffle rng holders;
    let holders = Array.to_list holders in
    let fs = ref 0 and fo = ref 0 in
    let got = S.reconstruct_vectors ~failures:fs ~threshold holders in
    let want = O.reconstruct_vectors ~failures:fo ~threshold holders in
    !fs = !fo
    && (match (got, want) with
        | Some g, Some w -> Array.length g = Array.length w && Array.for_all2 F.equal g w
        | None, None -> true
        | _ -> false)
end

module Vectors_equiv_z = Vectors_equiv (Ks_field.Zp)
module Vectors_equiv_g = Vectors_equiv (Ks_field.Gf256)

let prop_vectors_equiv_oracle =
  QCheck.Test.make ~name:"reconstruct_vectors == reference oracle (both fields)"
    ~count:150 ~long_factor:20
    QCheck.(quad small_nat small_nat small_nat small_nat)
    (fun q -> Vectors_equiv_z.case q && Vectors_equiv_g.case q)

let prop_robust_equiv_oracle_wide =
  (* m in 63..80 exceeds the bitmask window scan: both decoders run
     Berlekamp–Welch alone, which solves once at e_max where the
     reference searches e downward.  Error weights straddle the radius:
     at radius + 1 the reference's whole downward search runs. *)
  QCheck.Test.make ~name:"robust decode, m in 63..80 == reference oracle (Z_p)"
    ~count:12 ~long_factor:20
    QCheck.(triple small_nat small_nat small_nat)
    (fun (a, b, c) ->
      let rng = Prng.create (Int64.of_int ((a * 70001) + (b * 919) + c + 1)) in
      let holders = 63 + (a mod 18) in
      let threshold = (holders - 1) / 2 in
      let radius = (holders - threshold - 1) / 2 in
      let errors = radius - 1 + (c mod 3) in
      let secret = Zp.random rng in
      let shares = Sh.deal rng ~threshold ~holders secret in
      let bad = Array.to_list (corrupt_some rng shares ~count:errors) in
      equal_opt Zp.equal
        (Sh.reconstruct_robust ~threshold bad)
        (OracleZ.reconstruct_robust ~threshold bad))

let test_tie_yields_none_both_decoders () =
  (* threshold 1 (k = 2), m = 6: three shares on the zero line, three on
     the line y = x.  Each line explains exactly 3 points (below
     radius_accept = 4), the supports are disjoint, and no mixed pair
     beats them: an exact best/second tie.  Both decoders must refuse
     with None rather than guess a winner. *)
  let shares =
    List.init 6 (fun i ->
        { Sh.index = i; value = (if i < 3 then Zp.zero else Zp.of_int (i + 1)) })
  in
  Alcotest.(check bool) "optimized ties to None" true
    (Sh.reconstruct_robust ~threshold:1 shares = None);
  Alcotest.(check bool) "oracle ties to None" true
    (OracleZ.reconstruct_robust ~threshold:1 shares = None)

let () =
  Alcotest.run "shamir"
    [
      ( "basic",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "any subset" `Quick test_any_subset_reconstructs;
          Alcotest.test_case "too few" `Quick test_too_few_shares;
          Alcotest.test_case "duplicates" `Quick test_duplicate_shares_ignored;
          Alcotest.test_case "hiding" `Quick test_hiding_statistical;
          Alcotest.test_case "validation" `Quick test_deal_validation;
          Alcotest.test_case "deal at positions" `Quick test_deal_at_positions;
          QCheck_alcotest.to_alcotest prop_roundtrip;
        ] );
      ( "robust",
        [
          Alcotest.test_case "corrects errors" `Quick test_robust_corrects_errors;
          Alcotest.test_case "list decoding beyond radius" `Quick
            test_robust_beyond_radius_list_decoding;
          Alcotest.test_case "never wrong at 50% garbage" `Quick
            test_robust_never_wrong_under_majority_garbage;
          Alcotest.test_case "exact threshold rejected" `Quick
            test_robust_exact_threshold_rejected;
          QCheck_alcotest.to_alcotest prop_robust_radius;
          QCheck_alcotest.to_alcotest prop_subset_threshold_boundary;
          QCheck_alcotest.to_alcotest prop_robust_at_exact_radius;
          QCheck_alcotest.to_alcotest prop_robust_beyond_radius_fails_cleanly;
        ] );
      ( "vector",
        [
          Alcotest.test_case "roundtrip" `Quick test_vector_roundtrip;
          Alcotest.test_case "fast decode with bad holders" `Quick
            test_reconstruct_vectors_fast;
          Alcotest.test_case "word-targeted lie" `Quick
            test_reconstruct_vectors_word_targeted_lie;
        ] );
      ("additive", [ Alcotest.test_case "roundtrip" `Quick test_additive ]);
      ( "oracle equivalence",
        [
          Alcotest.test_case "tie yields None (both decoders)" `Quick
            test_tie_yields_none_both_decoders;
          QCheck_alcotest.to_alcotest prop_robust_equiv_oracle_zp;
          QCheck_alcotest.to_alcotest prop_robust_equiv_oracle_gf256;
          QCheck_alcotest.to_alcotest prop_lagrange_eval_equiv_oracle;
          QCheck_alcotest.to_alcotest prop_vectors_equiv_oracle;
          QCheck_alcotest.to_alcotest prop_robust_equiv_oracle_wide;
        ] );
    ]

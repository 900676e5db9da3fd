(* Reference decoder: the pre-optimization robust-decoding kernels, kept
   verbatim as an oracle for equivalence testing.

   The optimized `Shamir.best_codeword` memoizes window candidates by
   support mask and evaluates through precomputed barycentric weights;
   `Poly.lagrange_eval` now routes through `Poly.evaluator`.  Both are
   claimed to be *behaviour-preserving* — same polynomial, same
   None-on-tie verdicts, bit for bit.  This module is the slow, obviously
   correct original that the property tests in `test_shamir.ml` compare
   against.  Do not "optimize" this file; its value is that it never
   changed. *)

(* The vector decoder at the end of this module is `reconstruct_vectors`
   (with `weights_at_zero`) as it stood before the robust decoder scored
   its windows from one inverse-difference table and solved
   Berlekamp–Welch once, copied verbatim.  It calls `best_codeword` for
   an evaluation closure, so it runs on top of the reference decoder
   above through a one-line adapter. *)

module Make (F : Ks_field.Field_intf.S) = struct
  module P = Ks_field.Poly.Make (F)
  module L = Ks_field.Linalg.Make (F)
  module Sh = Ks_shamir.Shamir.Make (F)

  let point index = F.of_int (index + 1)

  (* Pre-optimization Shamir.dedup: first-seen order per distinct index. *)
  let dedup shares =
    let seen = Hashtbl.create 16 in
    List.filter
      (fun s ->
        if Hashtbl.mem seen s.Sh.index then false
        else begin
          Hashtbl.add seen s.Sh.index ();
          true
        end)
      shares

  (* Pre-optimization Poly.lagrange_eval: per-term numerator/denominator
     folds with a field division per point. *)
  let lagrange_eval pts x =
    let term (xi, yi) =
      let num, denom =
        List.fold_left
          (fun (num, denom) (xj, _) ->
            if F.equal xi xj then (num, denom)
            else (F.mul num (F.sub x xj), F.mul denom (F.sub xi xj)))
          (F.one, F.one)
          pts
      in
      F.mul yi (F.div num denom)
    in
    List.fold_left (fun acc pt -> F.add acc (term pt)) F.zero pts

  (* Pre-optimization Berlekamp–Welch with per-entry F.pow rows. *)
  let berlekamp_welch_poly ~threshold pts =
    let m = Array.length pts in
    let k = threshold + 1 in
    if m < k then None
    else begin
      let e_max = (m - k) / 2 in
      let matches poly =
        Array.fold_left
          (fun acc (x, y) -> if F.equal (P.eval poly x) y then acc + 1 else acc)
          0 pts
      in
      let try_e e =
        let nq = k + e in
        let ncols = nq + e in
        let a =
          Array.init m (fun i ->
              let x, y = pts.(i) in
              Array.init ncols (fun c ->
                  if c < nq then F.pow x c else F.neg (F.mul y (F.pow x (c - nq)))))
        in
        let b =
          Array.init m (fun i ->
              let x, y = pts.(i) in
              F.mul y (F.pow x e))
        in
        match L.solve a b with
        | None -> None
        | Some sol ->
          let q = P.of_coeffs (Array.sub sol 0 nq) in
          let e_coeffs = Array.append (Array.sub sol nq e) [| F.one |] in
          let err = P.of_coeffs e_coeffs in
          let quot, rem = P.divmod q err in
          if P.degree rem >= 0 then None
          else if P.degree quot > threshold then None
          else if matches quot >= Stdlib.max (k + 1) (m - e_max) then Some quot
          else None
      in
      let rec search e =
        if e < 0 then None
        else match try_e e with Some p -> Some p | None -> search (e - 1)
      in
      search e_max
    end

  (* Pre-optimization best_codeword: no support-mask memoization, naive
     O(k²)-per-eval window evaluators with a division per weight. *)
  let best_codeword ~threshold pts =
    let m = Array.length pts in
    let k = threshold + 1 in
    if m < k + 1 then None
    else if m > 62 then berlekamp_welch_poly ~threshold pts
    else begin
      let e_max = (m - k) / 2 in
      let radius_accept = Stdlib.max (k + 1) (m - e_max) in
      let support_of eval =
        let mask = ref 0 and count = ref 0 in
        for p = 0 to m - 1 do
          let x, y = pts.(p) in
          if F.equal (eval x) y then begin
            mask := !mask lor (1 lsl p);
            incr count
          end
        done;
        (!mask, !count)
      in
      let strides =
        let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
        List.filter (fun s -> s < m && m / gcd s m >= k) [ 1; 3; 7; 11; 13 ]
      in
      let subsets =
        List.concat_map
          (fun s ->
            List.init m (fun start -> Array.init k (fun j -> (start + (j * s)) mod m)))
          strides
      in
      let best = ref (0, 0) and second_count = ref 0 in
      let winner = ref None in
      let eval_of_subset idx =
        let weights =
          Array.map
            (fun i ->
              let xi, yi = pts.(i) in
              let den = ref F.one in
              Array.iter
                (fun j ->
                  if j <> i then begin
                    let xj, _ = pts.(j) in
                    den := F.mul !den (F.sub xi xj)
                  end)
                idx;
              F.div yi !den)
            idx
        in
        fun x ->
          let acc = ref F.zero in
          for a = 0 to k - 1 do
            let prod = ref weights.(a) in
            for b = 0 to k - 1 do
              if b <> a then begin
                let xb, _ = pts.(idx.(b)) in
                prod := F.mul !prod (F.sub x xb)
              end
            done;
            acc := F.add !acc !prod
          done;
          !acc
      in
      let rec scan = function
        | [] -> ()
        | idx :: rest ->
          let eval = eval_of_subset idx in
          let mask, count = support_of eval in
          if count >= radius_accept then winner := Some idx
          else begin
            let bmask, bcount = !best in
            if mask <> bmask then begin
              if count > bcount then begin
                if bcount > !second_count then second_count := bcount;
                best := (mask, count)
              end
              else if count > !second_count then second_count := count
            end;
            scan rest
          end
      in
      scan subsets;
      match !winner with
      | Some idx ->
        Some (P.interpolate (List.map (fun i -> pts.(i)) (Array.to_list idx)))
      | None ->
        let bw = berlekamp_welch_poly ~threshold pts in
        let bw_scored =
          Option.map
            (fun poly ->
              let mask, count = support_of (P.eval poly) in
              (poly, mask, count))
            bw
        in
        let bmask, bcount = !best in
        (match bw_scored with
         | Some (poly, mask, count) when mask <> bmask && count > bcount ->
           if count >= k + 1 && count > bcount then Some poly else None
         | _ ->
           if bcount >= k + 1 && bcount > !second_count then begin
             let pts_of_mask =
               List.filteri (fun i _ -> bmask land (1 lsl i) <> 0)
                 (Array.to_list pts)
             in
             let chosen = List.filteri (fun i _ -> i < k) pts_of_mask in
             Some (P.interpolate chosen)
           end
           else None)
    end

  let reconstruct_robust ~threshold shares =
    let shares = dedup shares in
    let pts = Array.of_list (List.map (fun s -> (point s.Sh.index, s.Sh.value)) shares) in
    Option.map (fun p -> P.eval p F.zero) (best_codeword ~threshold pts)

  (* The copied vector decoder wants [best_codeword] to return an
     evaluation closure; the reference one returns coefficients. *)
  let best_codeword ~threshold pts =
    Option.map P.eval (best_codeword ~threshold pts)

  (* Lagrange coefficients at zero for a point set given as x-indices,
     with the k divisions collapsed into one batch inversion.  These
     weights are computed once per verification subset and reused for
     every word of the vector. *)
  let weights_at_zero xs =
    let nums = Array.make (Array.length xs) F.one in
    let denoms = Array.make (Array.length xs) F.one in
    Array.iteri
      (fun i xi ->
        let pi = point xi in
        let num = ref F.one and denom = ref F.one in
        Array.iteri
          (fun j xj ->
            if i <> j then begin
              let pj = point xj in
              num := F.mul !num pj;
              denom := F.mul !denom (F.sub pj pi)
            end)
          xs;
        nums.(i) <- !num;
        denoms.(i) <- !denom)
      xs;
    let inv_denoms = P.batch_inv denoms in
    Array.mapi (fun i num -> F.mul num inv_denoms.(i)) nums

  let reconstruct_vectors ~threshold holders =
    let holders =
      if List.for_all (fun (x, _) -> x >= 0 && x < 63) holders then begin
        let seen = ref 0 in
        List.filter
          (fun (x, _) ->
            let bit = 1 lsl x in
            if !seen land bit <> 0 then false
            else begin
              seen := !seen lor bit;
              true
            end)
          holders
      end
      else begin
        let seen = Hashtbl.create 16 in
        List.filter
          (fun (x, _) ->
            if Hashtbl.mem seen x then false
            else begin
              Hashtbl.add seen x ();
              true
            end)
          holders
      end
    in
    let m = List.length holders in
    let k = threshold + 1 in
    (* m = k would be vacuously consistent (see berlekamp_welch_poly);
       demand one redundant holder. *)
    if m < k + 1 then None
    else begin
      let words =
        match holders with (_, v) :: _ -> Array.length v | [] -> 0
      in
      if List.exists (fun (_, v) -> Array.length v <> words) holders then
        invalid_arg "Shamir.reconstruct_vectors: ragged vectors";
      if words = 0 then Some [||]
      else begin
        let xs = Array.of_list (List.map fst holders) in
        let vs = Array.of_list (List.map snd holders) in
        let probe_pts = Array.map2 (fun x v -> (point x, v.(0))) xs vs in
        (* Identify the honest holders once, on the probe word: fast path
           interpolates through the first k and hopes for unanimity; the
           slow path decodes the probe with Berlekamp–Welch. *)
        let honest =
          let first_k = Array.to_list (Array.sub probe_pts 0 k) in
          (* One evaluator for the probe subset, shared across all m
             support checks: O(k) per point instead of a fresh O(k²)
             Lagrange sum with per-term divisions. *)
          let eval_first_k = P.evaluator first_k in
          let unanimous =
            Array.for_all (fun (x, y) -> F.equal (eval_first_k x) y) probe_pts
          in
          if unanimous then Some (Array.init m (fun i -> i))
          else
            match best_codeword ~threshold probe_pts with
            | None -> None
            | Some eval ->
              let fit = ref [] in
              Array.iteri
                (fun i (x, y) -> if F.equal (eval x) y then fit := i :: !fit)
                probe_pts;
              Some (Array.of_list (List.rev !fit))
        in
        match honest with
        | None -> None
        | Some fit when Array.length fit < k -> None
        | Some fit ->
          (* Two verification subsets: a holder lying only on later words
             is caught when the subsets disagree, triggering a per-word
             Berlekamp–Welch decode. *)
          let nfit = Array.length fit in
          let sub_a = Array.sub fit 0 k in
          let sub_b = Array.sub fit (nfit - k) k in
          let xs_of sub = Array.map (fun i -> xs.(i)) sub in
          let same_subsets = nfit = k in
          let w_a = weights_at_zero (xs_of sub_a) in
          (* The second subset only matters when it differs from the
             first; its weights go unused otherwise. *)
          let w_b = if same_subsets then w_a else weights_at_zero (xs_of sub_b) in
          (* Weighted sum straight out of the holder vectors — no per-word
             value array. *)
          let dot_sub weights sub w =
            let acc = ref F.zero in
            for i = 0 to k - 1 do
              acc := F.add !acc (F.mul weights.(i) vs.(sub.(i)).(w))
            done;
            !acc
          in
          let out = Array.make words F.zero in
          let ok = ref true in
          for w = 0 to words - 1 do
            if !ok then begin
              let va = dot_sub w_a sub_a w in
              let agreed = same_subsets || F.equal va (dot_sub w_b sub_b w) in
              if agreed then out.(w) <- va
              else begin
                let pts = Array.map2 (fun x v -> (point x, v.(w))) xs vs in
                match best_codeword ~threshold pts with
                | Some eval -> out.(w) <- eval F.zero
                | None -> ok := false
              end
            end
          done;
          if !ok then Some out else None
      end
    end

  (* Detection hook for graceful degradation: callers that can retry or
     report (Ks_core.Comm, the fault experiments) count failed decodes
     where they happen instead of silently losing them. *)
  let reconstruct_vectors ?failures ~threshold holders =
    match reconstruct_vectors ~threshold holders with
    | Some _ as s -> s
    | None ->
      (match failures with Some r -> incr r | None -> ());
      None
end

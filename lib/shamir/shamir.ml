module Make (F : Ks_field.Field_intf.S) = struct
  module P = Ks_field.Poly.Make (F)
  module L = Ks_field.Linalg.Make (F)

  type share = { index : int; value : F.t }

  let point index = F.of_int (index + 1)

  let deal rng ~threshold ~holders secret =
    if threshold < 0 then invalid_arg "Shamir.deal: negative threshold";
    if holders <= threshold then invalid_arg "Shamir.deal: holders <= threshold";
    if holders >= F.order - 1 then invalid_arg "Shamir.deal: too many holders for field";
    let poly = P.random rng ~degree:threshold ~const:secret in
    Array.init holders (fun index -> { index; value = P.eval poly (point index) })

  let deal_at rng ~threshold ~xs secret =
    if threshold < 0 then invalid_arg "Shamir.deal_at: negative threshold";
    let holders = Array.length xs in
    if holders <= threshold then invalid_arg "Shamir.deal_at: holders <= threshold";
    Array.iter (fun x -> if x < 0 then invalid_arg "Shamir.deal_at: negative x") xs;
    let poly = P.random rng ~degree:threshold ~const:secret in
    Array.map (fun index -> { index; value = P.eval poly (point index) }) xs

  (* Keep one share per distinct index, in first-seen order.  Protocol
     indices are small, so a one-word bitmask usually replaces the
     hashtable; the hashtable remains for out-of-range indices. *)
  let dedup shares =
    if List.for_all (fun s -> s.index >= 0 && s.index < 63) shares then begin
      let seen = ref 0 in
      List.filter
        (fun s ->
          let bit = 1 lsl s.index in
          if !seen land bit <> 0 then false
          else begin
            seen := !seen lor bit;
            true
          end)
        shares
    end
    else begin
      let seen = Hashtbl.create 16 in
      List.filter
        (fun s ->
          if Hashtbl.mem seen s.index then false
          else begin
            Hashtbl.add seen s.index ();
            true
          end)
        shares
    end

  let reconstruct ~threshold shares =
    let shares = dedup shares in
    if List.length shares < threshold + 1 then None
    else begin
      let chosen = List.filteri (fun i _ -> i <= threshold) shares in
      let pts = List.map (fun s -> (point s.index, s.value)) chosen in
      Some (P.lagrange_eval pts F.zero)
    end

  (* Berlekamp–Welch: find E monic of degree e and Q of degree <= t + e
     with Q(x_i) = y_i * E(x_i) for all i; then the message polynomial is
     Q / E.  One solve, at e = e_max = (m - k) / 2, decides for every e:

     - Let a codeword g lie within distance t <= e_max of the points.  At
       e = e_max every solution of the key equation has Q = g·E: Q - g·E
       has degree <= k - 1 + e_max and vanishes at the m - t matching
       points, and m - t - (k - 1) > e_max because 2·e_max <= m - k.  A
       solution exists (E vanishing on the errors), so the single solve
       returns g.
     - Any polynomial a smaller e could accept has at least m - e_max
       matches (the acceptance test below demands that many at every e),
       so it is such a g.
     - So a failure at e_max proves that every smaller e fails too, and
       a success returns what a downward search from e_max would. *)
  let berlekamp_welch_poly ~threshold pts =
    let m = Array.length pts in
    let k = threshold + 1 in
    if m < k then None
    else begin
      let e = (m - k) / 2 in
      let matches poly =
        Array.fold_left
          (fun acc (x, y) -> if F.equal (P.eval poly x) y then acc + 1 else acc)
          0 pts
      in
      (* Unknowns: q_0..q_{k-1+e}, e_0..e_{e-1}; E = X^e + sum e_j X^j.
         Rows are built with running powers — per-entry [F.pow] would
         redo a square-and-multiply ladder for every cell. *)
      let nq = k + e in
      let ncols = nq + e in
      let a =
        Array.init m (fun i ->
            let x, y = pts.(i) in
            let row = Array.make ncols F.zero in
            let xp = ref F.one in
            for c = 0 to nq - 1 do
              row.(c) <- !xp;
              xp := F.mul !xp x
            done;
            let xp = ref F.one in
            for c = nq to ncols - 1 do
              row.(c) <- F.neg (F.mul y !xp);
              xp := F.mul !xp x
            done;
            row)
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
        else if
          (* Accept only with at least one redundant matching point:
             k points always fit a degree-(k-1) polynomial, so an
             exactly-k fit carries no evidence.  Rejecting it turns
             undetectable corruption into an erasure, which the
             protocol's majority layers absorb. *)
          matches quot >= Stdlib.max (k + 1) (m - e)
        then Some quot
        else None
    end

  (* Maximum-likelihood list decoding: gather candidate polynomials from
     every cyclic window of k consecutive points (a window is clean with
     good probability when errors are scattered) plus the Berlekamp–Welch
     decode, score each candidate by how many points it explains, and
     accept the uniquely best-supported codeword with at least k + 1
     supporters.  This decodes far beyond the half-distance radius when
     corruption is uncoordinated, yet a coordinated wrong codeword must
     out-support the truth to win — impossible while honest pieces hold a
     majority — and an exact tie yields None rather than a guess.

     The accepted codeword is returned as an evaluation closure rather
     than a coefficient vector: every caller only ever evaluates it (at
     zero, or at the holder points), so only the accepted window's
     barycentric evaluator is ever built. *)
  let best_codeword ~threshold pts =
    let m = Array.length pts in
    let k = threshold + 1 in
    if m < k + 1 then None
    else if m > 62 then
      (* Bitmask support sets need m to fit an int; fall back to plain
         Berlekamp–Welch for very wide deals (not used by the protocol). *)
      Option.map P.eval (berlekamp_welch_poly ~threshold pts)
    else begin
      let e_max = (m - k) / 2 in
      (* Within the classical radius the codeword is unique — accept
         immediately. *)
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
      (* inv.(i * m + j) = 1 / (x_i - x_j) for i <> j: one batch inversion
         over the upper triangle; the lower triangle is its negation. *)
      let inv =
        let diffs = Array.make (m * (m - 1) / 2) F.one in
        let c = ref 0 in
        for i = 0 to m - 1 do
          for j = i + 1 to m - 1 do
            diffs.(!c) <- F.sub (fst pts.(i)) (fst pts.(j));
            incr c
          done
        done;
        let invs = P.batch_inv diffs in
        let inv = Array.make (m * m) F.zero in
        let c = ref 0 in
        for i = 0 to m - 1 do
          for j = i + 1 to m - 1 do
            inv.((i * m) + j) <- invs.(!c);
            inv.((j * m) + i) <- F.neg invs.(!c);
            incr c
          done
        done;
        inv
      in
      (* Support of the polynomial f through window W (indices [idx], mask
         [wmask]), by the divided-difference test: with
         c_a = y_a · Π_{b≠a} inv(x_a − x_b), f(x_p) = y_p exactly when
         Σ_a c_a · inv(x_p − x_a) = y_p · Π_a inv(x_p − x_a).  The points
         of W lie on f by construction, so only points outside W are
         tested — no inversion, no evaluator, O(k) per point. *)
      let idx = Array.make k 0 and cs = Array.make k F.zero in
      let score_window wmask =
        for a = 0 to k - 1 do
          let row = idx.(a) * m in
          let c = ref (snd pts.(idx.(a))) in
          for b = 0 to k - 1 do
            if b <> a then c := F.mul !c inv.(row + idx.(b))
          done;
          cs.(a) <- !c
        done;
        let mask = ref wmask and count = ref k in
        for p = 0 to m - 1 do
          if wmask land (1 lsl p) = 0 then begin
            let row = p * m in
            let sum = ref F.zero and prod = ref F.one in
            for a = 0 to k - 1 do
              let v = inv.(row + idx.(a)) in
              sum := F.add !sum (F.mul cs.(a) v);
              prod := F.mul !prod v
            done;
            if F.equal !sum (F.mul (snd pts.(p)) !prod) then begin
              mask := !mask lor (1 lsl p);
              incr count
            end
          end
        done;
        (!mask, !count)
      in
      let evaluator_of_mask mask =
        (* The codeword through the first k points of a support set. *)
        let pts_of_mask =
          List.filteri (fun i _ -> mask land (1 lsl i) <> 0) (Array.to_list pts)
        in
        P.evaluator (List.filteri (fun i _ -> i < k) pts_of_mask)
      in
      (* Candidate subsets: cyclic windows at several strides — each is
         clean (error-free) with decent probability when errors are
         scattered, and different strides decorrelate the windows.  A
         stride works only when its orbit is long enough for k distinct
         indices. *)
      let strides =
        let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
        List.filter (fun s -> s < m && m / gcd s m >= k) [ 1; 3; 7; 11; 13 ]
      in
      (* Track the two best distinct codewords (a support mask of >= k+1
         points identifies a codeword uniquely). *)
      let best = ref (0, 0) and second_count = ref 0 in
      let winner = ref None in
      (* Support masks of codewords already scored.  A window lying wholly
         inside a scored codeword's support interpolates that very
         codeword (k points pin a degree-(k-1) polynomial), and re-scoring
         a codeword never changes the best/second tracking — so skip it.
         Distinct strides rediscover the same windows constantly.  Windows
         are generated lazily, stride by stride in scan order: the mask
         check runs before the window is scored, and an in-radius
         acceptance stops the sweep immediately. *)
      let seen = ref [] in
      let stopped = ref false in
      List.iter
        (fun s ->
          let start = ref 0 in
          while (not !stopped) && !start < m do
            let wmask = ref 0 in
            for j = 0 to k - 1 do
              wmask := !wmask lor (1 lsl ((!start + (j * s)) mod m))
            done;
            let wmask = !wmask in
            if not (List.exists (fun msk -> msk lor wmask = msk) !seen) then begin
              for j = 0 to k - 1 do
                idx.(j) <- (!start + (j * s)) mod m
              done;
              let mask, count = score_window wmask in
              if count >= radius_accept then begin
                winner := Some mask;
                stopped := true
              end
              else begin
                seen := mask :: !seen;
                let bmask, bcount = !best in
                if mask <> bmask then begin
                  if count > bcount then begin
                    if bcount > !second_count then second_count := bcount;
                    best := (mask, count)
                  end
                  else if count > !second_count then second_count := count
                end
              end
            end;
            incr start
          done)
        strides;
      match !winner with
      | Some mask -> Some (evaluator_of_mask mask)
      | None ->
        (* Berlekamp–Welch as a last candidate, then the tie rule. *)
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
           if count >= k + 1 && count > bcount then Some (P.eval poly) else None
         | _ ->
           if bcount >= k + 1 && bcount > !second_count then
             Some (evaluator_of_mask bmask)
           else None)
    end

  let reconstruct_robust ~threshold shares =
    let shares = dedup shares in
    let pts = Array.of_list (List.map (fun s -> (point s.index, s.value)) shares) in
    Option.map (fun eval -> eval F.zero) (best_codeword ~threshold pts)

  let deal_vector rng ~threshold ~holders words =
    let per_word = Array.map (fun w -> deal rng ~threshold ~holders w) words in
    (* Transpose: per_word.(w).(h) -> per_holder.(h).(w). *)
    Array.init holders (fun h -> Array.map (fun shares -> shares.(h)) per_word)

  let deal_vector_at rng ~threshold ~xs words =
    let per_word = Array.map (fun w -> deal_at rng ~threshold ~xs w) words in
    Array.init (Array.length xs) (fun h ->
        Array.map (fun shares -> shares.(h).value) per_word)

  let reconstruct_with f ~threshold per_word =
    let out = Array.map (fun shares -> f ~threshold shares) per_word in
    if Array.for_all Option.is_some out then Some (Array.map Option.get out) else None

  let reconstruct_vector ~threshold per_word =
    reconstruct_with reconstruct ~threshold per_word

  let reconstruct_vector_robust ~threshold per_word =
    reconstruct_with reconstruct_robust ~threshold per_word

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
          (* The first k points lie on their own interpolant: probe the
             rest. *)
          let rec unanimous p =
            p >= m
            ||
            let x, y = probe_pts.(p) in
            F.equal (eval_first_k x) y && unanimous (p + 1)
          in
          if unanimous k then Some (Array.init m (fun i -> i))
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

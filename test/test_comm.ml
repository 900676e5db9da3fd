module Comm = Ks_core.Comm
module Params = Ks_core.Params
module Tree = Ks_topology.Tree
module Prng = Ks_stdx.Prng

let static_strategy budget =
  Ks_sim.Adversary.make ~name:"static"
    ~initial_corruptions:(fun rng ~n ~budget:b ->
      Ks_sim.Adversary.uniform_random_set rng ~n ~budget:(Stdlib.min budget b))
    ()

let setup ?(n = 64) ?(budget = 0) ?(behavior = Comm.Follow) ?(words = 5) () =
  let params = Params.practical n in
  let tree = Tree.build (Prng.create 31L) (Params.tree_config params) in
  let comm =
    Comm.create ~params ~tree ~seed:11L ~behavior ~strategy:(static_strategy budget)
      ~budget ()
  in
  let arrays = Array.init n (fun i -> Array.init words (fun w -> (1000 * (w + 1)) + i)) in
  (params, tree, comm, arrays)

let test_structure_shape () =
  let _, tree, comm, _ = setup () in
  let s = Comm.structure comm in
  let k1 = Tree.node_size tree ~level:1 in
  Alcotest.(check int) "level1 count = k1" k1 (Comm.Structure.count s ~level:1);
  for inst = 0 to k1 - 1 do
    Alcotest.(check int) "level1 pos = id" inst (Comm.Structure.pos s ~level:1 ~inst);
    Alcotest.(check int) "level1 no parent" (-1) (Comm.Structure.parent s ~level:1 ~inst)
  done;
  (* Children/parents are mutually consistent. *)
  for level = 1 to Tree.levels tree - 1 do
    for inst = 0 to Comm.Structure.count s ~level - 1 do
      Array.iter
        (fun child ->
          Alcotest.(check int) "parent pointer" inst
            (Comm.Structure.parent s ~level:(level + 1) ~inst:child))
        (Comm.Structure.children s ~level ~inst)
    done
  done

let test_structure_positions_consistent () =
  let _, tree, comm, _ = setup () in
  let s = Comm.structure comm in
  for level = 1 to Tree.levels tree do
    let size = Tree.node_size tree ~level in
    let total = ref 0 in
    for pos = 0 to size - 1 do
      let insts = Comm.Structure.at_position s ~level ~pos in
      total := !total + Array.length insts;
      Array.iter
        (fun inst ->
          Alcotest.(check int) "at_position inverse" pos
            (Comm.Structure.pos s ~level ~inst))
        insts
    done;
    Alcotest.(check int) "all instances bucketed"
      (Comm.Structure.count s ~level) !total
  done

let test_structure_counts_multiply () =
  (* Each reshare splits every instance among its holder's uplinks, so
     counts multiply by the (uniform) uplink degree per level. *)
  let _, tree, comm, _ = setup () in
  let s = Comm.structure comm in
  for level = 1 to Tree.levels tree - 1 do
    let d = Array.length (Tree.uplinks tree ~level ~member:0) in
    Alcotest.(check int)
      (Printf.sprintf "count(%d) = count(%d) * d" (level + 1) level)
      (Comm.Structure.count s ~level * d)
      (Comm.Structure.count s ~level:(level + 1))
  done

let test_deal_places_shares () =
  let _, _, comm, arrays = setup () in
  Comm.deal_all comm ~arrays;
  Alcotest.(check (option int)) "live at level 1" (Some 1) (Comm.level_of comm ~cand:0);
  (* Every instance of every candidate holds a value (no corruption). *)
  let s = Comm.structure comm in
  let k1 = Comm.Structure.count s ~level:1 in
  for c = 0 to 7 do
    for inst = 0 to k1 - 1 do
      Alcotest.(check bool) "share held" true
        (Comm.held_value comm ~cand:c ~inst <> None)
    done
  done

let test_reshare_moves_level () =
  let _, _, comm, arrays = setup () in
  Comm.deal_all comm ~arrays;
  let all = List.init 64 (fun i -> i) in
  Comm.reshare_up comm ~cands:all ~drop:[];
  Alcotest.(check (option int)) "level 2" (Some 2) (Comm.level_of comm ~cand:0)

let test_drop_erases () =
  let _, _, comm, arrays = setup () in
  Comm.deal_all comm ~arrays;
  let keep = List.init 32 (fun i -> i) in
  let drop = List.init 32 (fun i -> 32 + i) in
  Comm.reshare_up comm ~cands:keep ~drop;
  Alcotest.(check (option int)) "dropped is gone" None (Comm.level_of comm ~cand:40);
  Alcotest.(check (option int)) "kept is live" (Some 2) (Comm.level_of comm ~cand:0)

let climb comm tree cands =
  let rec go level =
    if level < Tree.levels tree then begin
      Comm.reshare_up comm ~cands ~drop:[];
      go (level + 1)
    end
  in
  go 2

let open_and_check ~n ~budget ~behavior ~expect_all =
  let params, tree, comm, arrays = setup ~n ~budget ~behavior () in
  ignore params;
  Comm.deal_all comm ~arrays;
  let all = List.init n (fun i -> i) in
  Comm.reshare_up comm ~cands:all ~drop:[];
  climb comm tree all;
  let levels = Tree.levels tree in
  let net = Comm.net comm in
  (* Only good dealers' arrays are expected to open (a corrupt dealer may
     have dealt garbage or nothing). *)
  let cands =
    List.filteri (fun i _ -> i < 3)
      (List.filter (fun c -> not (Ks_sim.Net.is_corrupt net c)) all)
  in
  let view =
    Comm.open_ranges_view comm ~level:levels
      ~ranges:(List.map (fun c -> (c, 1, 2)) cands)
  in
  List.iter
    (fun c ->
      let correct = ref 0 and total = ref 0 in
      for p = 0 to n - 1 do
        if not (Ks_sim.Net.is_corrupt net p) then begin
          incr total;
          match view ~cand:c ~member:p with
          | Some w
            when Array.length w = 2 && w.(0) = 2000 + c && w.(1) = 3000 + c ->
            incr correct
          | Some _ | None -> ()
        end
      done;
      if expect_all then
        Alcotest.(check int) (Printf.sprintf "cand %d all correct" c) !total !correct
      else
        Alcotest.(check bool)
          (Printf.sprintf "cand %d mostly correct (%d/%d)" c !correct !total)
          true
          (float_of_int !correct >= 0.85 *. float_of_int !total))
    cands

let test_open_honest () = open_and_check ~n:64 ~budget:0 ~behavior:Comm.Follow ~expect_all:true

let test_open_crash_20 () =
  open_and_check ~n:64 ~budget:12 ~behavior:Comm.Silent ~expect_all:false

let test_open_garbage_25 () =
  open_and_check ~n:64 ~budget:16 ~behavior:Comm.Garbage ~expect_all:false

(* The flood regime's decode path, pinned: the shape of the benchmark's
   [comm.*.garbage] probe (n = 64, the byzantine-static preset's 25%
   Garbage dealers) runs deal_all, reshare_up and one election's
   open_ranges_view on the first level-2 node.  The decode-failure count
   and a digest of every opened view are constants: a decoder change
   that moves any verdict or opened value moves them. *)
let test_flood_decode_pinned () =
  let module Attacks = Ks_workload.Attacks in
  let module Layout = Ks_core.Ae_ba.Layout in
  let n = 64 in
  let scenario = Attacks.byzantine_static in
  let params = Params.practical n in
  let tree = Tree.build (Prng.create 31L) (Params.tree_config params) in
  let comm =
    Comm.create ~params ~tree ~seed:11L ~behavior:scenario.Attacks.behavior
      ~strategy:(Attacks.generic_strategy scenario ~params)
      ~budget:(Attacks.budget_of scenario ~params) ()
  in
  let layout = Layout.make params tree in
  let rng = Prng.create 12L in
  let arrays =
    Array.init n (fun _ ->
        Array.init layout.Layout.total (fun _ -> Ks_field.Zp.random rng))
  in
  Comm.deal_all comm ~arrays;
  Comm.reshare_up comm ~cands:(List.init n (fun c -> c)) ~drop:[];
  let cands = Tree.children tree ~level:2 ~node:0 in
  let view =
    Comm.open_ranges_view comm ~level:2
      ~ranges:(List.map (fun c -> (c, layout.Layout.block_off.(2), 1)) cands)
  in
  let buf = Buffer.create 4096 and opened = ref 0 in
  List.iter
    (fun cand ->
      for member = 0 to Tree.node_size tree ~level:2 - 1 do
        match view ~cand ~member with
        | None -> Buffer.add_string buf "-;"
        | Some ws ->
          incr opened;
          Array.iter (fun w -> Buffer.add_string buf (string_of_int w ^ ",")) ws;
          Buffer.add_char buf ';'
      done)
    cands;
  let digest = Digest.to_hex (Digest.string (Buffer.contents buf)) in
  Alcotest.(check int) "decode failures" 332 (Comm.decode_failures comm);
  Alcotest.(check int) "opened views" 120 !opened;
  Alcotest.(check string) "opened views digest" "191e4b233df41d924b99eaba64f39c94" digest

let test_secrecy_before_open () =
  (* Lemma 3(1): until a secret is sent down, an adversary holding every
     share visible to < 1/3 of each node learns nothing.  We check the
     mechanical precondition: no single processor's held values determine
     the secret — each instance value is a share under a threshold > 0. *)
  let _, _, comm, arrays = setup ~n:64 () in
  Comm.deal_all comm ~arrays;
  let s = Comm.structure comm in
  let k1 = Comm.Structure.count s ~level:1 in
  (* Values held are shares, not the secret itself. *)
  let cand = 3 in
  let secret_word = arrays.(cand).(0) in
  let leaks = ref 0 in
  for inst = 0 to k1 - 1 do
    match Comm.held_value comm ~cand ~inst with
    | Some w when w.(0) = secret_word -> incr leaks
    | Some _ | None -> ()
  done;
  (* A random share collides with the secret with probability ~2^-31. *)
  Alcotest.(check int) "no share equals the secret" 0 !leaks

let test_erasure_after_reshare () =
  (* After sendSecretUp the lower level is erased: corrupting a level-1
     holder afterwards must not yield level-1 share values.  We model the
     check through level_of/held_value: the candidate state no longer
     holds level-1 instances. *)
  let _, _, comm, arrays = setup ~n:64 () in
  Comm.deal_all comm ~arrays;
  let v_before = Comm.held_value comm ~cand:0 ~inst:0 in
  Alcotest.(check bool) "held before" true (v_before <> None);
  Comm.reshare_up comm ~cands:(List.init 64 (fun i -> i)) ~drop:[];
  (* Instance 0 now refers to level-2 numbering; the level-1 share values
     are gone from the store entirely (the array was replaced). *)
  Alcotest.(check (option int)) "live level moved" (Some 2) (Comm.level_of comm ~cand:0)

let test_open_rejects_bad_ranges () =
  let _, _, comm, arrays = setup ~n:64 () in
  Comm.deal_all comm ~arrays;
  let discard view =
    ignore (view : cand:int -> member:int -> Comm.word array option)
  in
  Alcotest.check_raises "wrong level"
    (Invalid_argument "Comm.open_ranges_view: candidate not live at this level")
    (fun () -> discard (Comm.open_ranges_view comm ~level:3 ~ranges:[ (0, 0, 1) ]));
  Comm.reshare_up comm ~cands:(List.init 64 (fun i -> i)) ~drop:[];
  Alcotest.check_raises "range out of bounds"
    (Invalid_argument "Comm.open_ranges_view: bad range") (fun () ->
      discard (Comm.open_ranges_view comm ~level:2 ~ranges:[ (0, 4, 3) ]))

let sample_payloads =
  [
    Comm.Deal { cand = 0; inst = 3; words = [| 1; 2147483646; 7 |] };
    Comm.Share_up { cand = 300; inst = 12345; words = [||] };
    Comm.Share_down
      { cand = 5; level = 3; node = 17; inst = 999; off = 2; words = [| 42 |] };
    Comm.Leaf_val { cand = 1; leaf = 63; inst = 9; off = 0; words = [| 0; 0 |] };
    Comm.Open_val { cand = 2; leaf = 0; off = 30; words = [| 123456789 |] };
    Comm.Vote { level = 2; node = 4; ba = 11; vote = true };
    Comm.Votes { level = 3; node = 0; packed = Bytes.of_string "\x0f\xf0" };
  ]

let test_codec_roundtrip () =
  List.iter
    (fun payload ->
      match Comm.decode_payload (Comm.encode_payload payload) with
      | Ok decoded -> Alcotest.(check bool) "roundtrip" true (decoded = payload)
      | Error e -> Alcotest.fail (Ks_stdx.Wire.invalid_to_string e))
    sample_payloads

let test_codec_length_exact () =
  List.iter
    (fun payload ->
      Alcotest.(check int) "encoded_length = |encode|"
        (Bytes.length (Comm.encode_payload payload))
        (Comm.encoded_length payload))
    sample_payloads

let test_codec_rejects_garbage () =
  Alcotest.(check bool) "bad tag" true
    (Comm.decode_payload (Bytes.of_string "\xff\x01") = Error (Ks_stdx.Wire.Bad_tag 0xff));
  Alcotest.(check bool) "trailing junk" true
    (Comm.decode_payload
       (Bytes.cat (Comm.encode_payload (Comm.Vote { level = 1; node = 0; ba = 0; vote = false }))
          (Bytes.of_string "x"))
     = Error (Ks_stdx.Wire.Trailing 1));
  Alcotest.(check bool) "empty" true
    (Comm.decode_payload Bytes.empty = Error Ks_stdx.Wire.Truncated)

let () =
  Alcotest.run "comm"
    [
      ( "structure",
        [
          Alcotest.test_case "shape" `Quick test_structure_shape;
          Alcotest.test_case "positions" `Quick test_structure_positions_consistent;
          Alcotest.test_case "counts multiply" `Quick test_structure_counts_multiply;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "deal places shares" `Quick test_deal_places_shares;
          Alcotest.test_case "reshare moves level" `Quick test_reshare_moves_level;
          Alcotest.test_case "drop erases" `Quick test_drop_erases;
          Alcotest.test_case "secrecy before open" `Quick test_secrecy_before_open;
          Alcotest.test_case "erasure after reshare" `Quick test_erasure_after_reshare;
          Alcotest.test_case "bad ranges" `Quick test_open_rejects_bad_ranges;
        ] );
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "length exact" `Quick test_codec_length_exact;
          Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage;
        ] );
      ( "open",
        [
          Alcotest.test_case "honest" `Slow test_open_honest;
          Alcotest.test_case "crash 20%" `Slow test_open_crash_20;
          Alcotest.test_case "garbage 25%" `Slow test_open_garbage_25;
          Alcotest.test_case "flood decode verdicts pinned" `Quick
            test_flood_decode_pinned;
        ] );
    ]

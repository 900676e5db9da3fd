(* Serializable fault plans.  A plan is a small record of benign-fault
   rates; the canonical string form is a comma-separated key=value list
   so a plan travels unchanged through CLI flags, experiment-table
   captions and trace headers.  Faults drawn from a plan never consume
   the adversary's corruption budget: they model the network being bad,
   not the adversary being clever. *)

type t = {
  seed : int64;
  drop : float;
  dup : float;
  crash : float;
  recover : float;
  max_down : int;
  silence : float;
  silence_len : int;
}

let none =
  {
    seed = 1L;
    drop = 0.;
    dup = 0.;
    crash = 0.;
    recover = 0.25;
    max_down = 0;
    silence = 0.;
    silence_len = 1;
  }

let is_trivial t = t.drop = 0. && t.dup = 0. && t.crash = 0. && t.silence = 0.

let to_string t =
  Printf.sprintf
    "seed=%Ld,drop=%g,dup=%g,crash=%g,recover=%g,max_down=%d,silence=%g,silence_len=%d"
    t.seed t.drop t.dup t.crash t.recover t.max_down t.silence t.silence_len

let of_string s =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let parse_float k v =
    match float_of_string_opt v with
    | Some f when f >= 0. && f <= 1. -> Ok f
    | Some _ -> err "fault plan: %s=%s is not a probability in [0,1]" k v
    | None -> err "fault plan: %s=%s is not a number" k v
  in
  let parse_int k v =
    match int_of_string_opt v with
    | Some i when i >= 0 -> Ok i
    | _ -> err "fault plan: %s=%s is not a non-negative integer" k v
  in
  let fields =
    String.split_on_char ',' s
    |> List.filter (fun f -> String.trim f <> "")
    |> List.map String.trim
  in
  let step acc field =
    match acc with
    | Error _ as e -> e
    | Ok t -> (
      match String.index_opt field '=' with
      | None -> err "fault plan: expected key=value, got %S" field
      | Some i -> (
        let k = String.sub field 0 i in
        let v = String.sub field (i + 1) (String.length field - i - 1) in
        match k with
        | "seed" -> (
          match Int64.of_string_opt v with
          | Some seed -> Ok { t with seed }
          | None -> err "fault plan: seed=%s is not an integer" v)
        | "drop" -> Result.map (fun drop -> { t with drop }) (parse_float k v)
        | "dup" -> Result.map (fun dup -> { t with dup }) (parse_float k v)
        | "crash" -> Result.map (fun crash -> { t with crash }) (parse_float k v)
        | "recover" ->
          Result.map (fun recover -> { t with recover }) (parse_float k v)
        | "max_down" ->
          Result.map (fun max_down -> { t with max_down }) (parse_int k v)
        | "silence" ->
          Result.map (fun silence -> { t with silence }) (parse_float k v)
        | "silence_len" -> (
          match int_of_string_opt v with
          | Some i when i >= 1 -> Ok { t with silence_len = i }
          | _ -> err "fault plan: silence_len=%s is not a positive integer" v)
        | _ -> err "fault plan: unknown key %S" k))
  in
  List.fold_left step (Ok none) fields

(* Named presets for the CLI ([ba_sim --faults NAME], --list-faults).
   T16 reads the first three as its faulted rows, so a table cell can be
   reproduced from the command line verbatim. *)
let presets =
  let plan s = match of_string s with Ok p -> p | Error e -> invalid_arg e in
  [
    ("lossy", plan "seed=21,drop=0.02", "2% omission on every delivery");
    ( "choppy",
      plan "seed=22,drop=0.05,dup=0.02",
      "5% omission plus 2% duplication" );
    ( "churn",
      plan "seed=23,crash=0.02,recover=0.25,max_down=8",
      "2%/round crashes, 25%/round recovery, at most 8 down" );
    ( "flaky",
      plan "seed=24,silence=0.05,silence_len=3",
      "5%/round chance of a 3-round silence window per processor" );
  ]

let of_string_or_preset s =
  match List.find_opt (fun (name, _, _) -> String.equal name s) presets with
  | Some (_, p, _) -> Ok p
  | None -> of_string s

(* Ambient plan, mirroring Ks_monitor.Hub: every network reads the
   ambient plan once, when it is created (through [Ks_sim.Tap]), so a
   single [with_plan] around a run covers every net the run creates
   (tree, a2e, baselines) without threading a parameter through each
   layer.  It is the only way to fault a network. *)

let current : t option ref = ref None
let ambient () = !current

let with_plan t f =
  let prev = !current in
  current := Some t;
  Fun.protect ~finally:(fun () -> current := prev) f

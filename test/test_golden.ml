(* Golden traces for both networks: two small seeded runs whose whole
   event stream — run start, corruptions, rounds, sends, benign faults,
   quarantine, decisions and the meter snapshot — is compared byte for
   byte against the JSONL committed next to this file.

   The runs attach their hub and fault plan the ambient way
   ([Hub.with_ambient] + [Plan.with_plan]), so the reference does not
   depend on how a network wires its instrumentation internally.

   To re-record after a deliberate change to the event stream:
     GOLDEN_RECORD=test dune exec test/test_golden.exe
   writes golden_net.jsonl and golden_async.jsonl into the named
   directory; review the diff before committing it. *)

module Hub = Ks_monitor.Hub
module Trace = Ks_monitor.Trace
module Plan = Ks_faults.Plan
module Net = Ks_sim.Net
module Anet = Ks_async.Async_net
open Ks_sim.Types

let plan s = match Plan.of_string s with Ok p -> p | Error e -> invalid_arg e

let traced plan_ f =
  let sink = Trace.ring ~capacity:20_000 in
  let hub = Hub.create ~trace:sink ~close_trace:false [] in
  Hub.with_ambient hub (fun () -> Plan.with_plan plan_ f);
  ignore (Hub.finish hub);
  Trace.render (Trace.contents sink)

(* (a) Synchronous net, n=10: all-to-all traffic for six rounds under a
   creeping adversary (one new corruption per round, budget 3) that
   rushes — it forwards what it reads on its processors' channels and
   adds one message of its own per corrupted processor — and a plan with
   omission, duplication, crash/recover churn and silence windows. *)
let net_trace () =
  let n = 10 and rounds = 6 in
  let strategy =
    Ks_sim.Adversary.make ~name:"creep-rush"
      ~initial_corruptions:(fun _ ~n:_ ~budget:_ -> [ 7 ])
      ~adapt:(fun v ->
        if v.view_budget_left > 0 then [ Ks_stdx.Prng.int v.view_rng v.view_n ]
        else [])
      ~act:(fun v ->
        let forwarded =
          List.map
            (fun e -> { src = e.dst; dst = (e.src + 1) mod v.view_n; payload = e.payload })
            v.view_visible
        in
        let own =
          List.map
            (fun p -> { src = p; dst = (p + v.view_round) mod v.view_n; payload = 50 + p })
            v.view_corrupt
        in
        forwarded @ own)
      ()
  in
  traced
    (plan "seed=9,drop=0.15,dup=0.1,crash=0.1,recover=0.5,silence=0.1,silence_len=2")
    (fun () ->
      let net =
        Net.create ~label:"golden" ~seed:21L ~n ~budget:3
          ~msg_bits:(fun p -> 1 + (p mod 13))
          ~strategy ()
      in
      for r = 0 to rounds - 1 do
        let msgs =
          List.concat_map
            (fun src ->
              List.filter_map
                (fun dst ->
                  if src = dst then None else Some { src; dst; payload = (r * n) + src })
                (List.init n Fun.id))
            (List.init n Fun.id)
        in
        ignore (Net.exchange net msgs);
        if r = 2 then
          Net.quarantine net ~accuser:0 ~offender:7 ~evidence:"wrong_length" ~info:5
      done;
      List.iter (fun p -> Net.decide net p (p mod 2)) (Net.good_procs net);
      Net.emit_meter net)

(* (b) Asynchronous net, n=8, processor 3 corrupt: a gossip cascade run
   to quiescence under omission and duplication.  The corrupt processor
   answers with a fixed-price message of its own. *)
let async_trace () =
  let n = 8 and corrupt = 3 in
  traced (plan "seed=4,drop=0.1,dup=0.1") (fun () ->
      let net =
        Anet.create ~label:"golden-async" ~seed:13L ~n ~corrupt:[ corrupt ]
          ~msg_bits:(fun p -> 2 + (p mod 5))
          ~scheduler:Anet.Fair ()
      in
      Anet.send net
        (List.init n (fun p -> { src = p; dst = (p + 1) mod n; payload = 3 }));
      ignore
        (Anet.run net ~max_events:10_000 ~handler:(fun ~me e ->
             if me = corrupt then
               [ { src = me; dst = (e.src + 2) mod n; payload = 0 } ]
             else if e.payload > 0 then
               [
                 { src = me; dst = (me + 1) mod n; payload = e.payload - 1 };
                 { src = me; dst = (me + 3) mod n; payload = e.payload - 1 };
               ]
             else []));
      for p = 0 to n - 1 do
        if not (Anet.is_corrupt net p) then Anet.decide net p (p mod 2)
      done;
      Anet.emit_meter net)

let cases = [ ("golden_net.jsonl", net_trace); ("golden_async.jsonl", async_trace) ]

let read path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let check (file, run) () =
  let got = run () in
  Alcotest.(check bool) "trace non-empty" true (String.length got > 0);
  Alcotest.(check string) file (read file) got

let () =
  match Sys.getenv_opt "GOLDEN_RECORD" with
  | Some dir ->
    List.iter
      (fun (file, run) ->
        let oc = open_out_bin (Filename.concat dir file) in
        output_string oc (run ());
        close_out oc)
      cases
  | None ->
    Alcotest.run "golden"
      [
        ( "trace",
          List.map
            (fun ((file, _) as c) -> Alcotest.test_case file `Quick (check c))
            cases );
      ]

(* Self-tests of the benchmark, at reduced sizes: the same seed gives
   bit-identical simulated metrics, tracing changes no simulated metric,
   crash points leave the forward run untouched, and a seed never used
   while the benchmark was written runs clean. *)

open Perfbench

let small w =
  { w.Bench.defaults with Measure.txns = 60; arena_mb = 32; checkpoint_every = 100 }

(* The workloads, with tpcc-crash taking a crash point every 150 requests
   so that the short runs above still hold a few. *)
let workloads =
  List.map
    (fun w ->
      if w.Bench.name = "tpcc-crash" then
        { w with Bench.run = Tpcc_workload.run ~crash_every:(Some 150) }
      else w)
    Bench.workloads

let simulated o =
  List.filter
    (fun x ->
      not (x.Measure.name = "setup_s" || String.starts_with ~prefix:"host_" x.Measure.name))
    o.Bench.e2e

let measure ?trace w seed = Bench.measure ~runs:2 ?trace w ~seed (small w)

let clean what o =
  Alcotest.(check (list string)) (what ^ ": no failures") []
    o.Bench.check.Check.errors;
  Alcotest.(check bool) (what ^ ": attempted") true (o.Bench.check.Check.attempted > 0)

let pp_metric ppf x = Fmt.pf ppf "%s=%h" x.Measure.name x.Measure.value
let metrics = Alcotest.(list (testable pp_metric ( = )))

let workload name = List.find (fun w -> w.Bench.name = name) workloads

let same_seed w () =
  let a = measure w 7 and b = measure w 7 in
  clean w.Bench.name a;
  Alcotest.check metrics "simulated metrics" (simulated a) (simulated b)

let traced_equals_untraced w () =
  let once spans = w.Bench.run (small w) ~seed:7 ~spans (Check.create ()) in
  let plain = once None and spans = Spans.create () in
  let traced = once (Some spans) in
  Alcotest.(check bool) "spans recorded" true (Spans.count spans > 0);
  Alcotest.(check bool) "simulated metrics identical" true
    (Bench.fingerprint plain = Bench.fingerprint traced);
  clean (w.Bench.name ^ " traced") (measure ~trace:true w 7)

let crash_points_leave_forward_run () =
  let mix = measure (workload "tpcc-mix") 7
  and crash = measure (workload "tpcc-crash") 7 in
  clean "tpcc-crash" crash;
  let forward o =
    List.filter
      (fun x -> not (String.starts_with ~prefix:"recovery_" x.Measure.name))
      (simulated o)
  in
  Alcotest.check metrics "forward metrics" (forward mix) (forward crash);
  let undone =
    List.exists
      (fun r ->
        List.exists
          (fun c -> c.Measure.report.Rewind.Tm.txns_undone > 0)
          r.Measure.crashes)
      crash.Bench.reps
  in
  Alcotest.(check bool) "some crash point undid a transaction" true undone

let held_out_seed w () = clean w.Bench.name (measure w 90210)

(* BENCHMARK.json declares exactly the workloads and metrics the benchmark
   reports, with the same units. *)
let declared_metrics () =
  let json = In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all in
  let contains sub =
    let n = String.length sub and m = String.length json in
    let rec go i = i + n <= m && (String.sub json i n = sub || go (i + 1)) in
    go 0
  in
  let count sub =
    let n = String.length sub in
    let rec go i acc =
      if i + n > String.length json then acc
      else go (i + 1) (if String.sub json i n = sub then acc + 1 else acc)
    in
    go 0 0
  in
  List.iter
    (fun w ->
      Alcotest.(check bool) ("workload " ^ w.Bench.name) true
        (contains (Printf.sprintf "{\"name\": %S, \"why\"" w.Bench.name)))
    Bench.workloads;
  List.iter
    (fun (name, unit_) ->
      Alcotest.(check bool) ("metric " ^ name) true
        (contains (Printf.sprintf "{\"name\": %S, \"unit\": %S," name unit_)))
    (Bench.e2e_spec @ Bench.layer_spec);
  Alcotest.(check int) "no other names"
    (List.length Bench.workloads + List.length Bench.e2e_spec
   + List.length Bench.layer_spec)
    (count "\"name\":")

let () =
  let each name f =
    List.map
      (fun w -> Alcotest.test_case (name ^ " " ^ w.Bench.name) `Quick (f w))
      workloads
  in
  Alcotest.run "perfbench"
    [
      ("determinism", each "same seed" same_seed);
      ("tracing", each "traced = untraced" traced_equals_untraced);
      ( "crash points",
        [ Alcotest.test_case "forward run unchanged" `Quick crash_points_leave_forward_run ] );
      ("held-out seed", each "seed 90210" held_out_seed);
      ("declaration", [ Alcotest.test_case "BENCHMARK.json" `Quick declared_metrics ]);
    ]

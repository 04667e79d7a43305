(* The benchmark command: run one workload, check it, and print every
   metric by name with its unit.

   The time budget fixes how many sub-runs a run makes (see
   [workload.cost_s]); each sub-run sets up afresh and runs the workload with
   a seed derived from the run's seed.  Simulated metrics pool the
   sub-runs, host metrics are medians over them.  With [--trace 1] the run
   is the first sub-run untraced and then traced: the traced one must
   reproduce the untraced simulated results bit for bit, supplies the
   per-layer metrics, and writes its spans to [.perfbench-out/]. *)

open Measure

type workload = {
  name : string;
  defaults : opts;
  cost_s : float;
      (** host seconds one sub-run takes on the 2-core x86-64 machine the
          benchmark was sized on; a budget of [seconds] makes
          [seconds / cost_s] sub-runs, so the same budget always does the
          same simulated work *)
  run : opts -> seed:int -> spans:Spans.t option -> Check.t -> rep;
  setup_only : opts -> float * float;
}

let workloads =
  [
    { name = "tpcc-mix"; defaults = Tpcc_workload.defaults; cost_s = 6.;
      run = Tpcc_workload.run ~crash_every:None;
      setup_only = Tpcc_workload.setup_only };
    { name = "kv-shared-log"; defaults = Kv_workload.defaults; cost_s = 1.5;
      run = Kv_workload.run; setup_only = Kv_workload.setup_only };
    { name = "tpcc-crash"; defaults = Tpcc_workload.defaults; cost_s = 15.;
      run = Tpcc_workload.run ~crash_every:(Some Tpcc_workload.crash_every);
      setup_only = Tpcc_workload.setup_only };
  ]

let sub_runs w ~seconds =
  max 1 (int_of_float (Float.round (float_of_int seconds /. w.cost_s)))

(* The metrics BENCHMARK.json declares, in its order, with their units.
   Every workload reports every row; a per-layer row a workload does not
   exercise reads 0. *)
let e2e_spec =
  [ ("txn_per_sim_s", "txn/s"); ("p50_sim_us", "us"); ("p99_sim_us", "us");
    ("p999_sim_us", "us"); ("nvm_lines_per_txn", "lines/txn");
    ("nvm_live_mib", "MiB"); ("recovery_p50_sim_us", "us");
    ("recovery_max_sim_us", "us"); ("setup_s", "s"); ("host_rss_mib", "MiB") ]

let layer_spec =
  let all unit_ names = List.map (fun n -> (n, unit_)) names in
  [ ("tpcc.tpmC", "new-orders/min") ]
  @ all "us"
      (List.concat_map
         (fun k -> [ "tpcc." ^ k ^ ".p50_sim_us"; "tpcc." ^ k ^ ".p99_sim_us" ])
         [ "new_order"; "payment"; "order_status"; "stock_level" ]
      @ [ "tpcc.delivery_drain.p99_sim_us"; "tpcc.data_lock_wait.p99_sim_us" ])
  @ [ ("tpcc.abort_share", "ratio") ]
  @ all "ns"
      (List.concat_map
         (fun c -> [ "tm." ^ c ^ ".mean_sim_ns"; "tm." ^ c ^ ".p99_sim_ns" ])
         [ "begin"; "write"; "read"; "commit" ])
  @ all "count" [ "tm.commit.count"; "tm.checkpoint.count" ]
  @ all "us"
      [ "tm.checkpoint.mean_sim_us"; "tm.checkpoint.max_sim_us";
        "tm.cp-persist.sim_us"; "tm.cp-clear.sim_us"; "tm.cp-compact.sim_us" ]
  @ [ ("tm.rollbacks", "count"); ("log.appends_per_txn", "records/txn");
      ("log.inline_share", "ratio"); ("log.group_flushes_per_txn", "count/txn");
      ("log.partition_skew", "ratio"); ("log.live_records_end", "records");
      ("arena.line_writes_per_txn", "lines/txn") ]
  @ all "count/txn"
      (List.map
         (fun c -> "arena." ^ c ^ "_per_txn")
         [ "nt_stores"; "flushes"; "fences"; "redundant_flushes";
           "redundant_fences"; "loads"; "stores" ]
      @ [ "alloc.allocations_per_txn"; "alloc.frees_per_txn" ])
  @ all "us"
      (List.map (fun p -> "recovery." ^ p ^ ".sim_us")
         [ "log_attach"; "analysis"; "redo"; "undo"; "clearing" ])
  @ [ ("recovery.records_scanned", "records"); ("recovery.redo_applied", "records");
      ("recovery.txns_undone", "txns"); ("recovery.line_writes", "lines");
      ("recovery.fences", "count"); ("host.txn_per_s", "txn/s") ]
  @ all "s"
      [ "host.s_per_crash"; "host.arena_create_s"; "host.load_s";
        "host.capture_s"; "host.materialize_s"; "host.attach_s"; "host.verify_s" ]
  @ [ ("host.gc.minor_mwords", "Mwords"); ("host.gc.major_collections", "count");
      ("host.trace_overhead_ratio", "ratio"); ("bench.response_samples", "count");
      ("error_rate", "ratio") ]

(* [produced] in [spec] order, with 0 for the rows it lacks; a row outside
   [spec], or with another unit, is a bug in the benchmark. *)
let in_spec_order spec produced =
  List.iter
    (fun (x : metric) ->
      if List.assoc_opt x.name spec <> Some x.unit_ then
        invalid_arg ("metric " ^ x.name ^ " in " ^ x.unit_ ^ " is not declared"))
    produced;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (x : metric) -> x.name = name) produced with
      | Some x -> x
      | None -> m name unit_ 0.)
    spec

let median_int l =
  let s = Sample.create () in
  List.iter (Sample.add s) l;
  Sample.quantile s 0.5

(* Recovery rows: the median over the run's crash points. *)
let recovery_layers crashes =
  let med f = float_of_int (median_int (List.map f crashes)) in
  let phase p c = List.assoc p c.phase_sim_ns in
  List.map
    (fun p ->
      m ("recovery." ^ String.map (fun ch -> if ch = '-' then '_' else ch) p ^ ".sim_us")
        "us" (med (phase p) /. 1e3))
    recovery_phases
  @ [
      m "recovery.records_scanned" "records"
        (med (fun c -> c.report.Rewind.Tm.records_scanned));
      m "recovery.redo_applied" "records" (med (fun c -> c.report.Rewind.Tm.redo_applied));
      m "recovery.txns_undone" "txns" (med (fun c -> c.report.Rewind.Tm.txns_undone));
      m "recovery.line_writes" "lines" (med (fun c -> c.rec_line_writes));
      m "recovery.fences" "count" (med (fun c -> c.rec_fences));
    ]

let recovery_sim crashes =
  let s = Sample.create () in
  List.iter (fun c -> Sample.add s c.recovery_sim_ns) crashes;
  (Sample.quantile s 0.5, Sample.max s)

type outcome = {
  e2e : metric list;
  per_layer : metric list;
  check : Check.t;
  reps : rep list;  (** untraced sub-runs, first first *)
  spans : Spans.t option;
  summary : string list;  (** human-readable lines *)
}

(* Simulated end-to-end metrics of sub-runs taken together, as if they
   ran back to back: percentiles over the pooled samples. *)
let pooled_sim reps =
  let response = Sample.create () in
  List.iter (fun r -> Sample.append response r.response) reps;
  let sum f = List.fold_left (fun a r -> a + f r) 0 reps in
  let committed = sum (fun r -> r.committed) in
  let makespan_s = float_of_int (sum (fun r -> r.fwd.makespan_ns)) /. 1e9 in
  let q name p = m name "us" (us (Sample.quantile response p)) in
  ( [
      m "txn_per_sim_s" "txn/s" (float_of_int committed /. makespan_s);
      q "p50_sim_us" 0.50;
      q "p99_sim_us" 0.99;
      q "p999_sim_us" 0.999;
      m "nvm_lines_per_txn" "lines/txn"
        (per (sum (fun r -> r.fwd.line_writes)) committed);
      m "nvm_live_mib" "MiB"
        (float_of_int (sum (fun r -> r.fwd.live_bytes))
        /. float_of_int (List.length reps) /. 1048576.);
    ],
    response )

(* What a traced and an untraced run of one seed must share exactly. *)
let fingerprint r =
  ( Sample.to_array r.response,
    (r.fwd.makespan_ns, r.committed, r.fwd.line_writes, r.fwd.live_bytes),
    List.map (fun c -> c.recovery_sim_ns) r.crashes )

(* Set-ups behind [setup_s]: the sub-runs' own, topped up with set-ups
   alone.  Most of a set-up is [Arena.create] faulting in fresh pages,
   whose host cost drifts with the machine's memory traffic; the median
   of 15 holds within a few percent where that of 5 did not. *)
let setup_samples = 15

let measure ?(runs = 1) ?(trace = false) w ~seed opts =
  let chk = Check.create () in
  let t_start = Host.now () in
  let one i ~spans =
    Gc.full_major ();
    w.run opts ~seed:(derive seed i) ~spans chk
  in
  let reps = List.init (if trace then 1 else runs) (fun i -> one i ~spans:None) in
  let first = List.hd reps in
  let traced, spans =
    if trace then begin
      let spans = Spans.create () in
      let r = one 0 ~spans:(Some spans) in
      Check.expect chk (fingerprint r = fingerprint first)
        (lazy "traced run's simulated metrics differ from the untraced run's");
      (Some r, Some spans)
    end
    else (None, None)
  in
  let setups = ref (List.map (fun r -> (r.arena_create_s, r.load_s)) reps) in
  while List.length !setups < setup_samples do
    Gc.full_major ();
    setups := w.setup_only opts :: !setups
  done;
  Gc.full_major ();
  let med f l = Sample.median_float (List.map f l) in
  let crashes = List.concat_map (fun r -> r.crashes) reps in
  let rec_p50, rec_max = recovery_sim crashes in
  let host_per_crash c = c.capture_s +. c.materialize_s +. c.attach_s +. c.verify_s in
  let sim, response = pooled_sim reps in
  let e2e =
    sim
    @ [
        m "recovery_p50_sim_us" "us" (us rec_p50);
        m "recovery_max_sim_us" "us" (us rec_max);
        m "setup_s" "s" (med (fun (a, l) -> a +. l) !setups);
        m "host_rss_mib" "MiB" (Host.rss_hwm_mib ());
      ]
  in
  let layer_src = match traced with Some r -> r | None -> first in
  let host_layers =
    [
      m "host.txn_per_s" "txn/s"
        (med (fun r -> float_of_int r.committed /. r.forward_host_s) reps);
      m "host.s_per_crash" "s" (med host_per_crash crashes);
      m "host.arena_create_s" "s" (med fst !setups);
      m "host.load_s" "s" (med snd !setups);
      m "host.capture_s" "s" (med (fun c -> c.capture_s) crashes);
      m "host.materialize_s" "s" (med (fun c -> c.materialize_s) crashes);
      m "host.attach_s" "s" (med (fun c -> c.attach_s) crashes);
      m "host.verify_s" "s" (med (fun c -> c.verify_s) crashes);
      m "host.gc.minor_mwords" "Mwords"
        (med (fun r -> r.fwd.gc.Host.minor_words /. 1e6) reps);
      m "host.gc.major_collections" "count"
        (med (fun r -> float_of_int r.fwd.gc.Host.major_collections) reps);
      m "host.trace_overhead_ratio" "ratio"
        (match traced with
        | Some t -> t.forward_host_s /. first.forward_host_s
        | None -> 0.);
      m "bench.response_samples" "count" (float_of_int (Sample.count layer_src.response));
      m "error_rate" "ratio" (per chk.Check.failed (max 1 chk.Check.attempted));
    ]
  in
  let per_layer =
    in_spec_order layer_spec
      (layer_src.layers @ recovery_layers layer_src.crashes @ host_layers)
  in
  let e2e = in_spec_order e2e_spec e2e in
  let resp_line q name =
    let n = Sample.count response in
    Printf.sprintf "  %s = %.3f us  (n=%d, %d beyond)" name
      (us (Sample.quantile response q)) n (Sample.beyond response q)
  in
  let summary =
    [
      Printf.sprintf "%s seed=%d: %d sub-run(s), %d crash point(s), %.1f s"
        w.name seed (List.length reps) (List.length crashes)
        (Host.now () -. t_start);
      resp_line 0.5 "p50_sim_us";
      resp_line 0.99 "p99_sim_us";
      resp_line 0.999 "p999_sim_us";
      Printf.sprintf "  recovery p50/max over %d point(s): %.3f / %.3f us"
        (List.length crashes) (us rec_p50) (us rec_max);
    ]
  in
  { e2e; per_layer; check = chk; reps; spans; summary }

let out_dir = ".perfbench-out"

let write_trace ~workload o =
  match o.spans with
  | None -> []
  | Some spans ->
      if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
      let csv = Filename.concat out_dir ("trace-" ^ workload ^ ".csv") in
      let self = Filename.concat out_dir ("trace-" ^ workload ^ "-self.tsv") in
      Spans.write_csv spans csv;
      let oc = open_out self in
      output_string oc "layer/call\tcalls\tsim_ns\tself_sim_ns\tself_host_s\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "%s\t%d\t%d\t%d\t%.6f\n" s.Spans.key s.Spans.calls
            s.Spans.sim_ns s.Spans.self_sim_ns s.Spans.self_host_s)
        (Spans.self_times spans);
      close_out oc;
      [ Printf.sprintf "  %d spans written to %s (self time per layer: %s)"
          (Spans.count spans) csv self ]

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else
    (* the shortest form that reads back as the same float *)
    let rec go p =
      let s = Printf.sprintf "%.*g" p v in
      if p >= 17 || float_of_string s = v then s else go (p + 1)
    in
    go 15

let result_line ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (x : metric) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
          (json_number x.value) x.unit_)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " fields)

let main () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let over = ref [] in
  let opt name f doc = (name, Arg.Int (fun v -> over := f v :: !over), doc) in
  let specs =
    [
      ( "--workload",
        Arg.Set_string workload,
        " " ^ String.concat " | " (List.map (fun w -> w.name) workloads) );
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_int seconds, " time budget, sets the number of sub-runs");
      ("--trace", Arg.Set_int trace, " 1: traced run, print per-layer metrics");
      opt "--partitions" (fun v o -> { o with partitions = v }) " log partitions";
      opt "--arena-mb" (fun v o -> { o with arena_mb = v }) " arena size";
      opt "--checkpoint-every" (fun v o -> { o with checkpoint_every = v })
        " requests between checkpoints";
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse (Arg.align specs) (fun a -> raise (Arg.Bad ("unexpected " ^ a))) usage;
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload '" ^ !workload ^ "'");
        Arg.usage (Arg.align specs) usage;
        exit 2
  in
  let opts = List.fold_right (fun f o -> f o) !over w.defaults in
  let runs = sub_runs w ~seconds:!seconds in
  let o = measure ~runs ~trace:(!trace = 1) w ~seed:!seed opts in
  let lines = o.summary @ write_trace ~workload:!workload o in
  List.iter print_endline lines;
  List.iter
    (fun e -> print_endline ("  FAILED: " ^ e))
    (List.rev o.check.Check.errors);
  let metrics = if !trace = 1 then o.per_layer else o.e2e in
  let finite = List.for_all (fun x -> Float.is_finite x.value) metrics in
  if not finite then Check.fail o.check "a metric is not a finite number";
  let correct = o.check.Check.failed = 0 in
  let metrics =
    List.map (fun x -> if Float.is_finite x.value then x else { x with value = 0. }) metrics
  in
  print_endline
    (result_line ~correct ~attempted:o.check.Check.attempted
       ~failed:o.check.Check.failed metrics);
  if not correct then exit 1

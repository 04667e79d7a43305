(* Recovery-time benchmark: crash a populated manager and profile the
   reattach, per phase, across all six REWIND configurations, several log
   sizes and checkpoint intervals.

   Each row reports the per-phase profile from [Tm.last_recovery_profile]
   — simulated time plus the NVM line-write/flush/fence deltas of exactly
   that recovery (the arena's cumulative totals would double-count the
   pre-crash workload) — and the violation count of a persistency
   sanitizer attached for the duration of recovery.  Results land in
   BENCH_recovery.json and a Prometheus-style text file so CI can archive
   and alert on them. *)

open Rewind_nvm
module San = Rewind_analysis.Sanitizer

type phase_row = {
  phase : string;
  count : int;
  sim_ns : int;
  line_writes : int;
  nt_stores : int;
  flushes : int;
  fences : int;
}

type result = {
  config : string;
  ops : int;  (** logged updates before the crash *)
  checkpoint_every : int;  (** committed txns between checkpoints; 0 = never *)
  log_records : int;  (** live log records at the crash point *)
  recovery_sim_ns : int;  (** total simulated reattach time *)
  phases : phase_row list;  (** in execution order *)
  report : Rewind.Tm.recovery_report;
  sanitizer_violations : int;  (** violations collected during recovery *)
}

let configs =
  [
    ("1l-nfp", Rewind.config_1l_nfp);
    ("1l-fp", Rewind.config_1l_fp);
    ("2l-nfp", Rewind.config_2l_nfp);
    ("2l-fp", Rewind.config_2l_fp);
    ("simple", Rewind.config_simple);
    ("batch8", Rewind.config_batch ());
  ]

let phase_rows prof =
  List.map
    (fun p ->
      {
        phase = p.Probe.name;
        count = p.Probe.count;
        sim_ns = p.Probe.sim_ns;
        line_writes = p.Probe.stats.Stats.nvm_writes;
        nt_stores = p.Probe.stats.Stats.nt_stores;
        flushes = p.Probe.stats.Stats.flushes;
        fences = p.Probe.stats.Stats.fences;
      })
    (Probe.phases prof)

(* Short committed transactions over a small working set, a checkpoint
   every [checkpoint_every] commits, two transactions left in flight at
   the crash — so recovery exercises analysis, redo (no-force), undo and
   clearing on every configuration. *)
let run_one ~ops ~checkpoint_every (name, cfg) =
  let arena = Arena.create ~size_bytes:(256 lsl 20) () in
  let alloc = Alloc.create arena in
  let tm = Rewind.Tm.create ~cfg alloc ~root_slot:2 in
  let cells = Array.init 64 (fun _ -> Alloc.alloc alloc 8) in
  let txn_len = 8 in
  let committed = ref 0 in
  let txn = ref (Rewind.Tm.begin_txn tm) in
  for i = 1 to ops do
    Rewind.Tm.write tm !txn
      ~addr:cells.(i mod Array.length cells)
      ~value:(Int64.of_int (i land 0xFFFF));
    if i mod txn_len = 0 then begin
      Rewind.Tm.commit tm !txn;
      incr committed;
      if checkpoint_every > 0 && !committed mod checkpoint_every = 0 then
        Rewind.Tm.checkpoint tm;
      txn := Rewind.Tm.begin_txn tm
    end
  done;
  (* two in-flight transactions give undo real work *)
  let live1 = Rewind.Tm.begin_txn tm and live2 = Rewind.Tm.begin_txn tm in
  for i = 1 to txn_len do
    Rewind.Tm.write tm live1 ~addr:cells.(i) ~value:(Int64.of_int (-i));
    Rewind.Tm.write tm live2 ~addr:cells.(i + txn_len)
      ~value:(Int64.of_int (-i - 100))
  done;
  let log_records = Rewind.Log.length (Rewind.Tm.log tm) in
  Arena.crash arena;
  let alloc2 = Alloc.recover arena in
  let san = San.attach ~mode:San.Collect arena in
  let span = Clock.start () in
  let tm2 = Rewind.Tm.attach ~cfg alloc2 ~root_slot:2 in
  let recovery_sim_ns = Clock.elapsed span in
  San.detach san;
  let prof =
    match Rewind.Tm.last_recovery_profile tm2 with
    | Some p -> p
    | None -> Probe.create ()
  in
  let report =
    match Rewind.Tm.last_recovery tm2 with
    | Some r -> r
    | None ->
        {
          Rewind.Tm.records_scanned = 0;
          torn_truncated = 0;
          redo_applied = 0;
          txns_finished = 0;
          txns_undone = 0;
        }
  in
  {
    config = name;
    ops;
    checkpoint_every;
    log_records;
    recovery_sim_ns;
    phases = phase_rows prof;
    report;
    sanitizer_violations = List.length (San.violations san);
  }

(* Simulated recovery time no top-level phase accounts for: the total
   minus the sum of the phases without a "/pN" per-partition suffix
   (those sub-spans are already inside their parent).  Zero when the
   profile conserves time. *)
let unaccounted_sim_ns r =
  List.fold_left
    (fun acc p -> if String.contains p.phase '/' then acc else acc - p.sim_ns)
    r.recovery_sim_ns r.phases

let default_sizes = [ 2_000; 8_000 ]
let default_intervals = [ 0; 100 ]

let run ?(sizes = default_sizes) ?(intervals = default_intervals) () =
  List.concat_map
    (fun cfg ->
      List.concat_map
        (fun ops ->
          List.map
            (fun checkpoint_every -> run_one ~ops ~checkpoint_every cfg)
            intervals)
        sizes)
    configs

(* -- rendering ----------------------------------------------------------- *)

let pp_result ppf r =
  Fmt.pf ppf "%-8s ops=%-6d ckpt=%-4d log=%-6d recovery %a (%a)  sanitizer=%d@."
    r.config r.ops r.checkpoint_every r.log_records Clock.pp_ns
    r.recovery_sim_ns Rewind.Tm.pp_recovery_report r.report
    r.sanitizer_violations;
  List.iter
    (fun p ->
      Fmt.pf ppf "    %-14s %a  (lines %d, nt %d, flushes %d, fences %d)@."
        p.phase Clock.pp_ns p.sim_ns p.line_writes p.nt_stores p.flushes
        p.fences)
    r.phases

let to_json results =
  let b = Buffer.create 4096 in
  Buffer.add_string b "[\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "  {\"config\": %S, \"ops\": %d, \"checkpoint_every\": %d, \
            \"log_records\": %d, \"recovery_sim_ns\": %d, \
            \"records_scanned\": %d, \"torn_truncated\": %d, \
            \"redo_applied\": %d, \"txns_finished\": %d, \"txns_undone\": \
            %d, \"sanitizer_violations\": %d, \"phases\": ["
           r.config r.ops r.checkpoint_every r.log_records r.recovery_sim_ns
           r.report.Rewind.Tm.records_scanned r.report.Rewind.Tm.torn_truncated
           r.report.Rewind.Tm.redo_applied r.report.Rewind.Tm.txns_finished
           r.report.Rewind.Tm.txns_undone r.sanitizer_violations);
      List.iteri
        (fun j p ->
          if j > 0 then Buffer.add_string b ", ";
          Buffer.add_string b
            (Printf.sprintf
               "{\"phase\": %S, \"sim_ns\": %d, \"line_writes\": %d, \
                \"nt_stores\": %d, \"flushes\": %d, \"fences\": %d}"
               p.phase p.sim_ns p.line_writes p.nt_stores p.flushes p.fences))
        r.phases;
      Buffer.add_string b "]}")
    results;
  Buffer.add_string b "\n]\n";
  Buffer.contents b

(* Prometheus text exposition: one gauge per metric, labelled by config /
   workload point / phase. *)
let to_prometheus results =
  let b = Buffer.create 4096 in
  let label r = Printf.sprintf "config=%S,ops=\"%d\",ckpt=\"%d\"" r.config r.ops r.checkpoint_every in
  Buffer.add_string b
    "# HELP rewind_recovery_sim_ns Simulated total recovery time per crash.\n\
     # TYPE rewind_recovery_sim_ns gauge\n";
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "rewind_recovery_sim_ns{%s} %d\n" (label r)
           r.recovery_sim_ns))
    results;
  Buffer.add_string b
    "# HELP rewind_recovery_phase_sim_ns Simulated time per recovery phase.\n\
     # TYPE rewind_recovery_phase_sim_ns gauge\n";
  List.iter
    (fun r ->
      List.iter
        (fun p ->
          Buffer.add_string b
            (Printf.sprintf "rewind_recovery_phase_sim_ns{%s,phase=%S} %d\n"
               (label r) p.phase p.sim_ns))
        r.phases)
    results;
  Buffer.add_string b
    "# HELP rewind_recovery_phase_line_writes NVM line write-backs per \
     recovery phase.\n\
     # TYPE rewind_recovery_phase_line_writes gauge\n";
  List.iter
    (fun r ->
      List.iter
        (fun p ->
          Buffer.add_string b
            (Printf.sprintf
               "rewind_recovery_phase_line_writes{%s,phase=%S} %d\n" (label r)
               p.phase p.line_writes))
        r.phases)
    results;
  Buffer.add_string b
    "# HELP rewind_recovery_sanitizer_violations Persistency-sanitizer \
     violations observed during recovery.\n\
     # TYPE rewind_recovery_sanitizer_violations gauge\n";
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "rewind_recovery_sanitizer_violations{%s} %d\n"
           (label r) r.sanitizer_violations))
    results;
  Buffer.contents b

(* What one sub-run of a workload measured, and the metric rows the
   workloads share. *)

open Rewind_nvm
module Tm = Rewind.Tm

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }
let per n d = if d = 0 then 0. else float_of_int n /. float_of_int d
let us ns = float_of_int ns /. 1e3

(* Simulated instant every forward run starts at: far beyond any
   recovery's simulated duration (see {!Tpcc_workload}), and the same
   whatever the set-up cost. *)
let forward_origin = 1 lsl 40

(* Seed of stream [k] of [seed]: a run's sub-runs, a sub-run's terminal
   request generators and its crash points' survivor draws. *)
let derive seed k = (seed * 1_000_003) + k

(* Sizes of one sub-run.  Each workload module has its defaults; the
   command line may override them for sensitivity runs and self-tests. *)
type opts = {
  txns : int;  (** transactions per terminal fiber *)
  partitions : int;  (** log partitions *)
  arena_mb : int;
  checkpoint_every : int;  (** completed requests per [Tm.checkpoint] *)
}

(* Checkpoints fall halfway through each [checkpoint_every] requests, so a
   run whose length is a multiple of the cadence ends half an interval
   after its last checkpoint, and its end-of-run recovery replays that
   much log whatever the seed. *)
let checkpoint_due opts completed =
  completed mod opts.checkpoint_every = opts.checkpoint_every / 2

(* A workload's state after set-up, with the host time of each step. *)
type 'a setup = {
  arena : Arena.t;
  alloc : Alloc.t;
  tm : Tm.t;
  data : 'a;  (** what the workload loaded *)
  arena_create_s : float;
  load_s : float;  (** data load + [Tm.create] *)
}

(* The benchmark's set-up: [Arena.create], then [load] (which loads the
   data and calls [Tm.create]), each timed on the host. *)
let setup opts load =
  let t0 = Host.now () in
  let arena = Arena.create ~size_bytes:(opts.arena_mb lsl 20) () in
  let t1 = Host.now () in
  let alloc = Alloc.create arena in
  let tm, data = load alloc in
  let t2 = Host.now () in
  { arena; alloc; tm; data; arena_create_s = t1 -. t0; load_s = t2 -. t1 }

(* One crash point: an image recovered on a copy (or the live arena after
   an in-place [Arena.crash]), with its host cost by step. *)
type crash = {
  recovery_sim_ns : int;  (** [Tm.attach], simulated *)
  phase_sim_ns : (string * int) list;  (** by [Tm.last_recovery_profile] phase *)
  report : Tm.recovery_report;
  rec_line_writes : int;
  rec_fences : int;
  capture_s : float;  (** [Arena.capture], or the in-place [Arena.crash] *)
  materialize_s : float;  (** [Arena.materialize]; 0 for an in-place crash *)
  attach_s : float;  (** [Alloc.recover] + [Tm.attach] *)
  verify_s : float;
}

let recovery_phases = [ "log-attach"; "analysis"; "redo"; "undo"; "clearing" ]

(* Recover a crashed arena: [Alloc.recover] then [Tm.attach], timed in
   simulated and host time.  Returns the manager and the crash record
   (whose [capture_s]/[materialize_s]/[verify_s] the caller fills in). *)
let recover ~cfg ~root_slot arena =
  let t0 = Host.now () in
  let alloc = Alloc.recover arena in
  let c0 = Clock.now () in
  let tm, st =
    Stats.scoped (Arena.stats arena) (fun () -> Tm.attach ~cfg alloc ~root_slot)
  in
  let sim = Clock.now () - c0 in
  let attach_s = Host.now () -. t0 in
  let phase name =
    match Option.bind (Tm.last_recovery_profile tm) (fun p -> Probe.find p name) with
    | Some ph -> ph.Probe.sim_ns
    | None -> 0
  in
  let report =
    match Tm.last_recovery tm with
    | Some r -> r
    | None -> failwith "Tm.attach left no recovery report"
  in
  ( alloc,
    tm,
    {
      recovery_sim_ns = sim;
      phase_sim_ns = List.map (fun n -> (n, phase n)) recovery_phases;
      report;
      rec_line_writes = st.Stats.nvm_writes;
      rec_fences = st.Stats.fences;
      capture_s = 0.;
      materialize_s = 0.;
      attach_s;
      verify_s = 0.;
    } )

(* [recover], then [verify alloc tm] on the recovered state, each in a
   span under [parent]; [layer] is the verifier's span layer. *)
let recover_verify ~spans ~parent ~cfg ~root_slot ~layer arena verify =
  let alloc, tm, c =
    Spans.child spans ~parent ~layer:"core.tm" ~name:"attach" (fun () ->
        recover ~cfg ~root_slot arena)
  in
  let (), verify_s =
    Host.timed (fun () ->
        Spans.child spans ~parent ~layer ~name:"verify" (fun () -> verify alloc tm))
  in
  { c with verify_s }

(* End of a sub-run: one power failure that loses every dirty line
   ([Arena.crash]), then recovery and verification in place. *)
let end_crash ~spans ~cfg ~root_slot ~layer arena verify =
  Spans.with_span spans ~layer:"bench" ~name:"end_crash" ~req:(-1) ~parent:(-1)
  @@ fun parent ->
  let (), capture_s =
    Host.timed (fun () ->
        Spans.child spans ~parent ~layer:"nvm.arena" ~name:"crash" (fun () ->
            Arena.crash arena))
  in
  let c = recover_verify ~spans ~parent ~cfg ~root_slot ~layer arena verify in
  { c with capture_s }

(* Counters of the manager, its log partitions, the arena and the
   allocator at one instant; the per-layer rows are deltas over the
   forward run. *)
type counters = {
  stats : Stats.t;
  appended : int array;
  allocations : int;
  frees : int;
}

let counters tm alloc =
  {
    stats = Stats.snapshot (Arena.stats (Alloc.arena alloc));
    appended = Tm.partition_appended tm;
    allocations = Alloc.allocations alloc;
    frees = Alloc.frees alloc;
  }

(* What a forward run measured apart from the workload's own samples. *)
type forward = {
  makespan_ns : int;  (** slowest fiber's simulated finish *)
  host_s : float;  (** host time of [Sim_threads.run], crash points included *)
  gc : Host.gc;
  before : counters;  (** at the start *)
  commits : int;  (** [Tm.commits] over the run *)
  line_writes : int;  (** cacheline writes that reached NVM *)
  live_bytes : int;  (** [Alloc.live_bytes] at the end *)
  checkpoints : Sample.t;  (** simulated ns of each [Tm.checkpoint] *)
}

(* The forward run: [threads] closed-loop fibers, each issuing [opts.txns]
   requests [request fiber] back to back from [forward_origin] on.  After
   each completed request comes [between completed] (crash points) and,
   when due, a [Tm.checkpoint].  An exception out of a request is a
   failure. *)
let forward (s : _ setup) opts ~spans chk ~threads ?(between = ignore) request =
  let checkpoints = Sample.create () and completed = ref 0 in
  let op fiber _ =
    (try request fiber
     with e -> Check.fail chk ("request raised " ^ Printexc.to_string e));
    incr completed;
    between !completed;
    if checkpoint_due opts !completed then begin
      let c0 = Clock.now () in
      Spans.with_span spans ~layer:"core.tm" ~name:"checkpoint" ~req:(-1)
        ~parent:(-1) (fun _ -> Tm.checkpoint s.tm);
      Sample.add checkpoints (Clock.now () - c0)
    end
  in
  let before = counters s.tm s.alloc in
  let commits0 = Tm.commits s.tm in
  Clock.set forward_origin;
  let gc0 = Host.gc () in
  let makespan_ns, host_s =
    Host.timed (fun () -> Sim_threads.run ~threads ~ops_per_thread:opts.txns op)
  in
  let gc = Host.gc_delta gc0 (Host.gc ()) in
  {
    makespan_ns;
    host_s;
    gc;
    before;
    commits = Tm.commits s.tm - commits0;
    line_writes = (Stats.diff (Arena.stats s.arena) before.stats).Stats.nvm_writes;
    live_bytes = Alloc.live_bytes s.alloc;
    checkpoints;
  }

type rep = {
  response : Sample.t;  (** per-transaction response times, simulated ns *)
  fwd : forward;
  committed : int;  (** transactions the workload saw commit *)
  layers : metric list;  (** per-layer metrics *)
  crashes : crash list;
  forward_host_s : float;  (** host time of the forward run, crash points excluded *)
  arena_create_s : float;
  load_s : float;
}

let rep (s : _ setup) fwd ?(crash_host_s = 0.) ~response ~committed ~layers
    crashes =
  {
    response;
    fwd;
    committed;
    layers;
    crashes;
    forward_host_s = fwd.host_s -. crash_host_s;
    arena_create_s = s.arena_create_s;
    load_s = s.load_s;
  }

(* [count] and simulated ns of a [Tm.set_probe] phase. *)
let probe_phase probe name =
  match Option.bind probe (fun p -> Probe.find p name) with
  | Some ph -> (ph.Probe.count, ph.Probe.sim_ns)
  | None -> (0, 0)

(* Per-layer rows shared by every forward workload: [core.tm] checkpoint
   and probe phases, [core.log], [nvm.arena] and [nvm.alloc]. *)
let common_layers (s : _ setup) fwd ~committed ~probe =
  let before = fwd.before and checkpoints = fwd.checkpoints in
  let after = counters s.tm s.alloc in
  let st = Stats.diff after.stats before.stats in
  let appended = Array.mapi (fun i a -> a - before.appended.(i)) after.appended in
  let total_appends = Array.fold_left ( + ) 0 appended in
  let max_appends = Array.fold_left max 0 appended in
  let cp_phase name =
    let _, ns = probe_phase probe name in
    m (Printf.sprintf "tm.%s.sim_us" name) "us"
      (per ns (max 1 (Sample.count checkpoints)) /. 1e3)
  in
  let per_txn name unit_ n = m name unit_ (per n committed) in
  [
    m "tm.commit.count" "count" (float_of_int fwd.commits);
    m "tm.checkpoint.count" "count" (float_of_int (Sample.count checkpoints));
    m "tm.checkpoint.mean_sim_us" "us" (Sample.mean checkpoints /. 1e3);
    m "tm.checkpoint.max_sim_us" "us" (us (Sample.max checkpoints));
    cp_phase "cp-persist";
    cp_phase "cp-clear";
    cp_phase "cp-compact";
    m "tm.rollbacks" "count" (float_of_int (Tm.rollbacks s.tm));
    per_txn "log.appends_per_txn" "records/txn" total_appends;
    m "log.inline_share" "ratio"
      (per st.Stats.inline_records (st.Stats.inline_records + st.Stats.full_records));
    per_txn "log.group_flushes_per_txn" "count/txn" st.Stats.group_flushes;
    m "log.partition_skew" "ratio"
      (if total_appends = 0 then 0.
       else
         float_of_int max_appends
         /. (float_of_int total_appends /. float_of_int (Array.length appended)));
    m "log.live_records_end" "records"
      (float_of_int
         (Array.fold_left (fun acc l -> acc + Rewind.Log.length l) 0 (Tm.logs s.tm)));
    per_txn "arena.line_writes_per_txn" "lines/txn" st.Stats.nvm_writes;
    per_txn "arena.nt_stores_per_txn" "count/txn" st.Stats.nt_stores;
    per_txn "arena.flushes_per_txn" "count/txn" st.Stats.flushes;
    per_txn "arena.fences_per_txn" "count/txn" st.Stats.fences;
    per_txn "arena.redundant_flushes_per_txn" "count/txn" st.Stats.redundant_flushes;
    per_txn "arena.redundant_fences_per_txn" "count/txn" st.Stats.redundant_fences;
    per_txn "arena.loads_per_txn" "count/txn" st.Stats.loads;
    per_txn "arena.stores_per_txn" "count/txn" st.Stats.stores;
    per_txn "alloc.allocations_per_txn" "count/txn" (after.allocations - before.allocations);
    per_txn "alloc.frees_per_txn" "count/txn" (after.frees - before.frees);
  ]

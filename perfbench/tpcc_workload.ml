(* tpcc-mix and tpcc-crash: the five-transaction TPC-C mix (45/43/4/4/4)
   from closed-loop terminal fibers over one REWIND manager whose log is
   partitioned by home warehouse.

   Four warehouses at [Datagen.small] in the Optimized layout, two
   terminals per warehouse.  A terminal takes its warehouse's data lock
   (a [Sim_mutex]) for each request, runs it with [Mix.execute], drains
   the deliveries it deferred with [Mix.drain_deliveries], and releases
   the lock.  Between requests a fixed cadence of [Tm.checkpoint] runs
   and, for tpcc-crash, crash images are taken and recovered on a copy.

   A crash point falls due every [crash_every] completed requests and is
   taken at the first request boundary from then on at which another
   terminal is inside [Mix.execute] with durable log records of its
   transaction, so that every crash point leaves work for undo.  Taking
   it exactly at the due boundary does not: the closed loop can lock the
   terminals into a phase where, at every multiple of [crash_every], the
   transactions in flight have not yet filled a log batch.

   A crash point must not disturb the forward run.  Its recovery runs
   inside the fiber that took it, with the simulated clock set back to 0;
   every terminal's clock is at least [Measure.forward_origin], so whenever
   recovery yields inside a [Sim_mutex] the scheduler resumes the same
   fiber at once.  The fiber's clock is then restored, and the forward
   run is identical to one without crash points. *)

open Rewind_nvm
open Rewind_tpcc
module Tm = Rewind.Tm
module Btree = Rewind_pds.Btree

let warehouses = 4
let terminals_per_warehouse = 2
let terminals = warehouses * terminals_per_warehouse
let params = Datagen.small
let root_slot = Workload.shared_root

let defaults =
  { Measure.txns = 2500; partitions = 4; arena_mb = 256; checkpoint_every = 2000 }

(* tpcc-crash's cadence: completed requests per crash point. *)
let crash_every = 2300

let home opts term = term / terminals_per_warehouse mod opts.Measure.partitions

let kinds = [| "new_order"; "payment"; "order_status"; "delivery"; "stock_level" |]

let kind_index = function
  | Mix.New_order _ -> 0
  | Mix.Payment _ -> 1
  | Mix.Order_status _ -> 2
  | Mix.Delivery _ -> 3
  | Mix.Stock_level _ -> 4

let district_index w d = ((w - 1) * Schema.districts) + (d - 1)
let districts_total = warehouses * Schema.districts

let config opts = Rewind.with_partitions opts.Measure.partitions Workload.tm_config

(* Data load and [Tm.create]; [data] is the database bound to the
   manager. *)
let setup opts =
  Measure.setup opts (fun alloc ->
      let db =
        Schema.create ~layout:Schema.Optimized ~warehouses Btree.Direct_nvm alloc
      in
      Datagen.load ~params db 0;
      let tm = Tm.create ~cfg:(config opts) alloc ~root_slot in
      (tm, Schema.rebind db (Btree.Logged tm)))

(* The recovered database must satisfy every mixed-workload invariant and
   hold each acknowledged new-order: per district, the committed count
   implied by [d_next_o_id] lies between the acknowledged count and that
   plus the new-orders still in flight. *)
let verify chk db ~acked ~inflight =
  Check.expect chk (Workload.check_mix_consistency db)
    (lazy "Workload.check_mix_consistency failed");
  for w = 1 to warehouses do
    for d = 1 to Schema.districts do
      let i = district_index w d in
      let next =
        Int64.to_int
          (Schema.row_get db (Schema.district_row db w d) Schema.d_next_o_id)
      in
      let n = next - 1 - params.Datagen.initial_orders in
      Check.expect chk
        (acked.(i) <= n && n <= acked.(i) + inflight.(i))
        (lazy
          (Printf.sprintf
             "w%d d%d: %d new-orders durable, %d acknowledged, %d in flight" w
             d n acked.(i) inflight.(i)))
    done
  done

(* [verify] on a recovered arena: the database rebound to its manager. *)
let verify_recovered chk (s : _ Measure.setup) ~acked ~inflight alloc tm =
  verify chk (Schema.rebind ~alloc s.data (Btree.Logged tm)) ~acked ~inflight

(* [crash_every] is [Some n] for tpcc-crash, [None] for tpcc-mix. *)
let run ~crash_every opts ~seed ~spans chk =
  let s = setup opts in
  let tm = s.tm and db = s.data in
  let cfg = config opts in
  let probe = Option.map (fun _ -> Probe.create ()) spans in
  Tm.set_probe tm probe;
  let locks = Array.init warehouses (fun _ -> Sim_mutex.create ()) in
  let queues = Array.init terminals (fun _ -> Delivery.queue_create ()) in
  let rngs = Array.init terminals (fun t -> Rng.create (Measure.derive seed t)) in
  let response = Sample.create () and lock_wait = Sample.create () in
  let exec = Array.init (Array.length kinds) (fun _ -> Sample.create ()) in
  let drain = Sample.create () in
  let acked = Array.make districts_total 0 in
  let inflight = Array.make districts_total 0 in
  let committed = ref 0 and aborted = ref 0 and new_orders = ref 0 in
  let req = ref 0 in
  let crashes = ref [] and crash_host_s = ref 0. in
  (* Durable records in [term]'s home partition, and that count when the
     terminal's current [Mix.execute] began (-1 outside one).  The data
     lock gives the partition to one transaction at a time, so a rise
     means the running one has records recovery must undo. *)
  let durable term =
    let log = (Tm.logs tm).(home opts term) in
    Rewind.Log.appended log - Rewind.Log.pending log
  in
  let exec_start = Array.make terminals (-1) in
  let undo_pending () =
    let found = ref false in
    Array.iteri
      (fun term d0 -> if d0 >= 0 && durable term > d0 then found := true)
      exec_start;
    !found
  in
  let crash_point () =
    let t0 = Host.now () in
    let saved = Clock.now () in
    Clock.set 0;
    let c =
      Spans.with_span spans ~layer:"bench" ~name:"crash_point" ~req:(-1)
        ~parent:(-1)
      @@ fun parent ->
      let img, capture_s =
        Host.timed (fun () ->
            Spans.child spans ~parent ~layer:"nvm.arena" ~name:"capture"
              (fun () -> Arena.capture s.arena))
      in
      let rng = Rng.create (Measure.derive seed (1000 + List.length !crashes)) in
      let survivors =
        List.filter (fun _ -> Rng.int rng 0 1 = 1) (Arena.image_dirty_lines img)
      in
      let arena, materialize_s =
        Host.timed (fun () ->
            Spans.child spans ~parent ~layer:"nvm.arena" ~name:"materialize"
              (fun () -> Arena.materialize img ~survivors))
      in
      let c =
        Measure.recover_verify ~spans ~parent ~cfg ~root_slot ~layer:"tpcc" arena
          (verify_recovered chk s ~acked:(Array.copy acked)
             ~inflight:(Array.copy inflight))
      in
      { c with Measure.capture_s; materialize_s }
    in
    Check.expect chk (Clock.now () < Measure.forward_origin)
      (lazy "crash-point recovery reached the forward run's clock");
    Clock.set saved;
    crashes := c :: !crashes;
    Gc.full_major ();
    crash_host_s := !crash_host_s +. (Host.now () -. t0)
  in
  let request term =
    let w = 1 + (term / terminals_per_warehouse) in
    let home = home opts term in
    let rq =
      Mix.gen ~warehouse:w ~customers:params.Datagen.customers_per_district
        rngs.(term) ~items:params.Datagen.items
    in
    let k = kind_index rq in
    let district =
      match rq with
      | Mix.New_order r -> Some (district_index w r.Neworder.rq_district)
      | _ -> None
    in
    incr req;
    let req = !req in
    Check.attempt chk;
    let issue = Clock.now () in
    Spans.with_span spans ~layer:"bench" ~name:"request" ~req ~parent:(-1)
    @@ fun root ->
    Spans.with_span spans ~layer:"nvm.sim_mutex" ~name:"data_lock" ~req
      ~parent:root (fun _ -> Sim_mutex.lock locks.(w - 1));
    Fun.protect ~finally:(fun () -> Sim_mutex.unlock locks.(w - 1)) @@ fun () ->
    let got = Clock.now () in
    Sample.add lock_wait (got - issue);
    Option.iter (fun i -> inflight.(i) <- inflight.(i) + 1) district;
    exec_start.(term) <- durable term;
    let outcome =
      Spans.with_span spans ~layer:"tpcc" ~name:kinds.(k) ~req ~parent:root
        (fun _ -> Mix.execute ~home db tm ~queue:queues.(term) rq)
    in
    exec_start.(term) <- -1;
    let done_ = Clock.now () in
    Sample.add exec.(k) (done_ - got);
    Sample.add response (done_ - issue);
    (match outcome with
    | Mix.Committed ->
        incr committed;
        Option.iter
          (fun i ->
            incr new_orders;
            acked.(i) <- acked.(i) + 1)
          district
    | Mix.Aborted -> incr aborted);
    Option.iter (fun i -> inflight.(i) <- inflight.(i) - 1) district;
    let d0 = Clock.now () in
    let n =
      Spans.with_span spans ~layer:"tpcc" ~name:"delivery_drain" ~req
        ~parent:root (fun _ -> Mix.drain_deliveries ~home db tm queues.(term))
    in
    if n > 0 then Sample.add drain (Clock.now () - d0)
  in
  let due = ref false in
  let between completed =
    match crash_every with
    | Some n ->
        if completed mod n = 0 then due := true;
        if !due && undo_pending () then begin
          due := false;
          crash_point ()
        end
    | None -> ()
  in
  let fwd = Measure.forward s opts ~spans chk ~threads:terminals ~between request in
  let committed = !committed in
  let layers =
    let q k =
      let name qn = Printf.sprintf "tpcc.%s.%s_sim_us" kinds.(k) qn in
      [
        Measure.m (name "p50") "us" (Measure.us (Sample.quantile exec.(k) 0.50));
        Measure.m (name "p99") "us" (Measure.us (Sample.quantile exec.(k) 0.99));
      ]
    in
    let commit_count, commit_ns = Measure.probe_phase probe "commit" in
    [
      Measure.m "tpcc.tpmC" "new-orders/min"
        (float_of_int !new_orders /. (float_of_int fwd.Measure.makespan_ns /. 60e9));
    ]
    @ q 0 @ q 1 @ q 2 @ q 4
    @ [
      Measure.m "tpcc.delivery_drain.p99_sim_us" "us"
        (Measure.us (Sample.quantile drain 0.99));
      Measure.m "tpcc.data_lock_wait.p99_sim_us" "us"
        (Measure.us (Sample.quantile lock_wait 0.99));
      Measure.m "tpcc.abort_share" "ratio" (Measure.per !aborted !req);
      Measure.m "tm.commit.mean_sim_ns" "ns" (Measure.per commit_ns commit_count);
    ]
    @ Measure.common_layers s fwd ~committed ~probe
  in
  (* End of run: the live database must be consistent and hold exactly
     the acknowledged new-orders. *)
  let no_inflight = Array.make districts_total 0 in
  verify chk db ~acked ~inflight:no_inflight;
  let crashes =
    match crash_every with
    | Some _ ->
        let crashes = List.rev !crashes in
        Check.expect chk
          (List.exists (fun c -> c.Measure.report.Tm.txns_undone > 0) crashes)
          (lazy "no crash point left a transaction in flight to undo");
        crashes
    | None ->
        (* tpcc-mix: one power failure at the end, recovered in place. *)
        [
          Measure.end_crash ~spans ~cfg ~root_slot ~layer:"tpcc" s.arena
            (verify_recovered chk s ~acked ~inflight:no_inflight);
        ]
  in
  Measure.rep s fwd ~crash_host_s:!crash_host_s ~response ~committed ~layers crashes

(* Set-up only, for the extra set-up samples a run takes. *)
let setup_only opts =
  let s = setup opts in
  (s.arena_create_s, s.load_s)

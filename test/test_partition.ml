(* Partitioned per-thread logging (Section 4.7) with merged recovery.

   Four attacks:

   1. functional smoke across every configuration at 2 and 4 partitions:
      committed transactions survive a crash, a rolled-back and a live
      transaction do not, and transactions actually spread round-robin
      over the partitions' logs;

   2. an exhaustive crash sweep: concurrent writers (the fiber scheduler)
      under Batch logging with tiny buckets and groups, a crash armed at
      *every* persistence event of the run, recovery after each.  With
      four writers appending into distinct partitions and group flushes /
      bucket rollovers staggered across them, the sweep necessarily
      includes crash points where one partition is mid-group-flush while
      another is mid-bucket-append — the interleavings a global-latch log
      can never produce;

   3. checkpoint crash sweeps at 2 and 4 partitions — settled
      transactions in different partitions overwrite the same cells, so
      a crash mid-clearing that left an older record of one partition
      behind a newer removed one would let redo resurrect a stale value
      unless recovery honours the surviving CHECKPOINT records.  The
      second sweep opens the live transaction first, so its partition is
      cleared record by record while the others drop whole buckets;

   4. properties: the merged record stream {!Tm.merged_log_records} —
      built by the same decode-sort-merge that recovery's redo and undo
      replay — is strictly ascending by LSN and is exactly the union of
      the partitions' logs; recovery at 4 partitions reaches the same cell
      state as at 1 partition for the same transaction history; and a
      checkpoint leaves exactly the open transactions' records, with
      coherent bucket bookkeeping and no empty bucket behind the
      current one. *)

open Rewind_nvm
open Rewind
module San = Rewind_analysis.Sanitizer

let root_slot = 2
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let all_configs =
  [
    ("1l-nfp", Rewind.config_1l_nfp);
    ("1l-fp", Rewind.config_1l_fp);
    ("2l-nfp", Rewind.config_2l_nfp);
    ("2l-fp", Rewind.config_2l_fp);
    ("simple", Rewind.config_simple);
    ("batch4", Rewind.config_batch ~group:4 ());
  ]

let shadow_events arena =
  let s = Arena.stats arena in
  s.Stats.nt_stores + s.Stats.flushes

(* ------------------------------------------------------------------ *)
(* 1. Smoke: every config at 2 and 4 partitions                        *)
(* ------------------------------------------------------------------ *)

let test_smoke (name, cfg0) n_parts () =
  let cfg = Rewind.with_partitions n_parts { cfg0 with Tm.bucket_cap = 8 } in
  let arena = Arena.create ~size_bytes:(32 lsl 20) () in
  let alloc = Alloc.create arena in
  let tm = Tm.create ~cfg alloc ~root_slot in
  check_int (name ^ ": partitions") n_parts (Tm.partitions tm);
  let cells = Array.init 24 (fun _ -> Alloc.alloc alloc 8) in
  (* 2 * n_parts committed transactions: with round-robin homes, every
     partition gets exactly two. *)
  let n_txns = 2 * n_parts in
  for tno = 0 to n_txns - 1 do
    let txn = Tm.begin_txn tm in
    check_int
      (Fmt.str "%s: txn %d home" name txn)
      (tno mod n_parts)
      (Tm.home_partition tm txn);
    for i = 0 to 1 do
      Tm.write tm txn
        ~addr:cells.((2 * tno) + i)
        ~value:(Int64.of_int ((tno * 10) + i + 1))
    done;
    Tm.commit tm txn
  done;
  (* every partition's log saw appends (committed records may already be
     cleared under force policy, so count appends, not length) *)
  Array.iteri
    (fun p n ->
      check_bool (Fmt.str "%s: partition %d used" name p) true (n > 0))
    (Tm.partition_appended tm);
  (* one rolled back, one live *)
  let rb = Tm.begin_txn tm in
  Tm.write tm rb ~addr:cells.(20) ~value:777L;
  Tm.rollback tm rb;
  let live = Tm.begin_txn tm in
  Tm.write tm live ~addr:cells.(21) ~value:888L;
  Arena.crash arena;
  let alloc2 = Alloc.recover arena in
  let san = San.attach ~mode:San.Collect arena in
  let tm2 = Tm.attach ~cfg alloc2 ~root_slot in
  check_int (name ^ ": recovery sanitizer-clean") 0
    (List.length (San.violations san));
  San.detach san;
  for tno = 0 to n_txns - 1 do
    for i = 0 to 1 do
      check_int
        (Fmt.str "%s: committed cell %d" name ((2 * tno) + i))
        ((tno * 10) + i + 1)
        (Int64.to_int (Arena.read arena cells.((2 * tno) + i)))
    done
  done;
  check_int (name ^ ": rolled-back cell") 0
    (Int64.to_int (Arena.read arena cells.(20)));
  check_int (name ^ ": live cell undone") 0
    (Int64.to_int (Arena.read arena cells.(21)));
  (* post-recovery transactions still work, and ids continue past every
     transaction the log still knew about (a live Batch transaction whose
     records never left the cache leaves no trace, so [live] itself need
     not be passed) *)
  let txn = Tm.begin_txn tm2 in
  check_bool (name ^ ": txn ids continue") true (txn > n_txns);
  Tm.write tm2 txn ~addr:cells.(22) ~value:99L;
  Tm.commit tm2 txn;
  check_int (name ^ ": post-recovery commit") 99
    (Int64.to_int (Arena.read arena cells.(22)))

(* ------------------------------------------------------------------ *)
(* 2. Concurrent writers, crash at every persistence event             *)
(* ------------------------------------------------------------------ *)

(* Four fiber writers, each running transactions pinned (by id) across
   the partitions; Batch 4 groups and 8-slot buckets so group flushes
   and bucket rollovers happen constantly and out of phase between
   partitions.  Each transaction writes 3 private cells; recovery must
   make each transaction all-or-nothing. *)
let sweep_threads = 4
let sweep_ops = 3 (* transactions per writer *)

let sweep_cfg n_parts =
  Rewind.with_partitions n_parts
    { (Rewind.config_batch ~group:4 ()) with Tm.bucket_cap = 8 }

let sweep_setup n_parts =
  let arena = Arena.create ~size_bytes:(32 lsl 20) () in
  let alloc = Alloc.create arena in
  let tm = Tm.create ~cfg:(sweep_cfg n_parts) alloc ~root_slot in
  let cells =
    Array.init (sweep_threads * sweep_ops * 3) (fun _ -> Alloc.alloc alloc 8)
  in
  (arena, tm, cells)

(* Deterministic value for (thread, op, i). *)
let sweep_value t op i = Int64.of_int ((((t * 10) + op) * 10) + i + 1)

let sweep_workload tm cells =
  ignore
    (Sim_threads.run ~threads:sweep_threads ~ops_per_thread:sweep_ops
       (fun t op ->
         let txn = Tm.begin_txn tm in
         for i = 0 to 2 do
           Tm.write tm txn
             ~addr:cells.(((t * sweep_ops) + op) * 3 + i)
             ~value:(sweep_value t op i)
         done;
         Tm.commit tm txn))

let test_concurrent_sweep n_parts () =
  (* Dry run: count persistence events of the full concurrent run. *)
  let arena, tm, cells = sweep_setup n_parts in
  let before = shadow_events arena in
  sweep_workload tm cells;
  let events = shadow_events arena - before in
  check_bool
    (Fmt.str "p%d: run persists events" n_parts)
    true (events > 20);
  let tried = ref 0 in
  for k = 1 to events do
    let arena, tm, cells = sweep_setup n_parts in
    Arena.arm_crash arena ~after:(before + k - 1);
    (match sweep_workload tm cells with
    | () -> ()
    | exception Arena.Crash -> ());
    if Arena.crashed arena then begin
      incr tried;
      Arena.crash arena;
      let alloc2 = Alloc.recover arena in
      let san = San.attach ~mode:San.Collect arena in
      let _tm2 = Tm.attach ~cfg:(sweep_cfg n_parts) alloc2 ~root_slot in
      check_int
        (Fmt.str "p%d k=%d: recovery sanitizer-clean" n_parts k)
        0
        (List.length (San.violations san));
      San.detach san;
      (* every transaction all-or-nothing *)
      for t = 0 to sweep_threads - 1 do
        for op = 0 to sweep_ops - 1 do
          let got i = Arena.read arena cells.(((t * sweep_ops) + op) * 3 + i) in
          let all_zero = got 0 = 0L && got 1 = 0L && got 2 = 0L in
          let all_set =
            got 0 = sweep_value t op 0
            && got 1 = sweep_value t op 1
            && got 2 = sweep_value t op 2
          in
          if not (all_zero || all_set) then
            Alcotest.failf
              "p%d: crash at event %d/%d: txn (writer %d, op %d) torn: \
               %Ld/%Ld/%Ld"
              n_parts k events t op (got 0) (got 1) (got 2)
        done
      done
    end
  done;
  check_bool (Fmt.str "p%d: sweep hit crash points" n_parts) true (!tried > 0)

(* ------------------------------------------------------------------ *)
(* 3. Checkpoint crash sweep with partitions                           *)
(* ------------------------------------------------------------------ *)

(* The test_checkpoint regression scenario, sharded: several committed
   transactions overwriting a shared working set (so clearing order
   matters across partitions), one live, then a checkpoint with a crash
   armed at every persistence event inside it. *)
let cp_setup n_parts =
  let cfg =
    Rewind.with_partitions n_parts
      { Rewind.config_1l_nfp with Tm.bucket_cap = 8 }
  in
  let arena = Arena.create ~size_bytes:(32 lsl 20) () in
  let alloc = Alloc.create arena in
  let tm = Tm.create ~cfg alloc ~root_slot in
  let cells = Array.init 16 (fun _ -> Alloc.alloc alloc 8) in
  (arena, tm, cells, cfg)

let cp_workload tm cells =
  let expected = Array.make 16 0L in
  for tno = 1 to 6 do
    let txn = Tm.begin_txn tm in
    for i = 0 to 2 do
      let c = (tno + i) mod 8 in
      let v = Int64.of_int ((tno * 100) + i) in
      Tm.write tm txn ~addr:cells.(c) ~value:v;
      expected.(c) <- v
    done;
    Tm.commit tm txn
  done;
  let live = Tm.begin_txn tm in
  for i = 0 to 2 do
    Tm.write tm live ~addr:cells.(i + 8) ~value:(Int64.of_int (9990 + i))
  done;
  expected

(* The live transaction opens first and writes before and after the
   settled ones, so its first record sits in its partition's oldest
   bucket: that partition keeps a tail that is cleared record by record,
   while every other partition drops all but its current bucket whole.
   Settled transactions round-robin over the partitions and overwrite
   cells 0..7 across them. *)
let cp_workload_live_first tm cells =
  let expected = Array.make 16 0L in
  let live = Tm.begin_txn tm in
  Tm.write tm live ~addr:cells.(8) ~value:9990L;
  for tno = 1 to 8 do
    let txn = Tm.begin_txn tm in
    for i = 0 to 2 do
      let c = (tno + i) mod 8 in
      let v = Int64.of_int ((tno * 100) + i) in
      Tm.write tm txn ~addr:cells.(c) ~value:v;
      expected.(c) <- v
    done;
    Tm.commit tm txn
  done;
  Tm.write tm live ~addr:cells.(9) ~value:9991L;
  Tm.write tm live ~addr:cells.(10) ~value:9992L;
  expected

let test_checkpoint_sweep ?(workload = cp_workload) n_parts () =
  let arena, tm, cells, _ = cp_setup n_parts in
  let _ = workload tm cells in
  let before = shadow_events arena in
  Tm.checkpoint tm;
  let events = shadow_events arena - before in
  check_bool (Fmt.str "p%d: checkpoint persists" n_parts) true (events > 0);
  let tried = ref 0 in
  for k = 1 to events do
    let arena, tm, cells, cfg = cp_setup n_parts in
    let expected = workload tm cells in
    Arena.arm_crash arena ~after:(k - 1);
    (match Tm.checkpoint tm with () -> () | exception Arena.Crash -> ());
    if Arena.crashed arena then begin
      incr tried;
      Arena.crash arena;
      let alloc2 = Alloc.recover arena in
      let san = San.attach ~mode:San.Collect arena in
      let _tm2 = Tm.attach ~cfg alloc2 ~root_slot in
      check_int
        (Fmt.str "p%d k=%d: checkpoint recovery sanitizer-clean" n_parts k)
        0
        (List.length (San.violations san));
      San.detach san;
      Array.iteri
        (fun c exp ->
          let exp = if c >= 8 then 0L else exp in
          let got = Arena.read arena cells.(c) in
          if got <> exp then
            Alcotest.failf
              "p%d: crash at event %d/%d: cell %d = %Ld, want %Ld" n_parts k
              events c got exp)
        expected
    end
  done;
  check_bool (Fmt.str "p%d: sweep hit crash points" n_parts) true (!tried > 0)

(* Coverage of the live-first sweep: before the checkpoint every
   partition spans more than one bucket (so whole buckets can go), and
   the live transaction's partition also holds settled records (so its
   tail is cleared record by record); afterwards only the live
   transaction's three records remain. *)
let test_live_first_shape n_parts () =
  let _, tm, cells, _ = cp_setup n_parts in
  let _ = cp_workload_live_first tm cells in
  let logs = Tm.logs tm in
  Array.iteri
    (fun p log ->
      let _, slots = Log.occupancy_stats log in
      check_bool (Fmt.str "p%d: partition %d spans buckets" n_parts p) true
        (slots > 8))
    logs;
  check_bool (Fmt.str "p%d: live partition holds settled records" n_parts)
    true
    (Log.length logs.(0) > 3);
  Tm.checkpoint tm;
  check_int (Fmt.str "p%d: only the live records remain" n_parts) 3
    (Array.fold_left (fun acc log -> acc + Log.length log) 0 logs)

(* Recovery with a transaction in doubt clears the log selectively, and
   a crash can land mid-way.  Transaction [a] (partition 1) and then [b]
   (partition 0) commit overwrites of cell 0; [p] is prepared.  After a
   crash, the first recovery is itself crashed at every persistence
   event; the second must still find [b]'s value, not [a]'s older one —
   partition 0 can be cleared while partition 1 still holds [a]'s
   record — and [p] still in doubt with its write in place. *)
let indoubt_cfg =
  Rewind.with_partitions 2 { Rewind.config_1l_nfp with Tm.bucket_cap = 8 }

let indoubt_setup () =
  let arena = Arena.create ~size_bytes:(32 lsl 20) () in
  let alloc = Alloc.create arena in
  let tm = Tm.create ~cfg:indoubt_cfg alloc ~root_slot in
  let cells = Array.init 4 (fun _ -> Alloc.alloc alloc 8) in
  let a = Tm.begin_txn ~home:1 tm in
  Tm.write tm a ~addr:cells.(0) ~value:100L;
  Tm.write tm a ~addr:cells.(1) ~value:101L;
  Tm.commit tm a;
  let b = Tm.begin_txn ~home:0 tm in
  Tm.write tm b ~addr:cells.(0) ~value:200L;
  Tm.write tm b ~addr:cells.(2) ~value:201L;
  Tm.commit tm b;
  let p = Tm.begin_txn ~home:0 tm in
  Tm.write tm p ~addr:cells.(3) ~value:300L;
  Tm.prepare tm p ~gtid:7;
  Arena.crash arena;
  (arena, cells, p)

let test_indoubt_recovery_sweep () =
  let arena, _, _ = indoubt_setup () in
  let alloc = Alloc.recover arena in
  let before = shadow_events arena in
  ignore (Tm.attach ~cfg:indoubt_cfg alloc ~root_slot);
  let events = shadow_events arena - before in
  let tried = ref 0 in
  for k = 1 to events do
    let arena, cells, p = indoubt_setup () in
    let alloc = Alloc.recover arena in
    Arena.arm_crash arena ~after:(k - 1);
    (match Tm.attach ~cfg:indoubt_cfg alloc ~root_slot with
    | _ -> ()
    | exception Arena.Crash -> ());
    if Arena.crashed arena then begin
      incr tried;
      Arena.crash arena;
      let alloc2 = Alloc.recover arena in
      let san = San.attach ~mode:San.Collect arena in
      let tm2 = Tm.attach ~cfg:indoubt_cfg alloc2 ~root_slot in
      check_int (Fmt.str "k=%d: sanitizer-clean" k) 0
        (List.length (San.violations san));
      San.detach san;
      Alcotest.(check (list (pair int int)))
        (Fmt.str "k=%d: still in doubt" k)
        [ (p, 7) ] (Tm.in_doubt tm2);
      List.iteri
        (fun c want ->
          let got = Arena.read arena cells.(c) in
          if got <> want then
            Alcotest.failf
              "crash at recovery event %d/%d: cell %d = %Ld, want %Ld" k events
              c got want)
        [ 200L; 101L; 201L; 300L ]
    end
  done;
  check_bool "recovery sweep hit crash points" true (!tried > 0)

(* ------------------------------------------------------------------ *)
(* 4. Properties                                                       *)
(* ------------------------------------------------------------------ *)

(* Merged redo order equals global LSN order: after a random transaction
   history over 1..4 partitions, the stream one-layer recovery replays
   has strictly ascending LSNs and is exactly the union of the
   per-partition logs. *)
let prop_merged_order =
  QCheck.Test.make ~name:"merged stream is the union in global LSN order"
    ~count:100
    QCheck.(pair (int_range 1 4) (list_of_size (Gen.int_range 1 12) (int_bound 5)))
    (fun (n_parts, writes_per_txn) ->
      let cfg =
        Rewind.with_partitions n_parts
          { Rewind.config_1l_nfp with Tm.bucket_cap = 8 }
      in
      let arena = Arena.create ~size_bytes:(32 lsl 20) () in
      let alloc = Alloc.create arena in
      let tm = Tm.create ~cfg alloc ~root_slot in
      let cells = Array.init 8 (fun _ -> Alloc.alloc alloc 8) in
      List.iteri
        (fun tno n ->
          let txn = Tm.begin_txn tm in
          for i = 0 to n - 1 do
            Tm.write tm txn
              ~addr:cells.((tno + i) mod 8)
              ~value:(Int64.of_int ((tno * 100) + i))
          done;
          (* leave every third transaction live so the logs keep records *)
          if tno mod 3 <> 0 then Tm.commit tm txn)
        writes_per_txn;
      let merged = Tm.merged_log_records tm in
      let lsns = List.map (fun r -> Record.lsn arena r) merged in
      let rec ascending = function
        | a :: (b :: _ as rest) -> a < b && ascending rest
        | _ -> true
      in
      let union =
        Array.to_list (Tm.logs tm)
        |> List.concat_map (fun log -> Log.records log)
        |> List.sort compare
      in
      ascending lsns && List.sort compare merged = union)

(* Caller-chosen homes are recovery-stable: over a random history whose
   transactions mix explicit [~home] pins with round-robin defaults,
   (a) the id arithmetic puts every pinned transaction on its requested
   partition; (b) after a crash, [attach]'s recomputed homes equal the
   pre-crash ones and a fresh pinned transaction gets an id past every
   pre-crash id while landing on the requested partition (the reseeded
   per-partition counters must skip the history's ids in *every*
   residue class, not just the busiest); and (c) the recovered cell
   state is identical to the same history run at 1 partition — pinning
   redistributes log records, never outcomes. *)
let prop_home_stability =
  QCheck.Test.make ~name:"home pinning is recovery-stable" ~count:60
    QCheck.(
      pair (int_range 1 4)
        (list_of_size (Gen.int_range 1 10)
           (pair (option (int_bound 3)) (int_bound 4))))
    (fun (n_parts, txns) ->
      (* the shrinker can propose values outside the generator's range *)
      let n_parts = max 1 (min 4 n_parts) in
      let run n_parts =
        let cfg =
          Rewind.with_partitions n_parts
            { Rewind.config_1l_nfp with Tm.bucket_cap = 8 }
        in
        let arena = Arena.create ~size_bytes:(32 lsl 20) () in
        let alloc = Alloc.create arena in
        let tm = Tm.create ~cfg alloc ~root_slot in
        let cells = Array.init 8 (fun _ -> Alloc.alloc alloc 8) in
        let homes = ref [] in
        let pinned_ok = ref true in
        List.iteri
          (fun tno (home_opt, writes) ->
            let home = Option.map (fun h -> h mod n_parts) home_opt in
            let txn = Tm.begin_txn ?home tm in
            homes := (txn, Tm.home_partition tm txn, writes) :: !homes;
            (match home with
            | Some h -> if Tm.home_partition tm txn <> h then pinned_ok := false
            | None -> ());
            for i = 0 to writes - 1 do
              Tm.write tm txn
                ~addr:cells.((tno + i) mod 8)
                ~value:(Int64.of_int ((tno * 100) + i))
            done;
            (* every fourth transaction stays live across the crash *)
            if tno mod 4 <> 3 then Tm.commit tm txn)
          txns;
        Arena.crash arena;
        let alloc2 = Alloc.recover arena in
        let tm2 = Tm.attach ~cfg alloc2 ~root_slot in
        let stable =
          List.for_all (fun (txn, h, _) -> Tm.home_partition tm2 txn = h) !homes
        in
        (* A transaction that never wrote leaves no log records, so
           recovery cannot know its id; the reseeded counters only
           promise fresh ids past every *logged* transaction. *)
        let max_logged =
          List.fold_left
            (fun a (t, _, writes) -> if writes > 0 then max a t else a)
            0 !homes
        in
        let want = max_logged mod n_parts in
        let fresh = Tm.begin_txn ~home:want tm2 in
        let fresh_ok =
          fresh > max_logged && Tm.home_partition tm2 fresh = want
        in
        ( !pinned_ok && stable && fresh_ok,
          Array.map (fun c -> Arena.read arena c) cells )
      in
      let ok_n, state_n = run n_parts in
      let ok_1, state_1 = run 1 in
      ok_n && ok_1 && state_n = state_1)

(* After a checkpoint each partition holds exactly the records of its
   still-open transactions — one of them prepared (in doubt) — its bucket
   bookkeeping is coherent, and no bucket but the current one is empty.
   Each generated transaction is (writes, outcome): 0 commit, 1 roll
   back, 2 stay open; the transaction at index [prepared] is prepared
   instead.  The history runs twice with a checkpoint after each round,
   and the open transactions write once more before each checkpoint, so
   their records straddle settled ones and the second checkpoint relies
   on the first one's notes (compaction moves records). *)
let prop_checkpoint_leaves_open =
  let variants =
    [|
      ("optimized", Rewind.config_1l_nfp);
      ("batch8", Rewind.config_batch ());
      ("simple", Rewind.config_simple);
    |]
  in
  QCheck.Test.make ~name:"checkpoint leaves exactly the open transactions"
    ~count:150
    QCheck.(
      quad (int_bound 2) (int_bound 2) (int_bound 11)
        (list_of_size (Gen.int_range 1 12)
           (pair (int_range 1 4) (int_bound 2))))
    (fun (v, np, prepared, txns) ->
      let name, cfg0 = variants.(v mod 3) in
      let n_parts = [| 1; 2; 4 |].(np mod 3) in
      let cfg =
        Rewind.with_partitions n_parts { cfg0 with Tm.bucket_cap = 8 }
      in
      let arena = Arena.create ~size_bytes:(32 lsl 20) () in
      let alloc = Alloc.create arena in
      let tm = Tm.create ~cfg alloc ~root_slot in
      let cells = Array.init 16 (fun _ -> Alloc.alloc alloc 8) in
      (* the shrinker can propose an empty history *)
      let prepared = prepared mod max 1 (List.length txns) in
      let still_open = ref [] in
      let key r =
        (Record.lsn arena r, Record.txn arena r, Record.typ arena r)
      in
      let round n =
        List.iteri
          (fun tno (writes, outcome) ->
            let txn = Tm.begin_txn tm in
            for i = 0 to writes - 1 do
              Tm.write tm txn
                ~addr:cells.((tno + i) mod 16)
                ~value:(Int64.of_int ((n * 1000) + (tno * 100) + i))
            done;
            if n = 0 && tno = prepared then begin
              Tm.prepare tm txn ~gtid:(1000 + tno);
              still_open := txn :: !still_open
            end
            else
              match outcome with
              | 0 -> Tm.commit tm txn
              | 1 -> Tm.rollback tm txn
              | _ -> still_open := txn :: !still_open)
          txns;
        List.iter
          (fun txn ->
            if not (List.mem_assoc txn (Tm.in_doubt tm)) then
              Tm.write tm txn
                ~addr:cells.(txn mod 16)
                ~value:(Int64.of_int txn))
          !still_open;
        let open_records log =
          Log.records log
          |> List.filter (fun r -> List.mem (Record.txn arena r) !still_open)
          |> List.map key |> List.sort compare
        in
        let want = Array.map open_records (Tm.logs tm) in
        Tm.checkpoint tm;
        Array.iteri
          (fun p log ->
            let got = List.sort compare (List.map key (Log.records log)) in
            let buckets = Log.live_per_bucket log in
            let behind_current =
              List.filteri (fun i _ -> i < List.length buckets - 1) buckets
            in
            if
              got <> want.(p)
              || Log.check_occupancy log <> []
              || List.exists (fun n -> n <= 0) behind_current
            then
              QCheck.Test.fail_reportf
                "%s x%d: partition %d after checkpoint %d" name n_parts p n)
          (Tm.logs tm)
      in
      round 0;
      round 1;
      true)

(* Same history, 1 vs 4 partitions: identical recovered state. *)
let test_equivalence () =
  let run n_parts =
    let cfg =
      Rewind.with_partitions n_parts
        { Rewind.config_1l_nfp with Tm.bucket_cap = 8 }
    in
    let arena = Arena.create ~size_bytes:(32 lsl 20) () in
    let alloc = Alloc.create arena in
    let tm = Tm.create ~cfg alloc ~root_slot in
    let cells = Array.init 8 (fun _ -> Alloc.alloc alloc 8) in
    for tno = 1 to 7 do
      let txn = Tm.begin_txn tm in
      for i = 0 to 2 do
        Tm.write tm txn
          ~addr:cells.((tno + i) mod 8)
          ~value:(Int64.of_int ((tno * 100) + i))
      done;
      if tno mod 3 = 0 then Tm.rollback tm txn
      else if tno <> 7 then Tm.commit tm txn
      (* txn 7 stays live *)
    done;
    Arena.crash arena;
    let alloc2 = Alloc.recover arena in
    let _tm2 = Tm.attach ~cfg alloc2 ~root_slot in
    Array.map (fun c -> Arena.read arena c) cells
  in
  let one = run 1 and four = run 4 in
  Array.iteri
    (fun i v ->
      check_int (Fmt.str "cell %d equal across partition counts" i)
        (Int64.to_int v)
        (Int64.to_int four.(i)))
    one

(* ------------------------------------------------------------------ *)

let () =
  let per_config n_parts =
    List.map
      (fun (cn, cfg) ->
        Alcotest.test_case
          (Fmt.str "smoke [%s x%d]" cn n_parts)
          `Quick
          (test_smoke (cn, cfg) n_parts))
      all_configs
  in
  Alcotest.run "partition"
    [
      ("smoke-2", per_config 2);
      ("smoke-4", per_config 4);
      ( "concurrent-crash-sweep",
        [
          Alcotest.test_case "2 partitions, crash at every event" `Slow
            (test_concurrent_sweep 2);
          Alcotest.test_case "4 partitions, crash at every event" `Slow
            (test_concurrent_sweep 4);
        ] );
      ( "checkpoint-crash-sweep",
        [
          Alcotest.test_case "2 partitions" `Slow (test_checkpoint_sweep 2);
          Alcotest.test_case "4 partitions" `Slow (test_checkpoint_sweep 4);
          Alcotest.test_case "2 partitions, live transaction first" `Slow
            (test_checkpoint_sweep ~workload:cp_workload_live_first 2);
          Alcotest.test_case "4 partitions, live transaction first" `Slow
            (test_checkpoint_sweep ~workload:cp_workload_live_first 4);
          Alcotest.test_case "live-first sweep reaches both clearing paths"
            `Quick (fun () ->
              test_live_first_shape 2 ();
              test_live_first_shape 4 ());
          Alcotest.test_case "crash inside recovery with a txn in doubt"
            `Quick test_indoubt_recovery_sweep;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_merged_order;
          QCheck_alcotest.to_alcotest prop_home_stability;
          QCheck_alcotest.to_alcotest prop_checkpoint_leaves_open;
          Alcotest.test_case "1 vs 4 partitions recover identically" `Quick
            test_equivalence;
        ] );
    ]

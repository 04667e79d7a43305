(* Tests for the extensions beyond the paper's core: log compaction
   (Section 3.3), partial rollback via savepoints, the autotuner
   (Section 7) and the lock-free log latch (Section 7). *)

open Rewind_nvm
open Rewind

let root_slot = 2

let fresh ?(cfg = Rewind.config_1l_nfp) () =
  let arena = Arena.create ~size_bytes:(32 lsl 20) () in
  let alloc = Alloc.create arena in
  let tm = Tm.create ~cfg alloc ~root_slot in
  (arena, alloc, tm)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_i64 = Alcotest.(check int64)

(* ------------------------------------------------------------------ *)
(* Log compaction                                                      *)
(* ------------------------------------------------------------------ *)

let mk_record alloc ~lsn ~txn =
  Record.make alloc ~lsn ~txn ~typ:Record.Update ~addr:(8 * lsn) ~old_value:0L
    ~new_value:(Int64.of_int lsn) ~undo_next:0 ~prev_same_txn:0

let test_compact_squeezes_gaps () =
  let arena = Arena.create ~size_bytes:(32 lsl 20) () in
  let alloc = Alloc.create arena in
  let log = Log.create Log.Optimized ~bucket_cap:10 alloc ~root_slot in
  for i = 1 to 200 do
    Log.append log (mk_record alloc ~lsn:i ~txn:(i mod 5))
  done;
  (* clear four of five transactions: 80 % gaps *)
  Log.remove_where log (fun r -> Record.txn arena r <> 1);
  let live_before, slots_before = Log.occupancy_stats log in
  check_bool "mostly gaps" true (float_of_int live_before /. float_of_int slots_before < 0.5);
  check_bool "log rewritten" true (Log.compact log);
  let live_after, slots_after = Log.occupancy_stats log in
  check_int "no record lost" live_before live_after;
  check_bool "dense after compaction" true
    (float_of_int live_after /. float_of_int slots_after > 0.9);
  (* order preserved *)
  let lsns = List.map (Record.lsn arena) (Log.records log) in
  check_bool "ascending order preserved" true (lsns = List.sort compare lsns)

let test_compact_noop_when_dense () =
  let arena = Arena.create ~size_bytes:(32 lsl 20) () in
  let alloc = Alloc.create arena in
  let log = Log.create Log.Optimized ~bucket_cap:10 alloc ~root_slot in
  for i = 1 to 50 do
    Log.append log (mk_record alloc ~lsn:i ~txn:1)
  done;
  let before = Log.records log in
  check_bool "not rewritten" false (Log.compact log);
  Alcotest.(check (list int)) "untouched" before (Log.records log);
  ignore arena

let test_compact_survives_crash () =
  (* crash at every point during a compaction: recovery must find either
     the old (gappy) or the new (dense) log, with the same live records *)
  let k = ref 0 in
  let completed = ref false in
  while not !completed do
    let arena = Arena.create ~size_bytes:(32 lsl 20) () in
    let alloc = Alloc.create arena in
    let log = Log.create Log.Optimized ~bucket_cap:8 alloc ~root_slot in
    for i = 1 to 64 do
      Log.append log (mk_record alloc ~lsn:i ~txn:(i mod 4))
    done;
    Log.remove_where log (fun r -> Record.txn arena r <> 1);
    let expect = List.map (Record.lsn arena) (Log.records log) in
    Arena.arm_crash arena ~after:!k;
    (try
       ignore (Log.compact log);
       Arena.disarm_crash arena;
       completed := true
     with Arena.Crash -> ());
    if Arena.crashed arena then begin
      let alloc2 = Alloc.recover arena in
      let log2 = Log.attach Log.Optimized ~bucket_cap:8 alloc2 ~root_slot in
      let got = List.map (Record.lsn arena) (Log.records log2) in
      if got <> expect then
        Alcotest.failf "crash %d: records changed ([%s] vs [%s])" !k
          (String.concat ";" (List.map string_of_int got))
          (String.concat ";" (List.map string_of_int expect))
    end;
    incr k
  done

let test_checkpoint_triggers_compaction () =
  (* a long-running transaction pins records across buckets while others
     clear: the checkpoint's compaction keeps the slot count bounded *)
  let _, alloc, tm = fresh ~cfg:{ Rewind.config_1l_nfp with bucket_cap = 16 } () in
  let cell = Alloc.alloc alloc 8 in
  let long = Tm.begin_txn tm in
  Tm.write tm long ~addr:cell ~value:1L;
  for _ = 1 to 50 do
    Tm.atomically tm (fun txn -> Tm.write tm txn ~addr:cell ~value:9L)
  done;
  Tm.write tm long ~addr:cell ~value:2L;
  Tm.checkpoint tm;
  let live, slots = Log.occupancy_stats (Tm.log tm) in
  check_bool "compacted around the long transaction" true (slots <= 4 * max 1 live);
  Tm.commit tm long

(* ------------------------------------------------------------------ *)
(* Savepoints / partial rollback                                       *)
(* ------------------------------------------------------------------ *)

let savepoint_configs =
  [ ("1L-NFP", Rewind.config_1l_nfp); ("1L-FP", Rewind.config_1l_fp);
    ("2L-NFP", Rewind.config_2l_nfp) ]

let test_savepoint_basic cfg () =
  let arena, alloc, tm = fresh ~cfg () in
  let a = Alloc.alloc alloc 8 and b = Alloc.alloc alloc 8 in
  let txn = Tm.begin_txn tm in
  Tm.write tm txn ~addr:a ~value:1L;
  let sp = Tm.savepoint tm txn in
  Tm.write tm txn ~addr:a ~value:2L;
  Tm.write tm txn ~addr:b ~value:3L;
  Tm.rollback_to tm txn sp;
  check_i64 "a back to pre-savepoint" 1L (Arena.read arena a);
  check_i64 "b undone" 0L (Arena.read arena b);
  (* the transaction continues and commits *)
  Tm.write tm txn ~addr:b ~value:7L;
  Tm.commit tm txn;
  check_i64 "pre-savepoint survives" 1L (Arena.read arena a);
  check_i64 "post-rollback write survives" 7L (Arena.read arena b)

let test_savepoint_nested cfg () =
  let arena, alloc, tm = fresh ~cfg () in
  let a = Alloc.alloc alloc 8 in
  let txn = Tm.begin_txn tm in
  Tm.write tm txn ~addr:a ~value:1L;
  let sp1 = Tm.savepoint tm txn in
  Tm.write tm txn ~addr:a ~value:2L;
  let sp2 = Tm.savepoint tm txn in
  Tm.write tm txn ~addr:a ~value:3L;
  Tm.rollback_to tm txn sp2;
  check_i64 "inner rollback" 2L (Arena.read arena a);
  Tm.rollback_to tm txn sp1;
  check_i64 "outer rollback" 1L (Arena.read arena a);
  Tm.commit tm txn;
  check_i64 "committed" 1L (Arena.read arena a)

let test_savepoint_then_full_rollback cfg () =
  let arena, alloc, tm = fresh ~cfg () in
  let a = Alloc.alloc alloc 8 in
  Tm.atomically tm (fun txn -> Tm.write tm txn ~addr:a ~value:5L);
  let txn = Tm.begin_txn tm in
  Tm.write tm txn ~addr:a ~value:6L;
  let sp = Tm.savepoint tm txn in
  Tm.write tm txn ~addr:a ~value:7L;
  Tm.rollback_to tm txn sp;
  Tm.write tm txn ~addr:a ~value:8L;
  Tm.rollback tm txn;
  check_i64 "full rollback to committed state" 5L (Arena.read arena a)

let test_savepoint_crash_after_partial cfg () =
  (* crash after a partial rollback: the whole transaction is undone and
     the partial rollback's CLRs don't confuse recovery *)
  let k = ref 0 in
  let completed = ref false in
  while not !completed do
    let arena, alloc, tm = fresh ~cfg () in
    let a = Alloc.alloc alloc 8 and b = Alloc.alloc alloc 8 in
    Tm.atomically tm (fun txn -> Tm.write tm txn ~addr:a ~value:10L);
    Arena.arm_crash arena ~after:!k;
    (try
       let txn = Tm.begin_txn tm in
       Tm.write tm txn ~addr:a ~value:11L;
       let sp = Tm.savepoint tm txn in
       Tm.write tm txn ~addr:a ~value:12L;
       Tm.write tm txn ~addr:b ~value:13L;
       Tm.rollback_to tm txn sp;
       Tm.write tm txn ~addr:b ~value:14L;
       (* crash before commit: everything must roll back *)
       Arena.disarm_crash arena;
       completed := true
     with Arena.Crash -> ());
    if Arena.crashed arena then begin
      let alloc2 = Alloc.recover arena in
      let _tm2 = Tm.attach ~cfg alloc2 ~root_slot in
      check_i64 (Fmt.str "crash %d: a" !k) 10L (Arena.read arena a);
      check_i64 (Fmt.str "crash %d: b" !k) 0L (Arena.read arena b)
    end
    else begin
      (* completed without crash: the still-open transaction must roll
         back at recovery after an explicit crash *)
      Arena.crash arena;
      let alloc2 = Alloc.recover arena in
      let _tm2 = Tm.attach ~cfg alloc2 ~root_slot in
      check_i64 "uncommitted undone" 10L (Arena.read arena a)
    end;
    incr k
  done

let crash_crossing_configs =
  [ ("1L-NFP", Rewind.config_1l_nfp); ("1L-FP", Rewind.config_1l_fp);
    ("2L-NFP", Rewind.config_2l_nfp); ("2L-FP", Rewind.config_2l_fp);
    ("simple", Rewind.config_simple); ("batch", Rewind.config_batch ()) ]

let test_rollback_to_crosses_crash cfg () =
  (* crash at every persistence event *during* a partial rollback:
     recovery must settle at the transaction start (crashed while open)
     or, if the rollback completed and the transaction committed, at the
     savepoint state — never at an intermediate post-savepoint state *)
  let k = ref 0 in
  let completed = ref false in
  while not !completed do
    let arena, alloc, tm = fresh ~cfg () in
    let a = Alloc.alloc alloc 8 and b = Alloc.alloc alloc 8
    and c = Alloc.alloc alloc 8 in
    Tm.atomically tm (fun txn ->
        Tm.write tm txn ~addr:a ~value:1L;
        Tm.write tm txn ~addr:b ~value:2L);
    let txn = Tm.begin_txn tm in
    Tm.write tm txn ~addr:a ~value:10L;
    let sp = Tm.savepoint tm txn in
    Tm.write tm txn ~addr:a ~value:20L;
    Tm.write tm txn ~addr:b ~value:21L;
    Tm.write tm txn ~addr:c ~value:22L;
    Arena.arm_crash arena ~after:!k;
    (try
       Tm.rollback_to tm txn sp;
       Arena.disarm_crash arena;
       completed := true
     with Arena.Crash -> ());
    if Arena.crashed arena then begin
      let alloc2 = Alloc.recover arena in
      let _tm2 = Tm.attach ~cfg alloc2 ~root_slot in
      check_i64 (Fmt.str "crash %d: a at txn start" !k) 1L (Arena.read arena a);
      check_i64 (Fmt.str "crash %d: b at txn start" !k) 2L (Arena.read arena b);
      check_i64 (Fmt.str "crash %d: c at txn start" !k) 0L (Arena.read arena c)
    end
    else begin
      Tm.commit tm txn;
      Arena.crash arena;
      let alloc2 = Alloc.recover arena in
      let _tm2 = Tm.attach ~cfg alloc2 ~root_slot in
      check_i64 "a keeps the pre-savepoint write" 10L (Arena.read arena a);
      check_i64 "b back at the savepoint state" 2L (Arena.read arena b);
      check_i64 "c back at the savepoint state" 0L (Arena.read arena c)
    end;
    incr k
  done

let test_savepoint_drops_deletes () =
  let _, alloc, tm = fresh ~cfg:Rewind.config_1l_fp () in
  let region = Alloc.alloc alloc 48 in
  let txn = Tm.begin_txn tm in
  let sp = Tm.savepoint tm txn in
  Tm.log_delete tm txn ~addr:region ~size:48;
  Tm.rollback_to tm txn sp;
  Tm.commit tm txn;
  (* the delete was requested after the savepoint: commit must not free *)
  let o = Alloc.alloc alloc 48 in
  check_bool "region not reused" true (o <> region)

(* ------------------------------------------------------------------ *)
(* Autotune                                                            *)
(* ------------------------------------------------------------------ *)

let test_autotune_low_interleave () =
  let a = Autotune.create () in
  (* sequential transactions: no interleaving *)
  for t = 1 to 50 do
    Autotune.on_begin a t;
    for _ = 1 to 20 do
      Autotune.on_write a t
    done;
    Autotune.on_commit a t
  done;
  let cfg = Autotune.recommend a in
  check_bool "one layer for sequential work" true (cfg.Rewind.layers = Tm.One_layer);
  check_bool "no-force for long txns" true (cfg.Rewind.policy = Tm.No_force)

let test_autotune_high_interleave_with_rollbacks () =
  let a = Autotune.create () in
  (* 600 concurrent transactions in round-robin: interleave ~599 *)
  let txns = List.init 600 (fun i -> i + 1) in
  List.iter (fun t -> Autotune.on_begin a t) txns;
  for _round = 1 to 10 do
    List.iter (fun t -> Autotune.on_write a t) txns
  done;
  List.iteri
    (fun i t -> if i mod 10 = 0 then Autotune.on_rollback a t else Autotune.on_commit a t)
    txns;
  check_bool "interleave estimated" true (Autotune.avg_interleave a > 400.);
  check_bool "rollback rate seen" true (Autotune.rollback_rate a > 0.05);
  let cfg = Autotune.recommend a in
  check_bool "two layers recommended" true (cfg.Rewind.layers = Tm.Two_layer)

let test_autotune_short_txns_force () =
  let a = Autotune.create () in
  for t = 1 to 100 do
    Autotune.on_begin a t;
    Autotune.on_write a t;
    Autotune.on_write a t;
    Autotune.on_commit a t
  done;
  let cfg = Autotune.recommend a in
  check_bool "force for short transactions" true (cfg.Rewind.policy = Tm.Force)

let test_autotune_empty () =
  let a = Autotune.create () in
  let cfg = Autotune.recommend a in
  check_bool "defaults on no data" true
    (cfg.Rewind.layers = Tm.One_layer && cfg.Rewind.policy = Tm.No_force)

(* Regression: a small-write-dominated feed must pin the Optimized
   variant (the inline fast path's home), even at transaction lengths
   that would otherwise tip the advisor to Batch. *)
let test_autotune_small_writes_pin_optimized () =
  let a = Autotune.create () in
  for t = 1 to 50 do
    Autotune.on_begin a t;
    for i = 1 to 20 do
      Autotune.on_write ~word_sized:(i mod 10 <> 0) a t
    done;
    Autotune.on_commit a t
  done;
  check_bool "small fraction measured" true
    (Autotune.small_write_fraction a >= Autotune.inline_small_write_threshold);
  let cfg = Autotune.recommend a in
  check_bool "optimized pinned for small writes" true
    (cfg.Rewind.variant = Log.Optimized)

let test_autotune_bulk_writes_batch () =
  let a = Autotune.create () in
  (* same lengths, but nothing word-sized: long txns amortise under Batch *)
  for t = 1 to 50 do
    Autotune.on_begin a t;
    for _ = 1 to 20 do
      Autotune.on_write a t
    done;
    Autotune.on_commit a t
  done;
  let cfg = Autotune.recommend a in
  check_bool "batch for bulk update-heavy work" true
    (cfg.Rewind.variant = Log.Batch Autotune.batch_group_size)

(* ------------------------------------------------------------------ *)
(* Lock-free latch                                                     *)
(* ------------------------------------------------------------------ *)

let test_lockfree_correctness () =
  let cfg = Rewind.config_lockfree () in
  let arena, alloc, tm = fresh ~cfg () in
  let c = Array.init 4 (fun _ -> Alloc.alloc alloc 8) in
  Tm.atomically tm (fun txn ->
      Array.iteri (fun i a -> Tm.write tm txn ~addr:a ~value:(Int64.of_int i)) c);
  let txn = Tm.begin_txn tm in
  Tm.write tm txn ~addr:c.(0) ~value:99L;
  Arena.crash arena;
  let alloc2 = Alloc.recover arena in
  let _tm2 = Tm.attach ~cfg alloc2 ~root_slot in
  check_i64 "committed kept" 0L (Arena.read arena c.(0));
  check_i64 "committed kept" 3L (Arena.read arena c.(3))

let test_lockfree_scales_better () =
  (* under the fiber scheduler, shared-log REWIND with the lock-free latch
     must beat the latched version at high thread counts *)
  let run cfg =
    let arena = Arena.create ~size_bytes:(64 lsl 20) () in
    let alloc = Alloc.create arena in
    let tm = Tm.create ~cfg alloc ~root_slot in
    let cells = Array.init 8 (fun _ -> Alloc.alloc alloc 8) in
    Sim_threads.run ~threads:8 ~ops_per_thread:200 (fun t i ->
        let txn = Tm.begin_txn tm in
        Tm.write tm txn ~addr:cells.(t) ~value:(Int64.of_int i);
        Tm.commit tm txn)
  in
  let latched = run (Rewind.config_batch ()) in
  let lockfree = run (Rewind.config_lockfree ()) in
  check_bool
    (Fmt.str "lock-free (%dns) beats latched (%dns)" lockfree latched)
    true (lockfree < latched)

let () =
  let tc = Alcotest.test_case in
  let per_cfg name f =
    List.map (fun (cn, cfg) -> tc (name ^ " [" ^ cn ^ "]") `Quick (f cfg))
      savepoint_configs
  in
  Alcotest.run "extensions"
    [
      ( "compaction",
        [
          tc "squeezes gaps" `Quick test_compact_squeezes_gaps;
          tc "noop when dense" `Quick test_compact_noop_when_dense;
          tc "crash during compaction" `Slow test_compact_survives_crash;
          tc "checkpoint triggers it" `Quick test_checkpoint_triggers_compaction;
        ] );
      ( "savepoints",
        per_cfg "basic" test_savepoint_basic
        @ per_cfg "nested" test_savepoint_nested
        @ per_cfg "then full rollback" test_savepoint_then_full_rollback
        @ [
            tc "crash after partial [1L-NFP]" `Slow
              (test_savepoint_crash_after_partial Rewind.config_1l_nfp);
            tc "crash after partial [1L-FP]" `Slow
              (test_savepoint_crash_after_partial Rewind.config_1l_fp);
            tc "drops post-savepoint deletes" `Quick test_savepoint_drops_deletes;
          ]
        @ List.map
            (fun (cn, cfg) ->
              tc
                ("rollback_to crosses crash [" ^ cn ^ "]")
                `Slow
                (test_rollback_to_crosses_crash cfg))
            crash_crossing_configs );
      ( "autotune",
        [
          tc "low interleave -> 1L" `Quick test_autotune_low_interleave;
          tc "high interleave + rollbacks -> 2L" `Quick
            test_autotune_high_interleave_with_rollbacks;
          tc "short txns -> force" `Quick test_autotune_short_txns_force;
          tc "empty -> defaults" `Quick test_autotune_empty;
          tc "small writes -> optimized (inline)" `Quick
            test_autotune_small_writes_pin_optimized;
          tc "bulk writes -> batch" `Quick test_autotune_bulk_writes_batch;
        ] );
      ( "lockfree",
        [
          tc "correctness + recovery" `Quick test_lockfree_correctness;
          tc "scales better" `Quick test_lockfree_scales_better;
        ] );
    ]

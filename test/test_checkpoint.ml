(* Crash-consistency of [Tm.checkpoint] itself, in every configuration.

   The cache-consistent checkpoint (Section 4.6) runs with transactions
   still in flight, and its clearing/compaction steps rewrite the log in
   place — so a crash *inside* the checkpoint is the hardest recovery
   case this codebase has: the CHECKPOINT record may or may not be
   durable, settled transactions' records may be half-removed, and
   compaction may have copied part of the log into a fresh chain.

   Two attacks:

   1. an exhaustive sweep that arms a crash at every single persistence
      event (non-temporal store or line write-back) inside the
      checkpoint, recovers, and checks full cell-level state — committed
      values intact, live transaction undone.  This is the regression
      test for the clearing-order bug: removing settled transactions'
      records per-transaction instead of in global LSN order let a crash
      mid-clearing resurrect stale values through redo (a committed
      overwrite's record could outlive the overwriting record, losing
      the later value).

   2. the crash-state enumerator over a small commit/checkpoint trace,
      with the persistency sanitizer attached, which additionally
      explores the cache states (which dirty lines survived) at every
      fence boundary inside the checkpoint. *)

open Rewind_nvm
open Rewind
module San = Rewind_analysis.Sanitizer
module Enum = Rewind_analysis.Enumerator

let root_slot = 2

let all_configs =
  [
    ("1l-nfp", Rewind.config_1l_nfp);
    ("1l-fp", Rewind.config_1l_fp);
    ("2l-nfp", Rewind.config_2l_nfp);
    ("2l-fp", Rewind.config_2l_fp);
    ("simple", Rewind.config_simple);
    ("batch8", Rewind.config_batch ());
  ]

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let shadow_events arena =
  let s = Arena.stats arena in
  s.Stats.nt_stores + s.Stats.flushes

(* ------------------------------------------------------------------ *)
(* 1. Crash at every persistence event inside the checkpoint           *)
(* ------------------------------------------------------------------ *)

(* Small buckets so the checkpoint's clearing pass leaves sparse buckets
   behind and its compaction step actually runs. *)
let setup cfg =
  let cfg = { cfg with Tm.bucket_cap = 8 } in
  let arena = Arena.create ~size_bytes:(32 lsl 20) () in
  let alloc = Alloc.create arena in
  let tm = Tm.create ~cfg alloc ~root_slot in
  let cells = Array.init 16 (fun _ -> Alloc.alloc alloc 8) in
  (arena, tm, cells, cfg)

(* Four committed transactions overwriting a shared working set (so the
   log holds several records per cell, in LSN order), plus one left in
   flight.  Cells 8..10 belong to the live transaction and must recover
   to zero.  The live transaction writes before the first committed
   transaction and before the last, with values too wide for an inline
   pair, so each of its records takes one slot.  Its first record keeps
   its bucket in the log, clearing leaves fewer than a quarter of the
   remaining slots live, and the checkpoint's compaction rewrites the
   log. *)
let workload tm cells =
  let expected = Array.make 16 0L in
  let live = Tm.begin_txn tm in
  let live_write i =
    Tm.write tm live ~addr:cells.(8 + i) ~value:(Int64.of_int (0x1_0000 + i))
  in
  live_write 0;
  for tno = 1 to 4 do
    if tno = 4 then begin
      live_write 1;
      live_write 2
    end;
    let txn = Tm.begin_txn tm in
    for i = 0 to 2 do
      let c = (tno + i) mod 8 in
      let v = Int64.of_int ((tno * 100) + i) in
      Tm.write tm txn ~addr:cells.(c) ~value:v;
      expected.(c) <- v
    done;
    Tm.commit tm txn
  done;
  expected

let test_crash_sweep (name, cfg0) () =
  (* Dry run: count the persistence events inside an uninterrupted
     checkpoint, and prove the sweep's coverage claims — under no-force
     the clearing pass has settled records to remove, and for the
     bucketed no-force configs the occupancy drops far enough that
     compaction rewrites the log.  Compaction runs last, so the sweep's
     final [compact_events] crash points land mid-compaction (the last
     one just before the root swings to the new log). *)
  let arena, tm, cells, _ = setup cfg0 in
  let _ = workload tm cells in
  let log_before = Log.length (Tm.log tm) in
  let probe = Probe.create () in
  Tm.set_probe tm (Some probe);
  let before = shadow_events arena in
  Tm.checkpoint tm;
  let events = shadow_events arena - before in
  let compact_events =
    match Probe.find probe "cp-compact" with
    | Some ph -> ph.Probe.stats.Stats.nt_stores + ph.Probe.stats.Stats.flushes
    | None -> 0
  in
  check_bool (name ^ ": checkpoint persists something") true (events > 0);
  (* two-layer configs keep user records in the AVL index rather than the
     bucket log, so the log-shape claims only apply to one-layer *)
  if cfg0.Tm.policy = Tm.No_force && cfg0.Tm.layers = Tm.One_layer then begin
    check_bool (name ^ ": clearing had records to remove") true
      (log_before > Log.length (Tm.log tm));
    if cfg0.Tm.variant <> Log.Simple then
      check_bool (name ^ ": compaction rewrote the log") true
        (compact_events > 0)
  end;
  (* The sweep proper: crash at the k-th event, recover, check state. *)
  let tried = ref 0 and mid_compaction = ref 0 in
  for k = 1 to events do
    let arena, tm, cells, cfg = setup cfg0 in
    let expected = workload tm cells in
    Arena.arm_crash arena ~after:(k - 1);
    (match Tm.checkpoint tm with () -> () | exception Arena.Crash -> ());
    if Arena.crashed arena then begin
      incr tried;
      if k > events - compact_events then incr mid_compaction;
      Arena.crash arena;
      let alloc2 = Alloc.recover arena in
      let san = San.attach ~mode:San.Collect arena in
      let _tm2 = Tm.attach ~cfg alloc2 ~root_slot in
      check_int
        (Fmt.str "%s k=%d: recovery is sanitizer-clean" name k)
        0
        (List.length (San.violations san));
      San.detach san;
      Array.iteri
        (fun c exp ->
          let exp = if c >= 8 then 0L else exp in
          let got = Arena.read arena cells.(c) in
          if got <> exp then
            Alcotest.failf "%s: crash at event %d/%d: cell %d = %Ld, want %Ld"
              name k events c got exp)
        expected
    end
  done;
  check_bool (name ^ ": sweep hit crash points") true (!tried > 0);
  check_int (name ^ ": sweep crashed at every compaction event")
    compact_events !mid_compaction

(* ------------------------------------------------------------------ *)
(* 2. Enumerated crash states through a checkpoint, sanitizer attached *)
(* ------------------------------------------------------------------ *)

(* Two one-write committed transactions and one in flight, then a
   checkpoint.  Commit order pins the legal recovered states: b=9
   implies a=7 (t2's END cannot be durable before t1's), and the live
   write to c must always be undone. *)
let test_enumerate_checkpoint (name, cfg0) () =
  let cfg = { cfg0 with Tm.bucket_cap = 4 } in
  let arena = Arena.create ~size_bytes:(1 lsl 20) () in
  let alloc = Alloc.create arena in
  let tm = Tm.create ~cfg alloc ~root_slot in
  let a = Alloc.alloc ~align:64 alloc 8 in
  let b = Alloc.alloc ~align:64 alloc 8 in
  let c = Alloc.alloc ~align:64 alloc 8 in
  let stats =
    Enum.run arena
      ~workload:(fun () ->
        let t1 = Tm.begin_txn tm in
        Tm.write tm t1 ~addr:a ~value:7L;
        Tm.commit tm t1;
        let t2 = Tm.begin_txn tm in
        Tm.write tm t2 ~addr:b ~value:9L;
        Tm.commit tm t2;
        let live = Tm.begin_txn tm in
        Tm.write tm live ~addr:c ~value:11L;
        Tm.checkpoint tm)
      ~recover:(fun crashed ->
        let alloc2 = Alloc.recover crashed in
        let san = San.attach ~mode:San.Collect crashed in
        let _tm = Tm.attach ~cfg alloc2 ~root_slot in
        let violations = List.length (San.violations san) in
        San.detach san;
        ( Arena.read crashed a,
          Arena.read crashed b,
          Arena.read crashed c,
          violations ))
      ~check:(fun (va, vb, vc, violations) ->
        if violations > 0 then
          Some (Fmt.str "%d sanitizer violations during recovery" violations)
        else if vc <> 0L then
          Some (Fmt.str "live txn not undone: c = %Ld" vc)
        else
          match (va, vb) with
          | 0L, 0L | 7L, 0L | 7L, 9L -> None
          | _ -> Some (Fmt.str "illegal state a=%Ld b=%Ld" va vb))
  in
  check_bool
    (name ^ ": enumeration reached inside the checkpoint")
    true
    (stats.Enum.capture_points > 3);
  check_bool (name ^ ": crash states explored") true (stats.Enum.crash_states > 0)

(* ------------------------------------------------------------------ *)

let () =
  let per_config name speed f =
    List.map
      (fun (cn, cfg) ->
        Alcotest.test_case (Fmt.str "%s [%s]" name cn) speed (f (cn, cfg)))
      all_configs
  in
  Alcotest.run "checkpoint"
    [
      ( "crash-sweep",
        per_config "crash at every persistence event" `Quick test_crash_sweep );
      ( "enumerator",
        per_config "enumerated states through checkpoint" `Quick
          test_enumerate_checkpoint );
    ]

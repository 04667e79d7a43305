(* kv-shared-log: short transactions from eight closed-loop fibers against
   one REWIND manager with a single log partition (1L-NFP, Batch 8).

   Each fiber owns [cells_per_fiber] cells from [Tm.alloc_cell].  Three
   transactions in four write [ops_per_txn] uniform cells of the fiber;
   the rest read as many and check each value against a volatile shadow
   of committed values.  Every operation goes through [Tm], the log and
   the arena, and every append takes the one shared log latch; no B+-tree
   or TPC-C code runs. *)

open Rewind_nvm
open Rewind_tpcc
module Tm = Rewind.Tm

let fibers = 8
let cells_per_fiber = 1024
let ops_per_txn = 8
let update_percent = 75
let root_slot = 3

let defaults =
  { Measure.txns = 5000; partitions = 1; arena_mb = 64; checkpoint_every = 2000 }

let config opts = Rewind.with_partitions opts.Measure.partitions Workload.tm_config

(* [data.(fiber).(k)] is cell [k] of [fiber]. *)
let setup opts =
  Measure.setup opts (fun alloc ->
      let tm = Tm.create ~cfg:(config opts) alloc ~root_slot in
      let cell _ = Tm.alloc_cell tm in
      (tm, Array.init fibers (fun _ -> Array.init cells_per_fiber cell)))

let check_cells chk ~what read shadow =
  Array.iteri
    (fun f row ->
      Array.iteri
        (fun k v ->
          let got = read f k in
          Check.expect chk (got = v)
            (lazy
              (Printf.sprintf "%s: fiber %d cell %d holds %Ld, committed %Ld"
                 what f k got v)))
        row)
    shadow

let run opts ~seed ~spans chk =
  let s = setup opts in
  let tm = s.tm and cells = s.data in
  let probe = Option.map (fun _ -> Probe.create ()) spans in
  Tm.set_probe tm probe;
  let shadow = Array.init fibers (fun _ -> Array.make cells_per_fiber 0L) in
  let rngs = Array.init fibers (fun f -> Rng.create (Measure.derive seed f)) in
  let response = Sample.create () in
  let calls = [ "begin"; "write"; "read"; "commit" ] in
  let call_samples = List.map (fun c -> (c, Sample.create ())) calls in
  let req = ref 0 and committed = ref 0 in
  let txn f =
    let rng = rngs.(f) in
    let home = f mod opts.Measure.partitions in
    let update = Rng.int rng 1 100 <= update_percent in
    incr req;
    let req = !req in
    Check.attempt chk;
    let issue = Clock.now () in
    Spans.with_span spans ~layer:"bench" ~name:"txn" ~req ~parent:(-1)
    @@ fun root ->
    let timed name g =
      let c0 = Clock.now () in
      let v =
        Spans.with_span spans ~layer:"core.tm" ~name ~req ~parent:root (fun _ ->
            g ())
      in
      Sample.add (List.assoc name call_samples) (Clock.now () - c0);
      v
    in
    let txn = timed "begin" (fun () -> Tm.begin_txn ~home tm) in
    let staged = ref [] in
    for _ = 1 to ops_per_txn do
      let k = Rng.int rng 0 (cells_per_fiber - 1) in
      let addr = cells.(f).(k) in
      if update then begin
        let value = Rng.next rng in
        timed "write" (fun () -> Tm.write tm txn ~addr ~value);
        staged := (k, value) :: !staged
      end
      else begin
        let v = timed "read" (fun () -> Tm.read tm txn ~addr) in
        Check.expect chk (v = shadow.(f).(k))
          (lazy
            (Printf.sprintf "fiber %d read %Ld from cell %d, committed %Ld" f v
               k shadow.(f).(k)))
      end
    done;
    timed "commit" (fun () -> Tm.commit tm txn);
    List.iter (fun (k, v) -> shadow.(f).(k) <- v) (List.rev !staged);
    incr committed;
    Sample.add response (Clock.now () - issue)
  in
  let fwd = Measure.forward s opts ~spans chk ~threads:fibers txn in
  let committed = !committed in
  let layers =
    List.concat_map
      (fun (c, smp) ->
        [
          Measure.m (Printf.sprintf "tm.%s.mean_sim_ns" c) "ns" (Sample.mean smp);
          Measure.m (Printf.sprintf "tm.%s.p99_sim_ns" c) "ns"
            (float_of_int (Sample.quantile smp 0.99));
        ])
      call_samples
    @ Measure.common_layers s fwd ~committed ~probe
  in
  (* End of run: reread every cell, then crash in place (every dirty line
     lost), recover, and check that every committed value survived. *)
  let reader = Tm.begin_txn tm in
  check_cells chk ~what:"final reread"
    (fun f k -> Tm.read tm reader ~addr:cells.(f).(k))
    shadow;
  Tm.commit tm reader;
  let crash =
    Measure.end_crash ~spans ~cfg:(config opts) ~root_slot ~layer:"bench" s.arena
      (fun _ _ ->
        check_cells chk ~what:"after recovery"
          (fun f k -> Arena.read s.arena cells.(f).(k))
          shadow)
  in
  Measure.rep s fwd ~response ~committed ~layers [ crash ]

let setup_only opts =
  let s = setup opts in
  (s.arena_create_s, s.load_s)

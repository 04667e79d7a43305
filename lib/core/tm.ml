(* The transaction recovery manager (Section 4).

   Four configurations, as in the paper's design space:
   - policy: [Force] (user updates reach NVM with non-temporal stores; the
     transaction's log records are cleared at commit; two-phase recovery)
     or [No_force] (user updates are cached; checkpoints clear the log;
     three-phase recovery with a redo pass);
   - layers: [One_layer] (the bucket/ADLL log holds user records directly;
     no transaction table is maintained while logging) or [Two_layer] (the
     AAVLT indexes records by transaction and acts as the persistent
     transaction table; the bucket log underneath holds only the AAVLT's
     own pending writes).

   The log implementation (Simple / Optimized / Batch) is picked
   independently, giving the paper's Simple/Optimized/Batch REWIND
   versions.

   Partitioned logging (Section 4.7 / Section 5's multithreaded results):
   the log can be sharded into [partitions] independent partitions, each a
   full recoverable bucketed-ADLL log with its own latch, current-bucket
   cursor, group-flush state and Batch last-persistent index — plus its
   own two-layer AAVLT and transaction table.  A transaction is pinned to
   a *home partition* by its id (round-robin), so the append fast path
   touches only partition-local state; the LSN counter stays one process-
   wide instrumented atomic ({!Sim_atomic}), so a single global order over all records survives.
   Recovery merges: one-layer analysis scans every partition once (each
   rebuilding its own transaction table), decoding each record into DRAM
   and k-way merging the partitions by LSN; redo replays that merged
   stream forward and undo walks it backward, reading NVM again only for
   the losers' records.  Clearing runs per partition.

   The one-layer checkpoint clears each partition on its own, by bucket:
   every bucket older than the oldest open transaction's first record is
   unlinked whole, and only the tail is cleared record by record, END
   records last.  Clearing order across partitions does not matter
   because each partition's CHECKPOINT record is appended after the
   checkpoint's cache flush: while one survives, recovery knows that
   every transaction whose END has a smaller LSN is durable in place and
   does not replay it, so no stale record left behind by a crash
   mid-clearing can overwrite a newer value (see [checkpoint_wal] and
   [analysis_one_layer]).  Two-layer clearing still removes settled
   records in global LSN order, END records last. *)

open Rewind_nvm

type policy = Force | No_force
type layers = One_layer | Two_layer

type config = {
  policy : policy;
  layers : layers;
  variant : Log.variant;
  bucket_cap : int;
  lockfree_latch : bool;
      (* Section 7 future work: a lock-free log fast path — appends pay a
         CAS instead of serialising on the latch. *)
  partitions : int;
      (* independent log partitions (>= 1); transactions are pinned to a
         home partition by id, and recovery merges the partitions by
         LSN.  1 = the unpartitioned log of the paper's single-threaded
         experiments. *)
  incll : bool;
      (* in-cache-line logging (Cohen et al., ASPLOS'19): the undo entry
         lives in the data's own cache line and durability is
         epoch-granular ({!advance_epoch}).  Replaces the WAL machinery
         wholesale — no log, no records, no partitions. *)
}

let default_config =
  {
    policy = No_force;
    layers = One_layer;
    variant = Log.Optimized;
    bucket_cap = 1000;
    lockfree_latch = false;
    partitions = 1;
    incll = false;
  }

let pp_config ppf c =
  if c.incll then Fmt.string ppf "InCLL"
  else begin
    Fmt.pf ppf "%s-%s/%a"
      (match c.layers with One_layer -> "1L" | Two_layer -> "2L")
      (match c.policy with Force -> "FP" | No_force -> "NFP")
      Log.pp_variant c.variant;
    if c.partitions > 1 then Fmt.pf ppf "x%d" c.partitions
  end

type txn = int

(* What recovery found and did — surfaced so callers (and the fault
   campaign) can distinguish a clean recovery from one that had to
   truncate torn records. *)
type recovery_report = {
  records_scanned : int;  (* log records examined by analysis *)
  torn_truncated : int;   (* bad-checksum records dropped as torn writes *)
  redo_applied : int;     (* records re-applied by the redo pass *)
  txns_finished : int;    (* transactions found committed/rolled back *)
  txns_undone : int;      (* unfinished transactions rolled back by undo *)
}

let pp_recovery_report ppf r =
  Fmt.pf ppf
    "@[<h>scanned=%d torn=%d redo=%d finished=%d undone=%d@]"
    r.records_scanned r.torn_truncated r.redo_applied r.txns_finished
    r.txns_undone

(* One log partition: a complete recoverable log plus the per-partition
   transactional state that used to be process-global.  Everything a
   transaction's fast path touches lives here, guarded by this
   partition's latch alone. *)
type part = {
  pid : int;
  log : Log.t;  (* 1L: the user log; 2L: the AAVLT's internal log *)
  index : Avl_index.t option;  (* 2L only *)
  table : Txn_table.t;
  latch : Sim_mutex.t;
  ended : (int, unit) Hashtbl.t;  (* committed/rolled back, awaiting clearing *)
  open_at : (txn, int) Hashtbl.t;
      (* one-layer: open transaction -> chain node holding its first
         record ({!Log.handle_node}).  A transaction enters with its first
         record and leaves with its END, so prepared (in-doubt)
         transactions stay.  The checkpoint drops every node before the
         oldest of these whole. *)
  mutable deferred_deletes : (txn * int * int * int) list;
      (* txn, DELETE record lsn, addr, size *)
  mutable deferred : (int * bool) list;
      (* Batch: user stores (addr, durably) whose undo records sit in a
         not-yet-persistent group.  Under the arbitrary-eviction fault
         model even a *cached* store may reach NVM at any moment, so these
         lines are pinned in the store buffer (visible to every load,
         never written back) until the group is durable. *)
}

type t = {
  cfg : config;
  alloc : Alloc.t;
  arena : Arena.t;
  parts : part array; (* empty under incll *)
  incll : Incll.t option;
  incll_txns : (int, (int * int64) list ref) Hashtbl.t;
      (* incll: txn -> volatile undo journal (addr, old value), newest
         first.  Serves abort/savepoint rollback only — crash rollback
         uses the in-line undo words, never this table. *)
  incll_latch : Sim_mutex.t;
  next_seq : int Sim_atomic.t array;
      (* per-partition transaction sequence counters: partition [p]'s
         next id is [first_txn + seq * partitions + p], so the home
         partition stays a pure function of the id even when the caller
         pins a transaction explicitly ([begin_txn ?home]) *)
  next_home : int Sim_atomic.t;
      (* round-robin cursor assigning homes to transactions whose caller
         did not pin one *)
  next_lsn : int Sim_atomic.t;  (* one global counter: LSNs order records
                               across all partitions *)
  prepared_gtids : (int, int) Hashtbl.t;
      (* local txn id -> global (2PC) transaction id, for every
         transaction currently in doubt: PREPARE logged, outcome not yet
         resolved.  Maintained by [prepare]/[resolve_in_doubt] and rebuilt
         from the logs by recovery. *)
  mutable commits : int;
  mutable rollbacks : int;
  mutable last_recovery : recovery_report option;
  mutable last_recovery_profile : Probe.t option;
  mutable probe : Probe.t option;
      (* when set, the commit/checkpoint hot paths charge spans to it *)
}

(* Reserved txn id 0 belongs to the AAVLT's internal logging. *)
let first_txn = 1

(* Root-slot layout: the manager's first slot holds a durable
   configuration fingerprint (written once at [create]); partition [p]
   then anchors its log at [root_slot + 1 + 2*pid] and its AAVLT root at
   [root_slot + 2 + 2*pid].  [attach] validates the fingerprint before
   touching any log slot — re-attaching with, say, a different partition
   count used to silently misassign home partitions and read other
   partitions' anchors as its own. *)
let part_log_slot ~root_slot pid = root_slot + 1 + (2 * pid)
let part_index_slot ~root_slot pid = root_slot + 2 + (2 * pid)

(* The fingerprint packs every recovery-relevant config field into one
   word: magic tag, partition count, policy, layers, log variant (plus
   Batch group size) and bucket capacity.  [lockfree_latch] is volatile
   scheduling policy — it does not change the durable layout — so it is
   recorded but masked out of the comparison. *)
let config_magic = 0x52 (* 'R' *)

let config_word cfg =
  let vtag, group =
    match cfg.variant with
    | Log.Simple -> (0, 0)
    | Log.Optimized -> (1, 0)
    | Log.Batch g -> (2, g land 0xFFFF)
  in
  config_magic
  lor ((cfg.partitions land 0xFF) lsl 8)
  lor ((match cfg.policy with No_force -> 0 | Force -> 1) lsl 16)
  lor ((match cfg.layers with One_layer -> 0 | Two_layer -> 1) lsl 17)
  lor (vtag lsl 18)
  lor (group lsl 20)
  lor ((cfg.bucket_cap land 0xFFFFFF) lsl 36)
  lor ((if cfg.lockfree_latch then 1 else 0) lsl 60)
  lor ((if cfg.incll then 1 else 0) lsl 61)

let config_of_word w =
  {
    policy = (if (w lsr 16) land 1 = 1 then Force else No_force);
    layers = (if (w lsr 17) land 1 = 1 then Two_layer else One_layer);
    variant =
      (match (w lsr 18) land 3 with
      | 0 -> Log.Simple
      | 1 -> Log.Optimized
      | _ -> Log.Batch ((w lsr 20) land 0xFFFF));
    bucket_cap = (w lsr 36) land 0xFFFFFF;
    lockfree_latch = (w lsr 60) land 1 = 1;
    partitions = (w lsr 8) land 0xFF;
    incll = (w lsr 61) land 1 = 1;
  }

let semantic_config_bits w = w land lnot (1 lsl 60)

let check_cfg cfg ~root_slot =
  if cfg.partitions < 1 then
    invalid_arg "Tm: config.partitions must be at least 1";
  if cfg.incll && cfg.partitions <> 1 then
    invalid_arg
      "Tm: incll is epoch-granular, not log-partitioned; config.partitions \
       must be 1";
  if cfg.incll && cfg.layers <> One_layer then
    invalid_arg "Tm: incll keeps no record index; config.layers must be \
                 One_layer";
  if part_index_slot ~root_slot (cfg.partitions - 1) >= 63 then
    invalid_arg
      (Printf.sprintf
         "Tm: %d partitions at root slot %d exceed the arena's 63 root slots"
         cfg.partitions root_slot)

let validate_stored_config arena cfg ~root_slot =
  let stored = Int64.to_int (Arena.root_get arena root_slot) in
  if stored = 0 then
    failwith
      (Printf.sprintf
         "Tm.attach: no durable configuration at root slot %d (this arena \
          was never initialised with Tm.create here)"
         root_slot)
  else if stored land 0xFF <> config_magic then
    failwith
      (Printf.sprintf
         "Tm.attach: root slot %d does not hold a Tm configuration \
          fingerprint (found %#x)"
         root_slot stored)
  else if semantic_config_bits stored <> semantic_config_bits (config_word cfg)
  then
    failwith
      (Fmt.str
         "Tm.attach: durable configuration mismatch at root slot %d: the \
          arena was created with %a (%d partition(s)) but attach requested \
          %a (%d partition(s))"
         root_slot pp_config (config_of_word stored)
         ((stored lsr 8) land 0xFF)
         pp_config cfg cfg.partitions)

let make_latch cfg =
  if cfg.lockfree_latch then
    Sim_mutex.create ~acquire_ns:30 ~contention_free:true ()
  else Sim_mutex.create ()

let make_part cfg pid log index =
  {
    pid;
    log;
    index;
    table = Txn_table.create ();
    latch = make_latch cfg;
    ended = Hashtbl.create 64;
    open_at = Hashtbl.create 16;
    deferred_deletes = [];
    deferred = [];
  }

let make_t ?incll cfg alloc parts =
  {
    cfg;
    alloc;
    arena = Alloc.arena alloc;
    parts;
    incll;
    incll_txns = Hashtbl.create 16;
    incll_latch = Sim_mutex.create ();
    next_seq = Array.init (max 1 (Array.length parts)) (fun _ -> Sim_atomic.make 0);
    next_home = Sim_atomic.make 0;
    next_lsn = Sim_atomic.make 1;
    prepared_gtids = Hashtbl.create 8;
    commits = 0;
    rollbacks = 0;
    last_recovery = None;
    last_recovery_profile = None;
    probe = None;
  }

(* Under incll the two slots a partition-0 log/index would use anchor
   the epoch counter and the cell directory instead. *)
let incll_epoch_slot ~root_slot = part_log_slot ~root_slot 0
let incll_dir_slot ~root_slot = part_index_slot ~root_slot 0

let create ?(cfg = default_config) alloc ~root_slot =
  check_cfg cfg ~root_slot;
  let arena = Alloc.arena alloc in
  Arena.root_set arena root_slot (Int64.of_int (config_word cfg));
  if cfg.incll then
    let i =
      Incll.create arena alloc
        ~epoch_slot:(incll_epoch_slot ~root_slot)
        ~dir_slot:(incll_dir_slot ~root_slot)
    in
    make_t ~incll:i cfg alloc [||]
  else
  let parts =
    Array.init cfg.partitions (fun pid ->
        let log =
          Log.create cfg.variant ~bucket_cap:cfg.bucket_cap alloc
            ~root_slot:(part_log_slot ~root_slot pid)
        in
        Log.set_group_tag log pid;
        let index =
          match cfg.layers with
          | One_layer -> None
          | Two_layer ->
              let idx = Avl_index.create alloc ~ilog:log in
              Arena.root_set arena
                (part_index_slot ~root_slot pid)
                (Int64.of_int (Avl_index.root_ptr idx));
              Some idx
        in
        make_part cfg pid log index)
  in
  make_t cfg alloc parts

let config t = t.cfg
let partitions t = max 1 (Array.length t.parts)

let log t =
  if t.cfg.incll then
    invalid_arg "Tm.log: an InCLL configuration keeps no log"
  else t.parts.(0).log
let logs t = Array.map (fun p -> p.log) t.parts
let partition_appended t = Array.map (fun p -> Log.appended p.log) t.parts
let commits t = t.commits
let rollbacks t = t.rollbacks
let set_probe t p = t.probe <- p
let last_recovery_profile t = t.last_recovery_profile

(* Charge [f] to phase [name] of the attached hot-path probe, if any. *)
let hot_span t name f =
  match t.probe with
  | None -> f ()
  | Some p -> Probe.span p (Arena.stats t.arena) name f

let active_transactions t =
  Hashtbl.length t.incll_txns
  + Array.fold_left (fun acc p -> acc + Txn_table.size p.table) 0 t.parts

let last_recovery t = t.last_recovery

let fresh_lsn t = Sim_atomic.fetch_and_add t.next_lsn 1

(* A transaction's home partition, a pure function of its id: round-robin
   over the partitions.  Deterministic, so recovery needs no pinning map —
   a transaction's records are found exactly where logging put them. *)
let home_partition t txn = (txn - first_txn) mod Array.length t.parts
let home t txn = t.parts.(home_partition t txn)

(* Advance the id counters past every transaction recovery saw, so fresh
   ids can never collide with recovered ones: partition [p]'s next
   sequence number is the smallest [s] with [first_txn + s*n + p >
   max_txn].  The round-robin cursor continues from the id after
   [max_txn], keeping default (unpinned) ids sequential across a crash. *)
let reseed_txn_counters t max_txn =
  let n = max 1 (Array.length t.parts) in
  Array.iteri
    (fun p seq ->
      let d = max_txn - first_txn - p in
      let s = if d < 0 then 0 else (d / n) + 1 in
      if s > Sim_atomic.get seq then Sim_atomic.set seq s)
    t.next_seq;
  let rr = max_txn + 1 - first_txn in
  if rr > Sim_atomic.get t.next_home then Sim_atomic.set t.next_home rr

(* -- transaction begin -------------------------------------------------- *)

(* Transaction ids encode their home partition: partition [p] hands out
   ids [first_txn + seq * n + p], so [home_partition] recomputes the home
   from the id alone and recovery needs no durable pinning map even for
   caller-pinned transactions.  With no caller pinning the round-robin
   cursor makes the ids come out exactly sequential (the pre-[?home]
   behaviour). *)
let begin_txn ?home:home_opt t =
  (* incll keeps no log partitions (parts = [||]); ids degenerate to the
     sequential single-partition scheme there. *)
  let n = max 1 (Array.length t.parts) in
  let hp =
    match home_opt with
    | Some h ->
        if h < 0 || h >= n then
          invalid_arg
            (Printf.sprintf "Tm.begin_txn: home %d out of range [0, %d)" h n);
        h
    | None -> Sim_atomic.fetch_and_add t.next_home 1 mod n
  in
  let id = first_txn + (Sim_atomic.fetch_and_add t.next_seq.(hp) 1 * n) + hp in
  (match t.incll with
  | Some _ ->
      (* incll: open a volatile undo journal for abort support; the
         durable side needs no per-transaction state at all. *)
      Sim_mutex.with_lock t.incll_latch (fun () ->
          Hashtbl.replace t.incll_txns id (ref []))
  | None -> (
      match t.cfg.layers with
      | One_layer ->
          ()  (* one-layer: no per-transaction state while logging *)
      | Two_layer ->
          (* two-layer: the transaction table is maintained while logging *)
          let p = home t id in
          Sim_mutex.with_lock p.latch (fun () ->
              ignore (Txn_table.find_or_add p.table id))));
  id

let incll_journal t txn_id =
  match Hashtbl.find_opt t.incll_txns txn_id with
  | Some j -> j
  | None ->
      invalid_arg
        (Printf.sprintf "Tm: transaction %d is not open (InCLL)" txn_id)

(* -- logging ------------------------------------------------------------ *)

(* Under Batch, pinned user stores are released as soon as their group is
   persistent (durably for Force, cached for No_force — by then the undo
   record is reachable, so a later eviction of the line is recoverable). *)
let drain_deferred t p =
  if p.deferred <> [] && Log.pending p.log = 0 then begin
    List.iter
      (fun (addr, durably) ->
        if durably then Arena.flush_line t.arena addr
        else Arena.unpin_line t.arena addr)
      (List.rev p.deferred);
    p.deferred <- []
  end

let user_write t p addr v =
  let durably = t.cfg.policy = Force in
  match t.cfg.variant with
  | Log.Batch _ ->
      (* WAL under arbitrary eviction: hardware may write any dirty line
         back at any moment, so the store is held in the (pinned) store
         buffer until its log record's group is persistently reachable.
         Pin before the store — the store itself may trigger an eviction
         roll. *)
      Arena.pin_line t.arena addr;
      Arena.write t.arena addr v;
      p.deferred <- (addr, durably) :: p.deferred;
      drain_deferred t p
  | Log.Simple | Log.Optimized ->
      (* The record and its slot are already durably reachable. *)
      if durably then Arena.nt_write t.arena addr v
      else Arena.write t.arena addr v

(* One-layer: note where an open transaction's first record went. *)
let note_open p txn_id h =
  if not (Hashtbl.mem p.open_at txn_id) then
    Hashtbl.replace p.open_at txn_id (Log.handle_node h)

(* Append a user record to [p].  In two-layer mode the AAVLT indexes
   records by their LSN (Section 3.4): every record becomes a tree node
   whose payload is the record's address, inserted in one atomic AAVLT
   operation, and the record is threaded onto its transaction's back-chain
   via the volatile transaction table. *)
let append_user_record t p txn_id r ~is_end =
  match p.index with
  | None -> note_open p txn_id (Log.append_h ~is_end p.log r)
  | Some idx ->
      let e = Txn_table.find_or_add p.table txn_id in
      (* Chain before the record becomes reachable. *)
      Record.set_prev_same_txn t.arena r e.Txn_table.last_record;
      let lsn = Record.lsn t.arena r in
      Avl_index.op idx (fun () ->
          let node = Avl_index.insert_in_op idx lsn in
          Avl_index.set_head_record idx node r);
      e.Txn_table.last_record <- r;
      (* The record is durable here: [Record.make] wrote it back and the
         AAVLT op's internal logging fenced at least once since. *)
      if is_end && txn_id <> 0 then
        Pmcheck.commit_point t.arena ~txn:txn_id ~addr:r ~len:Record.size_bytes
          ~what:"END record (AAVLT-indexed)"

(* Records are created "off-line" (Section 3.2) — outside the log latch —
   and only the atomic insertion is serialised, which is the fine-grained
   concurrency Section 4.7 claims.  One-layer word-sized updates take the
   inline fast path: the record is two tagged slot words, encoded outside
   the latch and stored by the append itself — no allocation, no separate
   record line.  (Two-layer user records stay full: the AAVLT indexes
   them by address and threads their back-chains.)  With a partitioned
   log the latch taken here is the transaction's home-partition latch —
   appends in different partitions never serialise against each other. *)
let log_update t txn_id ~addr ~old_value ~new_value =
  if t.cfg.incll then
    invalid_arg "Tm.log_update: InCLL logs in-line; use Tm.write";
  let p = home t txn_id in
  let lsn = fresh_lsn t in
  let inline =
    match p.index with
    | Some _ -> None
    | None ->
        if Log.inline_eligible p.log then
          Record.inline_encode ~lsn ~txn:txn_id ~typ:Record.Update ~addr
            ~old_value ~new_value ~undo_next:0
        else None
  in
  let r =
    match inline with
    | Some _ -> 0
    | None ->
        Record.make t.alloc ~lsn ~txn:txn_id ~typ:Record.Update ~addr
          ~old_value ~new_value ~undo_next:0 ~prev_same_txn:0
  in
  Sim_mutex.with_lock p.latch (fun () ->
      (match inline with
      | Some (w0, w1) ->
          note_open p txn_id (Log.append_pair p.log ~txn:txn_id w0 w1)
      | None -> append_user_record t p txn_id r ~is_end:false);
      (* WAL declaration: [addr] now has an undo record.  Under Batch the
         record may still sit in an unpersisted group ([Log.pending] > 0),
         in which case the covered store must not reach NVM before the
         {!Pmcheck.group_persisted} of this partition. *)
      Pmcheck.region_logged ~group:p.pid t.arena ~txn:txn_id ~addr ~len:8
        ~durable:(Log.pending p.log = 0))

(* The paper's expanded-code pattern (Listing 2): log, then store.  The
   InCLL path journals the old value for abort support and lets
   {!Incll.store} handle the durable side — the in-line undo capture on
   the epoch's first store, a bare cached store afterwards. *)
let write_wal t txn_id ~addr ~value =
  let old_value = Arena.read t.arena addr in
  log_update t txn_id ~addr ~old_value ~new_value:value;
  match (t.cfg.policy, t.cfg.variant) with
  | No_force, (Log.Simple | Log.Optimized) ->
      (* Thread-safe access to user data is the programmer's concern
         (Section 4.7); the cached store itself needs no TM latch. *)
      Arena.write t.arena addr value
  | Force, _ | No_force, Log.Batch _ ->
      (* The Batch deferral list is partition state: serialise on the
         home latch. *)
      let p = home t txn_id in
      Sim_mutex.with_lock p.latch (fun () -> user_write t p addr value)

let write t txn_id ~addr ~value =
  match t.incll with
  | Some i ->
      let old_value = Arena.read t.arena addr in
      Sim_mutex.with_lock t.incll_latch (fun () ->
          let j = incll_journal t txn_id in
          j := (addr, old_value) :: !j);
      Incll.store i ~addr ~value
  | None -> write_wal t txn_id ~addr ~value

let read t _txn_id ~addr = Arena.read t.arena addr

(* Record an intention to free NVM; the de-allocation itself happens only
   once the transaction's outcome is settled (Section 4.3). *)
let log_delete t txn_id ~addr ~size =
  if t.cfg.incll then
    invalid_arg "Tm.log_delete: InCLL has no deferred-delete records";
  let p = home t txn_id in
  let lsn = fresh_lsn t in
  let r =
    Record.make t.alloc ~lsn ~txn:txn_id ~typ:Record.Delete ~addr
      ~old_value:(Int64.of_int size) ~new_value:0L ~undo_next:0
      ~prev_same_txn:0
  in
  Sim_mutex.with_lock p.latch (fun () ->
      append_user_record t p txn_id r ~is_end:false;
      p.deferred_deletes <- (txn_id, lsn, addr, size) :: p.deferred_deletes)

(* -- clearing ------------------------------------------------------------ *)

let record_txn t r = Record.txn t.arena r
let record_typ t r = Record.typ t.arena r

(* Remove one transaction's records; END last, so that an interrupted
   clearing is re-attempted identically after a crash (Section 4.6). *)
let clear_txn_records t p txn_id =
  Log.remove_where p.log (fun r ->
      record_txn t r = txn_id && record_typ t r <> Record.End);
  Log.remove_where p.log (fun r ->
      record_txn t r = txn_id && record_typ t r = Record.End)

let free_deferred_deletes t p txn_id =
  let mine, rest =
    List.partition (fun (x, _, _, _) -> x = txn_id) p.deferred_deletes
  in
  List.iter (fun (_, _, addr, size) -> Alloc.free t.alloc addr size) mine;
  p.deferred_deletes <- rest

let drop_deferred_deletes _t p txn_id =
  p.deferred_deletes <-
    List.filter (fun (x, _, _, _) -> x <> txn_id) p.deferred_deletes

(* Two-layer clearing of one settled transaction: walk its back-chain and
   delete each record's tree node, oldest first — so the END record (the
   newest) goes last, and an interrupted clearing is re-attempted
   identically after a crash (Section 4.6). *)
let clear_txn_index t p idx txn_id =
  match Txn_table.find p.table txn_id with
  | None -> ()
  | Some e ->
      let rec collect r acc =
        if r = 0 then acc
        else collect (Record.prev_same_txn t.arena r) (r :: acc)
      in
      let oldest_first = collect e.Txn_table.last_record [] in
      List.iter
        (fun r ->
          ignore (Avl_index.remove idx (Record.lsn t.arena r));
          Record.free t.alloc r)
        oldest_first;
      Txn_table.remove p.table txn_id

(* -- commit --------------------------------------------------------------- *)

let append_end t p txn_id =
  match p.index with
  | None ->
      (* One-layer END records carry no payload and always fit inline.
         The END settles the transaction: it is no longer open. *)
      ignore
        (Log.append_record ~is_end:true p.log ~lsn:(fresh_lsn t) ~txn:txn_id
           ~typ:Record.End ~addr:0 ~old_value:0L ~new_value:0L ~undo_next:0);
      Hashtbl.remove p.open_at txn_id
  | Some _ ->
      let r =
        Record.make t.alloc ~lsn:(fresh_lsn t) ~txn:txn_id ~typ:Record.End
          ~addr:0 ~old_value:0L ~new_value:0L ~undo_next:0 ~prev_same_txn:0
      in
      append_user_record t p txn_id r ~is_end:true

(* [clear] exists for experiments that model a crash landing between the
   END record and commit-time clearing (Sections 5.1's recovery scenarios);
   production callers leave it true. *)
let rec commit ?(clear = true) t txn_id =
  hot_span t "commit" @@ fun () ->
  match t.incll with
  | Some _ ->
      (* InCLL commit is free: durability is epoch-granular (the commit
         becomes durable at the next {!advance_epoch}, as a group), so
         there is no END record, no fence, and no commit point to check —
         dropping the volatile undo journal is the whole operation.  This
         is the protocol's documented trade: a crash loses up to one
         epoch of committed work, never consistency. *)
      Sim_mutex.with_lock t.incll_latch (fun () ->
          ignore (incll_journal t txn_id);
          Hashtbl.remove t.incll_txns txn_id;
          t.commits <- t.commits + 1;
          Pmcheck.txn_settled t.arena ~txn:txn_id)
  | None -> commit_wal ~clear t txn_id

and commit_wal ?(clear = true) t txn_id =
  let p = home t txn_id in
  Sim_mutex.with_lock p.latch (fun () ->
      t.commits <- t.commits + 1;
      (match t.cfg.policy with
      | Force ->
          (* All of the transaction's stores are already on their way to
             NVM; fence, log END, and clear immediately. *)
          Log.flush_group p.log;
          drain_deferred t p;
          Arena.fence t.arena;
          append_end t p txn_id;
          if clear then begin
            (match p.index with
            | None -> clear_txn_records t p txn_id
            | Some idx -> clear_txn_index t p idx txn_id);
            free_deferred_deletes t p txn_id
          end
      | No_force ->
          (* The END record forces the batch group; buffered stores can
             then reach the (volatile) cache. *)
          append_end t p txn_id;
          drain_deferred t p;
          Hashtbl.replace p.ended txn_id ());
      Pmcheck.txn_settled t.arena ~txn:txn_id)

(* -- rollback -------------------------------------------------------------- *)

(* Write a CLR recording the undo of [rec], then apply the undo.  The CLR's
   new value is the restored (old) value; [undo_next] carries the undone
   record's LSN so that Algorithm 2 can skip past it after a crash.  The
   CLR lands in the transaction's home partition, like every record of the
   transaction. *)
let undo_one t p txn_id rec_ ~durably =
  let addr = Record.addr t.arena rec_ in
  let restored = Record.old_value t.arena rec_ in
  (match p.index with
  | None ->
      (* A CLR's old value is write-only (never read by redo or undo), so
         the compact format drops it; small restores go inline. *)
      note_open p txn_id
        (Log.append_record ~is_end:durably p.log ~lsn:(fresh_lsn t)
           ~txn:txn_id ~typ:Record.Clr ~addr
           ~old_value:(Record.new_value t.arena rec_) ~new_value:restored
           ~undo_next:(Record.lsn t.arena rec_))
  | Some _ ->
      let clr =
        Record.make t.alloc ~lsn:(fresh_lsn t) ~txn:txn_id ~typ:Record.Clr
          ~addr
          ~old_value:(Record.new_value t.arena rec_) ~new_value:restored
          ~undo_next:(Record.lsn t.arena rec_) ~prev_same_txn:0
      in
      append_user_record t p txn_id clr ~is_end:durably);
  Pmcheck.region_logged ~group:p.pid t.arena ~txn:txn_id ~addr ~len:8
    ~durable:(Log.pending p.log = 0);
  (* Route the restore through the same WAL-ordered store path as forward
     writes: under Batch it must stay buffered behind the CLR's group (and
     behind any still-pending forward store to the same line). *)
  user_write t p addr restored

let rollback_one_layer t p txn_id =
  (* One-layer: no per-transaction chain — a full backward scan of the
     home partition skipping other transactions' records (the "skip
     records" of Section 5.1).  Every record of [txn_id] lives in its
     home partition, so other partitions need not be scanned.  The
     Algorithm-2 CLR bound makes the scan idempotent: resolving an
     in-doubt transaction as aborted after a crash mid-rollback must not
     re-undo already-compensated updates. *)
  let durably = t.cfg.policy = Force in
  let bound = ref max_int in
  Log.iter_back p.log (fun r ->
      if record_txn t r = txn_id then
        match record_typ t r with
        | Record.Clr -> bound := Record.undo_next t.arena r
        | Record.Update ->
            if Record.lsn t.arena r < !bound then undo_one t p txn_id r ~durably
        | Record.End | Record.Checkpoint | Record.Delete | Record.Rollback
        | Record.Prepare ->
            ())

let rollback_two_layer t p idx txn_id =
  let durably = t.cfg.policy = Force in
  match Txn_table.find p.table txn_id with
  | None -> ()
  | Some e ->
      let bound = ref max_int in
      let rec go r =
        if r <> 0 then begin
          let next = Record.prev_same_txn t.arena r in
          (* each record is retrieved through the AAVLT (Section 4.4) *)
          ignore (Avl_index.find idx (Record.lsn t.arena r));
          (match record_typ t r with
          | Record.Clr -> bound := Record.undo_next t.arena r
          | Record.Update ->
              if Record.lsn t.arena r < !bound then
                undo_one t p txn_id r ~durably
          | Record.End | Record.Checkpoint | Record.Delete | Record.Rollback
          | Record.Prepare ->
              ());
          go next
        end
      in
      go e.Txn_table.last_record

(* -- partial rollback (savepoints) ---------------------------------------

   An extension the CLR machinery supports directly (ARIES's partial
   rollbacks): a savepoint names an LSN; rolling back to it undoes the
   transaction's updates with larger LSNs, writing ordinary CLRs.  A crash
   afterwards recovers correctly with no extra machinery — Algorithm 2's
   undo bounds skip exactly the already-compensated records. *)

type savepoint = int

(* WAL: a savepoint names an LSN.  InCLL: it names a depth in the
   transaction's volatile undo journal — same int, same semantics (undo
   everything after this point). *)
let savepoint t txn_id =
  match t.incll with
  | Some _ ->
      Sim_mutex.with_lock t.incll_latch (fun () ->
          List.length !(incll_journal t txn_id))
  | None -> Sim_atomic.get t.next_lsn

let rollback_to_incll t i txn_id (sp : savepoint) =
  let to_undo =
    Sim_mutex.with_lock t.incll_latch (fun () ->
        let j = incll_journal t txn_id in
        let depth = List.length !j in
        let undo, keep =
          (* journal is newest-first: undo the first depth-sp entries *)
          let rec split n l =
            if n = 0 then ([], l)
            else
              match l with
              | [] -> ([], [])
              | x :: rest ->
                  let u, k = split (n - 1) rest in
                  (x :: u, k)
          in
          split (max 0 (depth - sp)) !j
        in
        j := keep;
        undo)
  in
  List.iter (fun (addr, old_value) -> Incll.store i ~addr ~value:old_value)
    to_undo

let rollback_to t txn_id (sp : savepoint) =
  match t.incll with
  | Some i -> rollback_to_incll t i txn_id sp
  | None ->
  let p = home t txn_id in
  Sim_mutex.with_lock p.latch (fun () ->
      let durably = t.cfg.policy = Force in
      (match p.index with
      | None ->
          (* Backward scan with the Algorithm-2 bound so repeated partial
             rollbacks never re-undo compensated updates; stop at the
             first of this transaction's records below the savepoint. *)
          let bound = ref max_int in
          Log.iter_back_while p.log (fun r ->
              if record_txn t r <> txn_id then true
              else
                let lsn = Record.lsn t.arena r in
                if lsn < sp then false
                else begin
                  (match record_typ t r with
                  | Record.Clr -> bound := Record.undo_next t.arena r
                  | Record.Update ->
                      if lsn < !bound then undo_one t p txn_id r ~durably
                  | Record.End | Record.Checkpoint | Record.Delete
                  | Record.Rollback | Record.Prepare ->
                      ());
                  true
                end)
      | Some idx -> (
          match Txn_table.find p.table txn_id with
          | None -> ()
          | Some e ->
              let bound = ref max_int in
              let rec go r =
                if r <> 0 then begin
                  let next = Record.prev_same_txn t.arena r in
                  let lsn = Record.lsn t.arena r in
                  if lsn >= sp then begin
                    (match record_typ t r with
                    | Record.Clr -> bound := Record.undo_next t.arena r
                    | Record.Update ->
                        if lsn < !bound then begin
                          ignore (Avl_index.find idx lsn);
                          undo_one t p txn_id r ~durably
                        end
                    | Record.End | Record.Checkpoint | Record.Delete
                    | Record.Rollback | Record.Prepare ->
                        ());
                    go next
                  end
                end
              in
              go e.Txn_table.last_record));
      (* deferred de-allocations requested after the savepoint are void *)
      p.deferred_deletes <-
        List.filter
          (fun (x, lsn, _, _) -> x <> txn_id || lsn < sp)
          p.deferred_deletes)

(* InCLL abort: replay the volatile journal newest-first through the
   ordinary store path (so a cell's in-line undo is re-captured if this
   is somehow its first touch of the epoch).  The journal orders restores
   correctly for multiple writes to one cell within the transaction. *)
let rollback_incll t i txn_id =
  let entries =
    Sim_mutex.with_lock t.incll_latch (fun () ->
        let j = incll_journal t txn_id in
        Hashtbl.remove t.incll_txns txn_id;
        !j)
  in
  List.iter (fun (addr, old_value) -> Incll.store i ~addr ~value:old_value)
    entries;
  t.rollbacks <- t.rollbacks + 1;
  Pmcheck.txn_settled t.arena ~txn:txn_id

let rollback t txn_id =
  match t.incll with
  | Some i -> rollback_incll t i txn_id
  | None ->
  let p = home t txn_id in
  Sim_mutex.with_lock p.latch (fun () ->
      t.rollbacks <- t.rollbacks + 1;
      (* Settle any deferred (Batch) user stores *before* undoing, or a
         stale pending store could overwrite a restored value. *)
      Log.flush_group p.log;
      drain_deferred t p;
      (match p.index with
      | None -> rollback_one_layer t p txn_id
      | Some idx -> rollback_two_layer t p idx txn_id);
      Log.flush_group p.log;
      append_end t p txn_id;
      drain_deferred t p;
      drop_deferred_deletes t p txn_id;
      (match t.cfg.policy with
      | Force -> (
          match p.index with
          | None -> clear_txn_records t p txn_id
          | Some idx -> clear_txn_index t p idx txn_id)
      | No_force -> Hashtbl.replace p.ended txn_id ());
      Pmcheck.txn_settled t.arena ~txn:txn_id)

(* -- two-phase commit: the participant side (Distributed REWIND) ----------- *)

(* PREPARE (the participant's yes-vote): make everything the transaction
   did durable — pending batch groups, deferred user stores and, under
   force, the data itself — then durably log a PREPARE record carrying
   the global transaction id in its old-value field.  From here until
   {!resolve_in_doubt} the transaction is *in doubt*: recovery neither
   undoes nor finishes it, because under presumed abort only the
   coordinator's durable decision record can settle it. *)
let prepare t txn_id ~gtid =
  if t.cfg.incll then
    invalid_arg
      "Tm.prepare: InCLL durability is epoch-granular and cannot hold a \
       single transaction in doubt";
  hot_span t "prepare" @@ fun () ->
  let p = home t txn_id in
  Sim_mutex.with_lock p.latch (fun () ->
      Log.flush_group p.log;
      drain_deferred t p;
      Arena.fence t.arena;
      (match p.index with
      | None ->
          note_open p txn_id
            (Log.append_record ~is_end:true p.log ~lsn:(fresh_lsn t)
               ~txn:txn_id ~typ:Record.Prepare ~addr:0
               ~old_value:(Int64.of_int gtid) ~new_value:0L ~undo_next:0)
      | Some _ ->
          let r =
            Record.make t.alloc ~lsn:(fresh_lsn t) ~txn:txn_id
              ~typ:Record.Prepare ~addr:0 ~old_value:(Int64.of_int gtid)
              ~new_value:0L ~undo_next:0 ~prev_same_txn:0
          in
          append_user_record t p txn_id r ~is_end:true);
      (match Txn_table.find p.table txn_id with
      | Some e -> e.Txn_table.status <- Txn_table.Prepared
      | None -> ());
      Hashtbl.replace t.prepared_gtids txn_id gtid)

(* The transactions currently in doubt (live after {!prepare}, or found
   by recovery), with their global transaction ids. *)
let in_doubt t =
  List.sort compare
    (Hashtbl.fold (fun x g acc -> (x, g) :: acc) t.prepared_gtids [])

(* Settle an in-doubt transaction once the coordinator's decision is
   known.  Both outcomes reuse the ordinary settle paths; rollback's CLR
   bound makes abort resolution idempotent when a crash lands
   mid-resolution and the decision is re-applied after re-attach. *)
let resolve_in_doubt t txn_id ~commit:do_commit =
  if not (Hashtbl.mem t.prepared_gtids txn_id) then
    invalid_arg
      (Printf.sprintf "Tm.resolve_in_doubt: transaction %d is not in doubt"
         txn_id);
  if do_commit then commit t txn_id else rollback t txn_id;
  Hashtbl.remove t.prepared_gtids txn_id

(* -- checkpoint (Section 4.6) ---------------------------------------------- *)

(* Acquire every partition latch in index order (deadlock-free: the
   transaction fast paths only ever hold a single latch). *)
let rec with_all_latches t i f =
  if i >= Array.length t.parts then f ()
  else
    Sim_mutex.with_lock t.parts.(i).latch (fun () ->
        with_all_latches t (i + 1) f)

(* The InCLL epoch checkpoint — the config's replacement for both
   commit-time clearing and the cache-consistent checkpoint.  Requires
   quiescence: an advance with a transaction in flight would turn the
   new epoch boundary into a transaction-inconsistent recovery target. *)
let advance_epoch t =
  match t.incll with
  | None ->
      invalid_arg "Tm.advance_epoch: not an InCLL configuration"
  | Some i ->
      if active_transactions t > 0 then
        invalid_arg
          (Printf.sprintf
             "Tm.advance_epoch: %d transaction(s) still in flight — the \
              epoch boundary must be transaction-consistent"
             (active_transactions t));
      hot_span t "epoch-advance" (fun () -> Incll.advance i)

let current_epoch t =
  match t.incll with None -> None | Some i -> Some (Incll.epoch i)

(* Allocate transactionally-managed storage for one word.  WAL configs
   hand out a bare word; InCLL hands out a full cell line (data + in-line
   undo + epoch tag) through the durable directory.  Workloads that want
   to run unchanged across every configuration allocate through this. *)
let alloc_cell t =
  match t.incll with
  | Some i -> Incll.alloc_cell i
  | None -> Alloc.alloc t.alloc 8

(* Append one CHECKPOINT record to every partition.  Callers first make
   every user update durable in place (flush + fence): a surviving
   CHECKPOINT then certifies that every transaction whose END precedes
   it is durable in place (see [analysis_one_layer]).  Returns each
   record with its append handle. *)
let append_checkpoints t =
  Array.map
    (fun p ->
      let cp =
        Record.make t.alloc ~lsn:(fresh_lsn t) ~txn:0 ~typ:Record.Checkpoint
          ~addr:0 ~old_value:0L ~new_value:0L ~undo_next:0 ~prev_same_txn:0
      in
      let h = Log.append_h ~is_end:true p.log cp in
      Pmcheck.expect_persisted t.arena ~addr:cp ~len:Record.size_bytes
        ~what:"checkpoint record before log clearing";
      (cp, h))
    t.parts

(* One-layer clearing behind the CHECKPOINT records [cps]: every record
   except the CHECKPOINT and the records of the transactions in
   [p.open_at] goes.  Partitions are cleared one by one, in any order:
   with every CHECKPOINT in place, recovery skips every settled
   transaction, so only the END-last order within each partition matters
   ([Log.clear_settled]).  The CHECKPOINTs themselves go last. *)
let clear_behind_checkpoints t cps =
  Array.iteri
    (fun i p ->
      let cp, cp_h = cps.(i) in
      let stop = Hashtbl.create 8 in
      Hashtbl.replace stop (Log.handle_node cp_h) ();
      Hashtbl.iter (fun _ node -> Hashtbl.replace stop node ()) p.open_at;
      Log.clear_settled p.log ~stop:(Hashtbl.mem stop) ~settled:(fun r ->
          r <> cp && not (Hashtbl.mem p.open_at (record_txn t r))))
    t.parts

let remove_checkpoints t cps =
  Array.iteri (fun i p -> Log.remove_handle p.log (snd cps.(i))) t.parts

(* Persist every partition's batch cursor and release its pinned stores:
   otherwise flushed user data could refer to untrusted log slots after a
   crash.  Callers hold every latch, or run alone (recovery). *)
let persist_groups t =
  Array.iter
    (fun p ->
      Log.flush_group p.log;
      drain_deferred t p)
    t.parts

let rec checkpoint t =
  match t.incll with
  | Some i ->
      (* Best-effort under load: with writers mid-transaction the advance
         must wait for the next quiescent checkpoint — skipping is always
         safe (durability is simply deferred), advancing non-quiescent
         never is. *)
      if Hashtbl.length t.incll_txns = 0 then
        hot_span t "epoch-advance" (fun () -> Incll.advance i)
  | None -> checkpoint_wal t

and checkpoint_wal t =
  hot_span t "checkpoint" @@ fun () ->
  (* Most of the cache write-back runs with no latch held, so writers keep
     appending while it runs.  An instant under every latch first leaves
     no batch slot pending and no line pinned; the unlatched write-back
     then writes back only lines the hardware could evict at that moment,
     which the protocol survives anyway.  The latched [flush_all] below
     is left with the lines dirtied again since, and the CHECKPOINT still
     follows it (see DESIGN 5c). *)
  hot_span t "cp-preflush" (fun () ->
      with_all_latches t 0 (fun () -> persist_groups t);
      Arena.flush_unpinned t.arena);
  with_all_latches t 0 (fun () ->
      let cps =
        hot_span t "cp-persist" (fun () ->
            persist_groups t;
            Arena.flush_all t.arena;
            Arena.fence t.arena;
            (* Section 4.6: every user update is now durable in place. *)
            append_checkpoints t)
      in
      hot_span t "cp-clear" (fun () ->
          let settled p = Hashtbl.fold (fun id () acc -> id :: acc) p.ended [] in
          (match t.cfg.layers with
          | One_layer -> clear_behind_checkpoints t cps
          | Two_layer ->
              (* Settled transactions' tree nodes go in *global* LSN
                 order, END records last, across every partition. *)
              let records = ref [] in
              Array.iter
                (fun p ->
                  match p.index with
                  | None -> ()
                  | Some idx ->
                      List.iter
                        (fun id ->
                          match Txn_table.find p.table id with
                          | None -> ()
                          | Some e ->
                              let rec collect r =
                                if r <> 0 then begin
                                  records :=
                                    (Record.lsn t.arena r, r, p, idx)
                                    :: !records;
                                  collect (Record.prev_same_txn t.arena r)
                                end
                              in
                              collect e.Txn_table.last_record)
                        (settled p))
                t.parts;
              let oldest_first =
                List.sort (fun (l1, _, _, _) (l2, _, _, _) -> compare l1 l2)
                  !records
              in
              let remove (lsn, r, _, idx) =
                ignore (Avl_index.remove idx lsn);
                Record.free t.alloc r
              in
              let ends, others =
                List.partition
                  (fun (_, r, _, _) -> record_typ t r = Record.End)
                  oldest_first
              in
              List.iter remove others;
              List.iter remove ends;
              Array.iter
                (fun p ->
                  List.iter
                    (fun id -> Txn_table.remove p.table id)
                    (settled p))
                t.parts);
          Array.iter
            (fun p ->
              List.iter (fun id -> free_deferred_deletes t p id) (settled p);
              Hashtbl.reset p.ended)
            t.parts;
          remove_checkpoints t cps);
      (* Compact any partition that clearing left mostly gaps
         (long-running transactions spanning otherwise-empty buckets,
         Section 3.3).  Compaction moves every record, so the open
         transactions' first nodes are looked up again. *)
      hot_span t "cp-compact" (fun () ->
          Array.iter
            (fun p ->
              if Log.compact ~threshold:0.25 p.log then begin
                let was_open = Hashtbl.copy p.open_at in
                Hashtbl.reset p.open_at;
                Log.iter_h p.log (fun h r ->
                    let x = record_txn t r in
                    if Hashtbl.mem was_open x then note_open p x h)
              end)
            t.parts))

(* -- recovery (Section 4.5) -------------------------------------------------- *)

(* Per-partition sub-span: with one partition the phase totals are the
   whole story (and the pinned profile shape stays exactly as before);
   with several, each partition's share appears as "phase/pN". *)
let part_span t prof name p f =
  if Array.length t.parts > 1 then
    Probe.span prof (Arena.stats t.arena) (Printf.sprintf "%s/p%d" name p.pid) f
  else f ()

(* K-way merge of per-partition streams, each ascending by [lsn_of],
   into one globally ascending array — the single merge routine behind
   every recovery replay order.  The streams are few (the partition
   count), so a linear scan of the heads per pop is cheaper than a heap at
   this size; ties go to the lower partition. *)
let merge_by_lsn lsn_of streams =
  if Array.length streams = 1 then streams.(0)
  else
    let pos = Array.make (Array.length streams) 0 in
    let pop _ =
      let best = ref (-1) in
      Array.iteri
        (fun i s ->
          if
            pos.(i) < Array.length s
            && (!best < 0
               || lsn_of s.(pos.(i)) < lsn_of streams.(!best).(pos.(!best)))
          then best := i)
        streams;
      let b = !best in
      pos.(b) <- pos.(b) + 1;
      streams.(b).(pos.(b) - 1)
    in
    (* [Array.init] applies [pop] in index order *)
    Array.init (Array.fold_left (fun n s -> n + Array.length s) 0 streams) pop

(* One partition's single recovery scan: decode every live record once,
   hand it (with its removal handle) to [visit] in append order, and
   return the decoded entries ascending by LSN.  Append order within a
   partition is *almost* LSN order — LSNs are fetched from the global
   counter outside the latch, so two concurrent appends into the same
   partition can land inverted — hence the sort before the k-way merge
   relies on it. *)
let decode_partition t p visit =
  let acc = ref [] in
  Log.iter_h p.log (fun h r ->
      let d = Record.decode t.arena r in
      visit h d;
      acc := d :: !acc);
  let a = Array.of_list (List.rev !acc) in
  Array.stable_sort (fun (x : Record.decoded) y -> compare x.lsn y.lsn) a;
  a

(* The one-layer replay stream: every partition scanned once
   ([decode_partition], each scan wrapped by [span]) and merged into
   global LSN order.  Redo replays it forward and undo backward; nothing
   after analysis reads the log again. *)
let one_layer_stream ?(span = fun _ f -> f ()) t visit =
  merge_by_lsn
    (fun (d : Record.decoded) -> d.lsn)
    (Array.map
       (fun p -> span p (fun () -> decode_partition t p (visit p)))
       t.parts)

(* A two-layer partition's records as its AAVLT orders them: ascending
   by LSN. *)
let index_stream t p ~keep =
  match p.index with
  | None -> [||]
  | Some idx ->
      let acc = ref [] in
      Avl_index.iter idx (fun n ->
          let r = Avl_index.head_record idx n in
          if keep r then acc := (Record.lsn t.arena r, r) :: !acc);
      Array.of_list (List.rev !acc)

(* The union of every partition's records in global LSN order — the
   stream recovery replays, built by the same code.  Exposed for the
   property test that merged redo order equals global LSN order. *)
let merged_log_records t =
  match t.cfg.layers with
  | One_layer ->
      Array.to_list
        (Array.map
           (fun (d : Record.decoded) -> d.ref)
           (one_layer_stream t (fun _ _ _ -> ())))
  | Two_layer ->
      Array.to_list
        (Array.map snd
           (merge_by_lsn fst
              (Array.map (index_stream t ~keep:(fun _ -> true)) t.parts)))

(* What one-layer analysis hands the later phases: the decoded replay
   stream, each transaction's first LSN (undo stops below the oldest
   loser's), and each partition's DELETE entries in append order (the
   in-doubt transactions' deferred de-allocations). *)
type scan = {
  stream : Record.decoded array;
  first_lsn : (txn, int) Hashtbl.t;
  deletes : Record.decoded list array;
}

(* Analysis for one-layer logging: the only pass over the log.  It
   reconstructs each partition's transaction table with a forward scan of
   that partition to the point of failure (a transaction's records all
   live in its home partition), decoding every record once into the
   replay stream.  The LSN and transaction-id high-water marks are global
   maxima over every partition.  Each transaction's first record also
   enters [p.open_at], so in-doubt clearing needs no rescan.

   A surviving CHECKPOINT record means the crash hit a checkpoint after
   its flush: the record is appended only once every user update is
   durable in place.  Every transaction whose END has a smaller LSN —
   in any partition, since each END's LSN is drawn under its partition
   latch and the checkpoint holds them all — is then *certified*, and
   redo skips its records.  That is what lets the checkpoint clear each
   partition independently: whatever subset of certified records a
   crash leaves behind, none is replayed over a newer value.  Records
   appended after a CHECKPOINT (a recovery's CLRs and ENDs) have larger
   LSNs and are replayed as usual.  Returns (the scan, transactions
   found finished, certified transactions). *)
let analysis_one_layer t prof =
  let max_lsn = ref 0 and max_txn = ref 0 in
  let cp_lsn = ref max_int in
  let first_lsn = Hashtbl.create 64 and last_lsn = Hashtbl.create 64 in
  let deletes = Array.make (Array.length t.parts) [] in
  let visit p =
    Txn_table.clear p.table;
    Hashtbl.reset p.open_at;
    fun h (d : Record.decoded) ->
      if d.lsn > !max_lsn then max_lsn := d.lsn;
      let x = d.txn in
      if x > !max_txn then max_txn := x;
      if x <> 0 then begin
        let e = Txn_table.find_or_add p.table x in
        e.Txn_table.last_record <- d.ref;
        Hashtbl.replace last_lsn x d.lsn;
        (match Hashtbl.find_opt first_lsn x with
        | Some l when l <= d.lsn -> ()
        | _ -> Hashtbl.replace first_lsn x d.lsn);
        note_open p x h;
        match d.typ with
        | Record.End -> e.Txn_table.status <- Txn_table.Finished
        | Record.Rollback -> e.Txn_table.status <- Txn_table.Aborted
        | Record.Prepare ->
            e.Txn_table.status <- Txn_table.Prepared;
            Hashtbl.replace t.prepared_gtids x
              (Int64.to_int (Record.old_value t.arena d.ref))
        | Record.Delete -> deletes.(p.pid) <- d :: deletes.(p.pid)
        | Record.Update | Record.Clr | Record.Checkpoint -> ()
      end
      else if d.typ = Record.Checkpoint && d.lsn < !cp_lsn then cp_lsn := d.lsn
  in
  let stream = one_layer_stream ~span:(part_span t prof "analysis") t visit in
  Sim_atomic.set t.next_lsn (!max_lsn + 1);
  reseed_txn_counters t !max_txn;
  let finished = ref 0 and certified = Hashtbl.create 16 in
  Array.iter
    (fun p ->
      Txn_table.iter p.table (fun e ->
          if e.Txn_table.status = Txn_table.Finished then begin
            incr finished;
            (* a finished transaction's last record is its END *)
            if
              !cp_lsn < max_int
              && Hashtbl.find last_lsn e.Txn_table.id < !cp_lsn
            then Hashtbl.replace certified e.Txn_table.id ()
          end))
    t.parts;
  ( { stream; first_lsn; deletes = Array.map List.rev deletes },
    !finished,
    certified )

(* Walking the decoded stream is a DRAM load per entry. *)
let charge_stream_entry t =
  Clock.advance (Arena.config t.arena).Config.dram_read_ns

(* Redo phase (no-force only): repeat history forward in *global* LSN
   order — the merged stream analysis decoded.  Replaying each partition
   independently would be wrong the moment two transactions in different
   partitions updated the same word: the replay order must be the LSN
   order, which is cross-partition.  Records of [certified] transactions
   are skipped: their effects are already durable in place.  Physical
   redo is idempotent, so a crash during recovery just restarts it.
   Returns the number of records re-applied. *)
let redo_one_layer t scan ~certified =
  let applied = ref 0 in
  Array.iter
    (fun (d : Record.decoded) ->
      charge_stream_entry t;
      match d.typ with
      | Record.Update | Record.Clr ->
          if not (Hashtbl.length certified > 0 && Hashtbl.mem certified d.txn)
          then begin
            incr applied;
            Arena.write t.arena d.addr d.new_value
          end
      | Record.End | Record.Checkpoint | Record.Delete | Record.Rollback
      | Record.Prepare ->
          ())
    scan.stream;
  !applied

(* Undo phase: Algorithm 2 — a single backward walk of the decoded stream
   in descending global LSN order undoing every unfinished transaction,
   tracking per-transaction CLR bounds so that already-undone updates are
   skipped.  The walk ends below the oldest loser's first record, and
   with no loser there is nothing to walk.  Only the losers' records are
   read again from NVM (CLR bounds and the undo itself).  Each CLR lands
   in its transaction's home partition.  Returns the number of losers. *)
let undo_one_layer t scan =
  let durably = t.cfg.policy = Force in
  let oldest = ref max_int in
  Array.iter
    (fun p ->
      Txn_table.iter p.table (fun e ->
          match e.Txn_table.status with
          | Txn_table.Running | Txn_table.Aborted ->
              oldest := min !oldest (Hashtbl.find scan.first_lsn e.Txn_table.id)
          | Txn_table.Prepared | Txn_table.Finished -> ()))
    t.parts;
  let undo_map : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let to_mark_rollback = Hashtbl.create 16 in
  let i = ref (Array.length scan.stream - 1) in
  while !i >= 0 && scan.stream.(!i).Record.lsn >= !oldest do
    let d = scan.stream.(!i) in
    decr i;
    charge_stream_entry t;
    let x = d.txn in
    if x <> 0 then
      let p = home t x in
      match Txn_table.find p.table x with
      | None -> ()
      | Some e -> (
          match e.Txn_table.status with
          | Txn_table.Finished -> ()
          | Txn_table.Prepared ->
              (* in doubt: the transaction voted yes and may only be
                 settled by [resolve_in_doubt] once the coordinator's
                 decision is known — leave its records untouched *)
              ()
          | Txn_table.Running | Txn_table.Aborted -> (
              if e.Txn_table.status = Txn_table.Running then begin
                e.Txn_table.status <- Txn_table.Aborted;
                Hashtbl.replace to_mark_rollback x ()
              end;
              match d.typ with
              | Record.Clr ->
                  Hashtbl.replace undo_map x (Record.undo_next t.arena d.ref);
                  if t.cfg.policy = Force then
                    (* redo the CLR: covers a crash between the CLR and
                       its user store *)
                    Arena.nt_write t.arena d.addr d.new_value
              | Record.Update ->
                  let skip =
                    match Hashtbl.find_opt undo_map x with
                    | Some bound -> d.lsn >= bound
                    | None -> false
                  in
                  if not skip then undo_one t p x d.ref ~durably
              | Record.End | Record.Checkpoint | Record.Delete
              | Record.Rollback | Record.Prepare ->
                  ()))
  done;
  (* END records for every transaction we just settled, appended to each
     loser's home partition; in-doubt transactions are not losers *)
  let losers = ref 0 in
  Array.iter
    (fun p ->
      Txn_table.iter p.table (fun e ->
          if
            e.Txn_table.status <> Txn_table.Finished
            && e.Txn_table.status <> Txn_table.Prepared
          then begin
            incr losers;
            (if Hashtbl.mem to_mark_rollback e.Txn_table.id then
               let r =
                 Record.make t.alloc ~lsn:(fresh_lsn t) ~txn:e.Txn_table.id
                   ~typ:Record.Rollback ~addr:0 ~old_value:0L ~new_value:0L
                   ~undo_next:0 ~prev_same_txn:0
               in
               Log.append p.log r);
            append_end t p e.Txn_table.id;
            e.Txn_table.status <- Txn_table.Finished
          end))
    t.parts;
  !losers

(* After analysis, [t.prepared_gtids] holds every transaction that logged
   a PREPARE; keep only those still in doubt (status [Prepared]) — a
   later END or ROLLBACK record means the outcome was already settled. *)
let prune_in_doubt t =
  let keep = Hashtbl.create 8 in
  Array.iter
    (fun p ->
      Txn_table.iter p.table (fun e ->
          if e.Txn_table.status = Txn_table.Prepared then
            Hashtbl.replace keep e.Txn_table.id
              (match Hashtbl.find_opt t.prepared_gtids e.Txn_table.id with
              | Some g -> g
              | None -> 0)))
    t.parts;
  Hashtbl.reset t.prepared_gtids;
  Hashtbl.iter (Hashtbl.replace t.prepared_gtids) keep

(* Checksum gate used by two-layer recovery before a tree-indexed record
   is interpreted: plausibly addressed, then CRC-intact. *)
let record_intact t r =
  r >= 0
  && r land (Record.size_bytes - 1) = 0
  && r + Record.size_bytes <= Arena.size t.arena
  && Record.verify t.arena r

(* Two-layer analysis + undo: the AAVLTs *are* the durable transaction
   tables, one per partition. *)
(* Two-layer recovery: each partition's AAVLT in-order traversal is that
   partition's LSN-ordered record stream; the k-way merge of the streams
   is the *global* LSN order.  Analysis rebuilds each partition's
   transaction table from the merged stream (each transaction's records
   land in its home table); redo (no-force) repeats history in merged
   LSN order; undo walks each unfinished transaction's chain within its
   home partition with the Algorithm-2 CLR bound.  Records failing their
   checksum are torn writes: they are dropped from analysis/redo, and a
   chain walk stops at the first torn link. *)
let recover_two_layer t prof =
  let pstats = Arena.stats t.arena in
  Array.iter (fun p -> Txn_table.clear p.table) t.parts;
  let torn = ref 0 in
  let count_torn () =
    incr torn;
    let s = Arena.stats t.arena in
    s.Stats.torn_records <- s.Stats.torn_records + 1
  in
  (* analysis: per-partition in-order traversals, merged by LSN *)
  let ascending, finished =
    Probe.span prof pstats "analysis" @@ fun () ->
    let intact r = record_intact t r || (count_torn (); false) in
    let streams =
      Array.map
        (fun p -> part_span t prof "analysis" p @@ fun () ->
                  index_stream t p ~keep:intact)
        t.parts
    in
    let ascending = Array.map snd (merge_by_lsn fst streams) in
    let max_lsn = ref 0 and max_txn = ref 0 in
    Array.iter
      (fun r ->
        let l = Record.lsn t.arena r in
        if l > !max_lsn then max_lsn := l;
        let x = record_txn t r in
        if x > !max_txn then max_txn := x;
        if x <> 0 then begin
          let e = Txn_table.find_or_add (home t x).table x in
          e.Txn_table.last_record <- r;
          match record_typ t r with
          | Record.End -> e.Txn_table.status <- Txn_table.Finished
          | Record.Rollback -> e.Txn_table.status <- Txn_table.Aborted
          | Record.Prepare ->
              e.Txn_table.status <- Txn_table.Prepared;
              Hashtbl.replace t.prepared_gtids x
                (Int64.to_int (Record.old_value t.arena r))
          | Record.Update | Record.Clr | Record.Delete | Record.Checkpoint ->
              ()
        end)
      ascending;
    Sim_atomic.set t.next_lsn (!max_lsn + 1);
    reseed_txn_counters t !max_txn;
    let finished = ref 0 in
    Array.iter
      (fun p ->
        Txn_table.iter p.table (fun e ->
            if e.Txn_table.status = Txn_table.Finished then incr finished))
      t.parts;
    (ascending, !finished)
  in
  prune_in_doubt t;
  (* redo (no-force only): repeat history in merged LSN order *)
  let redo = ref 0 in
  if t.cfg.policy = No_force then
    Probe.span prof pstats "redo" (fun () ->
        Array.iter
          (fun r ->
            match record_typ t r with
            | Record.Update | Record.Clr ->
                incr redo;
                Arena.write t.arena (Record.addr t.arena r)
                  (Record.new_value t.arena r)
            | Record.End | Record.Checkpoint | Record.Delete
            | Record.Rollback | Record.Prepare ->
                ())
          ascending);
  (* undo unfinished transactions via their back-chains, each within its
     home partition *)
  let n_losers =
    Probe.span prof pstats "undo" @@ fun () ->
    let durably = t.cfg.policy = Force in
    let total = ref 0 in
    Array.iter
      (fun p ->
        match p.index with
        | None -> ()
        | Some idx ->
            (* in-doubt (prepared) transactions are not losers: they stay
               unsettled until [resolve_in_doubt] *)
            let losers =
              List.filter
                (fun e -> e.Txn_table.status <> Txn_table.Prepared)
                (Txn_table.unfinished p.table)
            in
            total := !total + List.length losers;
            List.iter
              (fun e ->
                let x = e.Txn_table.id in
                let head = e.Txn_table.last_record in
                (* corner case: crash between the last CLR and its user
                   store *)
                (if
                   t.cfg.policy = Force && head <> 0
                   && record_typ t head = Record.Clr
                 then
                   Arena.nt_write t.arena
                     (Record.addr t.arena head)
                     (Record.new_value t.arena head));
                let bound = ref max_int in
                let rec go r =
                  if r <> 0 then
                    if not (record_intact t r) then
                      (* torn link: the chain beyond it predates the tear
                         and was settled by earlier groups — stop here *)
                      count_torn ()
                    else begin
                      let next = Record.prev_same_txn t.arena r in
                      (match record_typ t r with
                      | Record.Clr -> bound := Record.undo_next t.arena r
                      | Record.Update ->
                          if Record.lsn t.arena r < !bound then begin
                            ignore (Avl_index.find idx (Record.lsn t.arena r));
                            undo_one t p x r ~durably
                          end
                      | Record.End | Record.Checkpoint | Record.Delete
                      | Record.Rollback | Record.Prepare ->
                          ());
                      go next
                    end
                in
                go head;
                append_end t p x;
                e.Txn_table.status <- Txn_table.Finished)
              losers)
      t.parts;
    !total
  in
  Probe.span prof pstats "clearing" (fun () ->
      (* Make the redo/undo results durable *before* dropping records: a
         crash here must still find the log able to repeat history. *)
      persist_groups t;
      Arena.flush_all t.arena;
      Arena.fence t.arena;
      (* every transaction except the in-doubt set is settled: free the
         settled records — wholesale (one atomic root swing per
         partition) when nothing is in doubt, selectively otherwise, so
         that in-doubt chains survive until [resolve_in_doubt].  Torn
         records leak, like every volatile free list across a crash. *)
      Array.iter
        (fun p ->
          part_span t prof "clearing" p @@ fun () ->
          match p.index with
          | None -> ()
          | Some idx ->
              if Hashtbl.length t.prepared_gtids = 0 then begin
                let records = ref [] in
                Avl_index.iter idx (fun n ->
                    let r = Avl_index.head_record idx n in
                    if record_intact t r then records := r :: !records);
                Avl_index.clear idx;
                List.iter (fun r -> Record.free t.alloc r) !records
              end
              else begin
                let victims = ref [] in
                Avl_index.iter idx (fun n ->
                    let r = Avl_index.head_record idx n in
                    let keep =
                      record_intact t r
                      && Hashtbl.mem t.prepared_gtids (record_txn t r)
                    in
                    if not keep then
                      victims :=
                        ( Avl_index.key idx n,
                          if record_intact t r then r else 0 )
                        :: !victims);
                List.iter
                  (fun (lsn, r) ->
                    ignore (Avl_index.remove idx lsn);
                    if r <> 0 then Record.free t.alloc r)
                  !victims
              end)
        t.parts);
  {
    records_scanned = Array.length ascending;
    torn_truncated = !torn;
    redo_applied = !redo;
    txns_finished = finished;
    txns_undone = n_losers;
  }

(* [deletes] holds each one-layer partition's DELETE entries from the
   analysis scan, in append order. *)
let clear_after_recovery t ~deletes =
  (* Every transaction is settled except the in-doubt set; make the
     recovered state durable, then clear the logs.  With nothing in doubt
     this is the paper's wholesale three-step swap (Section 4.5);
     otherwise clearing is selective — an in-doubt transaction's records
     (UPDATE/DELETE/PREPARE and any CLRs from an interrupted abort
     resolution) must survive until [resolve_in_doubt], across any number
     of further crashes.  Buffered Batch stores must land before the
     flush or they would be silently dropped. *)
  persist_groups t;
  Arena.flush_all t.arena;
  Arena.fence t.arena;
  let in_doubt_txn x = Hashtbl.mem t.prepared_gtids x in
  Array.iter
    (fun p ->
      Hashtbl.reset p.ended;
      (* one-layer analysis left every transaction's first node here;
         only the in-doubt ones stay open *)
      Hashtbl.filter_map_inplace
        (fun x node -> if in_doubt_txn x then Some node else None)
        p.open_at;
      p.deferred_deletes <- [];
      p.deferred <- [])
    t.parts;
  (* An in-doubt transaction's surviving DELETE records are its deferred
     de-allocation intentions: a commit decision frees them, an abort
     drops them. *)
  let note_delete p x r =
    p.deferred_deletes <-
      ( x,
        Record.lsn t.arena r,
        Record.addr t.arena r,
        Int64.to_int (Record.old_value t.arena r) )
      :: p.deferred_deletes
  in
  match (t.cfg.layers, Hashtbl.length t.prepared_gtids) with
  | _, 0 ->
      Array.iter
        (fun p ->
          Log.clear_all p.log;
          Txn_table.clear p.table)
        t.parts
  | One_layer, _ ->
      (* Clear exactly like a checkpoint whose open transactions are the
         in-doubt ones, behind fresh CHECKPOINT records: a crash
         mid-clearing then leaves every settled transaction certified,
         in every partition.  One-layer resolution re-scans the log, so
         the volatile tables can go. *)
      Array.iter
        (fun p ->
          List.iter
            (fun (d : Record.decoded) ->
              if in_doubt_txn d.txn then note_delete p d.txn d.ref)
            deletes.(p.pid);
          Txn_table.clear p.table)
        t.parts;
      let cps = append_checkpoints t in
      clear_behind_checkpoints t cps;
      remove_checkpoints t cps
  | Two_layer, _ ->
      (* the bottom-layer (AAVLT-internal) log holds only settled
         internal records; in-doubt user records live in the index,
         which recovery already cleared selectively.  Keep the in-doubt
         table entries: their chains drive resolution. *)
      Array.iter
        (fun p ->
          Log.clear_all p.log;
          let dead = ref [] in
          Txn_table.iter p.table (fun e ->
              if e.Txn_table.status <> Txn_table.Prepared then
                dead := e.Txn_table.id :: !dead);
          List.iter (fun id -> Txn_table.remove p.table id) !dead;
          Txn_table.iter p.table (fun e ->
              let rec go r =
                if r <> 0 then begin
                  if record_typ t r = Record.Delete then
                    note_delete p e.Txn_table.id r;
                  go (Record.prev_same_txn t.arena r)
                end
              in
              go e.Txn_table.last_record))
        t.parts

let torn_truncated_logs t =
  Array.fold_left (fun acc p -> acc + Log.torn_truncated p.log) 0 t.parts

(* Recovery proper, charging each phase to [prof].  The profile gives
   every recovery its own counter scope: the arena's {!Stats} totals are
   cumulative across attach cycles, so per-phase deltas are the only way
   to report one recovery's NVM work without double-counting.  With more
   than one partition the per-partition shares additionally appear as
   "phase/pN" sub-spans. *)
let recover_with t prof =
  let pstats = Arena.stats t.arena in
  Pmcheck.recovery_begin t.arena;
  match t.incll with
  | Some i ->
      (* InCLL recovery: one pass over the durable cell directory
         rewinding every cell tagged with the crashed epoch, then an
         epoch advance that makes the rewound state the new durable
         boundary.  No analysis/redo/undo distinction — the in-line tags
         are the whole transaction table. *)
      let scanned, rolled =
        Probe.span prof pstats "epoch-scan" (fun () -> Incll.recover i)
      in
      Hashtbl.reset t.incll_txns;
      Pmcheck.recovery_end t.arena;
      t.last_recovery <-
        Some
          {
            records_scanned = scanned;
            torn_truncated = 0;
            redo_applied = 0;
            txns_finished = 0;
            txns_undone = rolled;
          };
      t.last_recovery_profile <- Some prof
  | None ->
  Hashtbl.reset t.prepared_gtids;
  let report, deletes =
    match t.cfg.layers with
    | One_layer ->
        let scan, finished, certified =
          Probe.span prof pstats "analysis" (fun () ->
              analysis_one_layer t prof)
        in
        prune_in_doubt t;
        let redo =
          if t.cfg.policy = No_force then
            Probe.span prof pstats "redo" (fun () ->
                redo_one_layer t scan ~certified)
          else 0
        in
        let undone =
          Probe.span prof pstats "undo" (fun () -> undo_one_layer t scan)
        in
        ( {
            records_scanned = Array.length scan.stream;
            torn_truncated = torn_truncated_logs t;
            redo_applied = redo;
            txns_finished = finished;
            txns_undone = undone;
          },
          scan.deletes )
    | Two_layer ->
        let r = recover_two_layer t prof in
        (* the AAVLTs' internal logs may have truncated torn records too *)
        ( { r with torn_truncated = r.torn_truncated + torn_truncated_logs t },
          [||] )
  in
  Probe.span prof pstats "clearing" (fun () ->
      clear_after_recovery t ~deletes);
  Pmcheck.recovery_end t.arena;
  t.last_recovery <- Some report;
  t.last_recovery_profile <- Some prof

let recover t = recover_with t (Probe.create ())

(* Reattach after a crash: recover each partition's log structure and
   AAVLT, then run the merged transaction recovery.  Every phase —
   including the structural log/index reattachment — is profiled; see
   {!last_recovery_profile}. *)
let attach ?(cfg = default_config) alloc ~root_slot =
  check_cfg cfg ~root_slot;
  let arena = Alloc.arena alloc in
  let prof = Probe.create () in
  let pstats = Arena.stats arena in
  (* The fingerprint check reads a root slot, so it is charged to the
     first phase: every simulated nanosecond of [attach] lands in some
     top-level phase. *)
  let validate () = validate_stored_config arena cfg ~root_slot in
  if cfg.incll then begin
    let i =
      Probe.span prof pstats "dir-attach" (fun () ->
          validate ();
          Incll.attach arena alloc
            ~epoch_slot:(incll_epoch_slot ~root_slot)
            ~dir_slot:(incll_dir_slot ~root_slot))
    in
    let t = make_t ~incll:i cfg alloc [||] in
    recover_with t prof;
    t
  end
  else
  let parts =
    Array.init cfg.partitions (fun pid ->
        let log =
          Probe.span prof pstats "log-attach" (fun () ->
              if pid = 0 then validate ();
              (if cfg.partitions > 1 then
                 Probe.span prof pstats (Printf.sprintf "log-attach/p%d" pid)
               else fun f -> f ())
              @@ fun () ->
              Log.attach cfg.variant ~bucket_cap:cfg.bucket_cap alloc
                ~root_slot:(part_log_slot ~root_slot pid))
        in
        Log.set_group_tag log pid;
        let index =
          match cfg.layers with
          | One_layer -> None
          | Two_layer ->
              Probe.span prof pstats "index-rebuild" (fun () ->
                  let root_ptr =
                    Int64.to_int
                      (Arena.root_get arena (part_index_slot ~root_slot pid))
                  in
                  let idx = Avl_index.attach alloc ~ilog:log ~root_ptr in
                  Avl_index.recover idx;
                  Some idx)
        in
        make_part cfg pid log index)
  in
  let t = make_t cfg alloc parts in
  recover_with t prof;
  t

(* -- convenience --------------------------------------------------------- *)

(* The paper's [persistent_atomic] block: commit on success, roll back on
   exception.  A simulated crash is not an exception the transaction can
   clean up after: the process it models is gone, and running [rollback]
   against the post-crash arena would durably append CLR/END records to a
   crash image whose undo stores are lost — recovery would then treat the
   half-done transaction as settled and redo its surviving updates.
   Settling the transaction is recovery's job. *)
let atomically ?home t f =
  let txn = begin_txn ?home t in
  match f txn with
  | v ->
      commit t txn;
      v
  | exception Arena.Crash -> raise Arena.Crash
  | exception e ->
      rollback t txn;
      raise e

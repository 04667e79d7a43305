(* Happens-before race detection over the trace stream.

   A FastTrack-style vector-clock detector (Flanagan & Freund, PLDI'09)
   for the simulated multicore: it consumes the arena's memory events
   (stores, loads, flushes) interleaved with the synchronization
   vocabulary emitted through {!Trace.emit_sync} by {!Sim_mutex}
   (acquire/release with lock identity), {!Sim_atomic} (acquire+release
   read-modify-writes), and {!Sim_threads} (spawn happens-before a
   fiber's first operation, last operation happens-before the join).
   Everything runs on one domain, so the combined stream is totally
   ordered and the detector is deterministic.

   Why bother under a cooperative scheduler?  The fibers never *really*
   race — the scheduler interleaves them at yield points — but the
   simulation stands in for real domains on real hardware, and an
   access pair with no happens-before edge is exactly the pair whose
   order the real machine is free to flip.  Data races here are bugs in
   the modelled protocol, not in the simulator.

   Two checks share the clocks:

   - Data races, at 8-byte word granularity with the FastTrack
     same-epoch fast path: a write concurrent with another fiber's read
     or write of the same word (or a read concurrent with a write).

   - Persist races, at cacheline granularity: a flush or eviction of a
     line concurrent with another fiber's store to it.  Even when the
     *values* are race-free, a concurrent write-back makes the durable
     prefix scheduler-dependent — the line may reach NVM with or
     without the store depending on timing.  Stores covered by a live
     undo record (the {!Trace.Region_logged} .. {!Trace.Txn_settled}
     window) are exempt: WAL makes their early write-back recoverable
     by construction, and the persistency sanitizer separately checks
     the record-before-data ordering.  This is what lets a concurrent
     checkpoint's write-back, most of it with no latch held, run
     against No-force user stores without a report.
     {!Trace.Epoch_logged} lines (InCLL) get the same exemption
     permanently: the undo word travels in the data's own
     cache line, so *any* write-back of the line — at any time, by any
     fiber — lands a self-recovering image in NVM.

   Each race is reported once per (kind, site) like the sanitizer's
   redundant-flush diagnostics, as a pair of accesses carrying fiber
   ids, event indices, and held-lock sets — the lock sets make most
   reports self-diagnosing (one side holds the lock, the other holds
   nothing). *)

open Rewind_nvm

(* Fibers are numbered as in {!Trace.Fiber_switch}: 0..n-1 for scheduler
   fibers, -1 for the spawning thread.  Internally they index vector
   clocks at [fiber + 1]. *)

type access = {
  fiber : int;  (** -1 = the spawning (main) thread *)
  clock : int;  (** the fiber's scalar clock at the access *)
  event_no : int;  (** index into the combined event stream *)
  locks : int list;  (** ids of locks held, sorted *)
}

type kind =
  | Write_write  (** two concurrent writes *)
  | Write_read  (** earlier write, concurrent later read *)
  | Read_write  (** earlier read, concurrent later write *)
  | Persist_order
      (** flush/eviction of a line concurrent with a store to it *)

type race = { kind : kind; addr : int; len : int; prev : access; cur : access }

exception Race of race

type mode = Raise | Collect

(* Growable vector clocks: absent components read as 0, so clocks of
   different lengths compare fine and only the written array grows. *)
module Vc = struct
  type t = int array ref

  let create () = ref [||]
  let get v i = if i < Array.length !v then !v.(i) else 0

  let ensure v n =
    if Array.length !v < n then begin
      let a = Array.make (max n 8) 0 in
      Array.blit !v 0 a 0 (Array.length !v);
      v := a
    end

  let set v i x =
    ensure v (i + 1);
    !v.(i) <- x

  let tick v i = set v i (get v i + 1)

  let join dst src =
    ensure dst (Array.length !src);
    for i = 0 to Array.length !src - 1 do
      if !src.(i) > !dst.(i) then !dst.(i) <- !src.(i)
    done

  let copy src = ref (Array.copy !src)
end

(* Per-word access history: the last write epoch and the last read per
   fiber since that write. *)
type word_state = {
  mutable w : access option;
  mutable rs : (int * access) list;  (* tid -> last read *)
}

type t = {
  arena : Arena.t;
  mode : mode;
  line_shift : int;
  vcs : (int, Vc.t) Hashtbl.t;  (* tid -> clock *)
  lock_vc : (int, Vc.t) Hashtbl.t;  (* lock id -> release clock *)
  atom_vc : (int, Vc.t) Hashtbl.t;  (* atomic id -> release clock *)
  locks_held : (int, int list) Hashtbl.t;  (* tid -> sorted lock ids *)
  words : (int, word_state) Hashtbl.t;
  line_stores : (int, (int, access * bool) Hashtbl.t) Hashtbl.t;
      (* line -> tid -> (last store, WAL-covered at store time) *)
  line_flushes : (int, (int, access) Hashtbl.t) Hashtbl.t;
      (* line -> tid -> last flush/evict *)
  cover_count : (int, int) Hashtbl.t;  (* word -> live undo records *)
  txn_cover : (int, int list ref) Hashtbl.t;  (* txn -> covered words *)
  epoch_cover : (int, unit) Hashtbl.t;
      (* words under in-cache-line (InCLL) undo coverage.  Unlike WAL
         coverage this never expires: the undo word shares the data's
         line, so every write-back of the line carries its own recovery
         information and can never make the durable prefix
         unrecoverable. *)
  linked_cover : (int, unit) Hashtbl.t;
      (* words updated under the lock-free linked protocol (CAS +
         link-and-persist).  Like [epoch_cover] this never expires: a
         CAS'd link word is atomic at word granularity and every
         write-back of it lands a valid structure state, so concurrent
         store/flush pairs on its line cannot make the durable prefix
         observably schedule-dependent. *)
  private_owner : (int, int) Hashtbl.t;
      (* word -> allocating tid, while still unshared.  A fiber building
         a structure in memory it just allocated (an undo record before
         its append publishes it) is exempt from the persist check: the
         region is unreachable, so a concurrent write-back of it cannot
         make the durable prefix observably schedule-dependent.  Privacy
         ends at the first access by any other fiber. *)
  seen_sites : (kind * int, unit) Hashtbl.t;  (* per-site dedup *)
  mutable races : race list;  (* newest first *)
  mutable cur : int;  (* current tid: fiber + 1, 0 = main *)
  mutable events : int;
  mutable saved_tracer : (Trace.event -> unit) option;
}

(* -- vector-clock plumbing --------------------------------------------- *)

let vc_of tbl key ~fresh =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
      let v = Vc.create () in
      fresh v;
      Hashtbl.add tbl key v;
      v

(* A fiber's own component starts at 1 so its epochs are never confused
   with the all-zero initial clock of everyone else. *)
let tid_vc t tid = vc_of t.vcs tid ~fresh:(fun v -> Vc.set v tid 1)
let sync_vc tbl key = vc_of tbl key ~fresh:(fun _ -> ())
let locks_of t tid = Option.value ~default:[] (Hashtbl.find_opt t.locks_held tid)

let cur_access t =
  {
    fiber = t.cur - 1;
    clock = Vc.get (tid_vc t t.cur) t.cur;
    event_no = t.events;
    locks = locks_of t t.cur;
  }

(* Did [a] happen before the current fiber's present? *)
let hb t a = a.clock <= Vc.get (tid_vc t t.cur) (a.fiber + 1)

let report t kind ~addr ~len prev =
  let key = (kind, addr) in
  if not (Hashtbl.mem t.seen_sites key) then begin
    Hashtbl.add t.seen_sites key ();
    let r = { kind; addr; len; prev; cur = cur_access t } in
    t.races <- r :: t.races;
    match t.mode with Raise -> raise (Race r) | Collect -> ()
  end

(* -- WAL coverage (persist-race suppression) ---------------------------- *)

let word_range off len f =
  for w = off lsr 3 to (off + len - 1) lsr 3 do
    f w
  done

let add_cover t ~txn ~addr ~len =
  let words =
    match Hashtbl.find_opt t.txn_cover txn with
    | Some l -> l
    | None ->
        let l = ref [] in
        Hashtbl.add t.txn_cover txn l;
        l
  in
  word_range addr len (fun w ->
      words := w :: !words;
      Hashtbl.replace t.cover_count w
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.cover_count w)))

let drop_cover t ~txn =
  match Hashtbl.find_opt t.txn_cover txn with
  | None -> ()
  | Some words ->
      Hashtbl.remove t.txn_cover txn;
      List.iter
        (fun w ->
          match Hashtbl.find_opt t.cover_count w with
          | Some n when n > 1 -> Hashtbl.replace t.cover_count w (n - 1)
          | Some _ -> Hashtbl.remove t.cover_count w
          | None -> ())
        !words

let covered t off len =
  let all = ref true in
  word_range off len (fun w ->
      if
        not
          (Hashtbl.mem t.cover_count w
          || Hashtbl.mem t.epoch_cover w
          || Hashtbl.mem t.linked_cover w)
      then
        all := false);
  !all

(* Is [off, off+len) still private to the current fiber? *)
let self_private t off len =
  let all = ref true in
  word_range off len (fun w ->
      if Hashtbl.find_opt t.private_owner w <> Some t.cur then all := false);
  !all

(* Any access from a fiber other than the owner ends a word's privacy. *)
let demote_privacy t off len =
  word_range off len (fun w ->
      match Hashtbl.find_opt t.private_owner w with
      | Some owner when owner <> t.cur -> Hashtbl.remove t.private_owner w
      | _ -> ())

(* -- memory events ------------------------------------------------------ *)

let word_state t w =
  match Hashtbl.find_opt t.words w with
  | Some ws -> ws
  | None ->
      let ws = { w = None; rs = [] } in
      Hashtbl.add t.words w ws;
      ws

let line_tbl tbl line =
  match Hashtbl.find_opt tbl line with
  | Some h -> h
  | None ->
      let h = Hashtbl.create 4 in
      Hashtbl.add tbl line h;
      h

let on_store t off len =
  let acc = cur_access t in
  let cov = covered t off len || self_private t off len in
  demote_privacy t off len;
  word_range off len (fun w ->
      let ws = word_state t w in
      let same_epoch =
        match ws.w with
        | Some a -> a.fiber = acc.fiber && a.clock = acc.clock
        | None -> false
      in
      if not same_epoch then begin
        (match ws.w with
        | Some a when a.fiber <> acc.fiber && not (hb t a) ->
            report t Write_write ~addr:(w lsl 3) ~len:8 a
        | _ -> ());
        List.iter
          (fun (rtid, ra) ->
            if rtid <> t.cur && not (hb t ra) then
              report t Read_write ~addr:(w lsl 3) ~len:8 ra)
          ws.rs;
        ws.w <- Some acc;
        ws.rs <- []
      end);
  (* persist check: is this store concurrent with a prior write-back of
     its line by another fiber? *)
  let first = off lsr t.line_shift
  and last = (off + len - 1) lsr t.line_shift in
  for line = first to last do
    if not cov then
      Hashtbl.iter
        (fun ftid fa ->
          if ftid <> t.cur && not (hb t fa) then
            report t Persist_order ~addr:(line lsl t.line_shift)
              ~len:(1 lsl t.line_shift) fa)
        (line_tbl t.line_flushes line);
    Hashtbl.replace (line_tbl t.line_stores line) t.cur (acc, cov)
  done

let on_load t off len =
  let acc = cur_access t in
  demote_privacy t off len;
  word_range off len (fun w ->
      let ws = word_state t w in
      let same_epoch =
        match List.assq_opt t.cur ws.rs with
        | Some a -> a.clock = acc.clock
        | None -> false
      in
      if not same_epoch then begin
        (match ws.w with
        | Some a when a.fiber <> acc.fiber && not (hb t a) ->
            report t Write_read ~addr:(w lsl 3) ~len:8 a
        | _ -> ());
        ws.rs <- (t.cur, acc) :: List.remove_assq t.cur ws.rs
      end)

let on_writeback t off =
  let line = off lsr t.line_shift in
  let acc = cur_access t in
  Hashtbl.iter
    (fun stid (sa, cov) ->
      if stid <> t.cur && (not cov) && not (hb t sa) then
        report t Persist_order ~addr:(line lsl t.line_shift)
          ~len:(1 lsl t.line_shift) sa)
    (line_tbl t.line_stores line);
  Hashtbl.replace (line_tbl t.line_flushes line) t.cur acc

(* -- synchronization events --------------------------------------------- *)

let on_acquire t lock =
  Vc.join (tid_vc t t.cur) (sync_vc t.lock_vc lock);
  Hashtbl.replace t.locks_held t.cur
    (List.sort_uniq compare (lock :: locks_of t t.cur))

let on_release t lock =
  let c = tid_vc t t.cur in
  Hashtbl.replace t.lock_vc lock (Vc.copy c);
  Vc.tick c t.cur;
  Hashtbl.replace t.locks_held t.cur
    (List.filter (fun l -> l <> lock) (locks_of t t.cur))

let on_rmw t atom =
  let c = tid_vc t t.cur and a = sync_vc t.atom_vc atom in
  Vc.join c a;
  Hashtbl.replace t.atom_vc atom (Vc.copy c);
  Vc.tick c t.cur

let on_spawn t id =
  let child = tid_vc t (id + 1) and parent = tid_vc t t.cur in
  Vc.join child parent;
  (* tick both: the child's new incarnation must not share epochs with a
     previous run's accesses, and the parent's post-spawn accesses must
     not look visible to the child *)
  Vc.tick child (id + 1);
  Vc.tick parent t.cur

let on_join t id = Vc.join (tid_vc t t.cur) (tid_vc t (id + 1))

(* -- the handler -------------------------------------------------------- *)

let handle t ev =
  t.events <- t.events + 1;
  match ev with
  | Trace.Store { off; len; durable = _ } -> on_store t off len
  | Trace.Load { off; len } -> on_load t off len
  | Trace.Flush { off; dirty } -> if dirty then on_writeback t off
  | Trace.Evict { off } -> on_writeback t off
  | Trace.Acquire { lock } -> on_acquire t lock
  | Trace.Release { lock } -> on_release t lock
  | Trace.Atomic_rmw { atom } -> on_rmw t atom
  | Trace.Fiber_spawn { id } -> on_spawn t id
  | Trace.Fiber_switch { id } -> t.cur <- id + 1
  | Trace.Fiber_join { id } -> on_join t id
  | Trace.Region_logged { txn; addr; len; durable = _; group = _ } ->
      add_cover t ~txn ~addr ~len
  | Trace.Txn_settled { txn } -> drop_cover t ~txn
  | Trace.Crash ->
      (* volatile lines are gone; pending write-back state is moot *)
      Hashtbl.reset t.line_stores;
      Hashtbl.reset t.line_flushes
  | Trace.Allocated { addr; len } ->
      word_range addr len (fun w -> Hashtbl.replace t.private_owner w t.cur)
  | Trace.Freed { addr; len } ->
      word_range addr len (fun w -> Hashtbl.remove t.private_owner w)
  | Trace.Epoch_logged { addr; len; epoch = _ } ->
      word_range addr len (fun w -> Hashtbl.replace t.epoch_cover w ())
  | Trace.Linked_durable { addr; len } ->
      word_range addr len (fun w -> Hashtbl.replace t.linked_cover w ())
  | Trace.Fence | Trace.Pin _ | Trace.Unpin _ | Trace.Group_persisted _
  | Trace.Commit_point _ | Trace.Expect_persisted _ | Trace.Recovery _
  | Trace.Epoch_advanced _ | Trace.Linked_exposed _ ->
      ()

(* -- lifecycle ----------------------------------------------------------- *)

let log2_exact n =
  let rec go acc = function 1 -> acc | m -> go (acc + 1) (m lsr 1) in
  go 0 n

let attach ?(mode = Raise) arena =
  let t =
    {
      arena;
      mode;
      line_shift = log2_exact (Arena.config arena).Config.cacheline_bytes;
      vcs = Hashtbl.create 16;
      lock_vc = Hashtbl.create 64;
      atom_vc = Hashtbl.create 16;
      locks_held = Hashtbl.create 16;
      words = Hashtbl.create 4096;
      line_stores = Hashtbl.create 1024;
      line_flushes = Hashtbl.create 1024;
      cover_count = Hashtbl.create 1024;
      txn_cover = Hashtbl.create 64;
      epoch_cover = Hashtbl.create 1024;
      linked_cover = Hashtbl.create 1024;
      private_owner = Hashtbl.create 1024;
      seen_sites = Hashtbl.create 16;
      races = [];
      cur = 0;
      events = 0;
      saved_tracer = Arena.tracer arena;
    }
  in
  let sink = handle t in
  Arena.set_tracer arena (Some sink);
  Arena.set_trace_loads arena true;
  Trace.set_sync_tracer (Some sink);
  t

let detach t =
  Arena.set_tracer t.arena t.saved_tracer;
  Arena.set_trace_loads t.arena false;
  Trace.set_sync_tracer None

let with_racecheck ?mode arena f =
  let t = attach ?mode arena in
  Fun.protect ~finally:(fun () -> detach t) (fun () -> f t)

let races t = List.rev t.races
let events_seen t = t.events

(* -- reporting ----------------------------------------------------------- *)

let pp_kind ppf k =
  Fmt.string ppf
    (match k with
    | Write_write -> "write-write"
    | Write_read -> "write-read"
    | Read_write -> "read-write"
    | Persist_order -> "store-flush")

let pp_fiber ppf f = if f < 0 then Fmt.string ppf "main" else Fmt.pf ppf "%d" f

let pp_access ppf a =
  Fmt.pf ppf "fiber %a ev %d locks {%a}" pp_fiber a.fiber a.event_no
    Fmt.(list ~sep:(any ",") int)
    a.locks

let pp_race ppf r =
  Fmt.pf ppf "%s (%a) at [%d,+%d): %a vs %a"
    (match r.kind with Persist_order -> "persist race" | _ -> "data race")
    pp_kind r.kind r.addr r.len pp_access r.prev pp_access r.cur

type report = { events : int; data_races : int; persist_races : int }

let report t =
  let data, persist =
    List.fold_left
      (fun (d, p) r ->
        match r.kind with Persist_order -> (d, p + 1) | _ -> (d + 1, p))
      (0, 0) t.races
  in
  { events = t.events; data_races = data; persist_races = persist }

let pp_report ppf r =
  Fmt.pf ppf "%d events, %d data race site(s), %d persist race site(s)"
    r.events r.data_races r.persist_races

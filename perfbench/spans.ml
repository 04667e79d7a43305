(* Spans around every timed call the benchmark makes into a layer, kept in
   memory during the traced run and written out when it ends.

   A span has a layer ([tpcc], [core.tm], [nvm.arena], ...), the call's
   name, its parent span (-1 for a root), the request id shared by all
   spans of one transaction, the fiber that issued it, and simulated and
   host start/end times.  Spans are recorded only from the benchmark's
   own files: nothing below the public library interfaces is visible, so
   a layer's self time here is the part of its calls not covered by the
   calls the benchmark itself nests inside them.

   Host times of a span include whatever other fibers ran while it was
   suspended inside a simulated lock; its simulated times do not. *)

open Rewind_nvm

type span = {
  id : int;
  parent : int;
  req : int;
  fiber : int;
  layer : string;
  name : string;
  sim0 : int;
  mutable sim1 : int;
  host0 : float;
  mutable host1 : float;
}

type t = { mutable spans : span array; mutable n : int }

let dummy =
  { id = -1; parent = -1; req = -1; fiber = -1; layer = ""; name = "";
    sim0 = 0; sim1 = 0; host0 = 0.; host1 = 0. }

let create () = { spans = Array.make 4096 dummy; n = 0 }
let count t = t.n

let start t ~layer ~name ~req ~parent =
  if t.n = Array.length t.spans then begin
    let b = Array.make (2 * t.n) dummy in
    Array.blit t.spans 0 b 0 t.n;
    t.spans <- b
  end;
  let id = t.n in
  t.spans.(id) <-
    {
      id; parent; req;
      fiber = (if Sim_threads.active () then Sim_threads.current () else -1);
      layer; name;
      sim0 = Clock.now (); sim1 = -1;
      host0 = Host.now (); host1 = 0.;
    };
  t.n <- id + 1;
  id

let stop t id =
  let s = t.spans.(id) in
  s.sim1 <- Clock.now ();
  s.host1 <- Host.now ()

(* [with_span tr ~layer ~name ~req ~parent f] runs [f id], recording span
   [id] around it when tracing ([id] is -1 otherwise). *)
let with_span tr ~layer ~name ~req ~parent f =
  match tr with
  | None -> f (-1)
  | Some t -> (
      let id = start t ~layer ~name ~req ~parent in
      match f id with
      | v ->
          stop t id;
          v
      | exception e ->
          stop t id;
          raise e)

(* A span of the benchmark's own bookkeeping (crash points, end-of-run
   checks), outside any transaction. *)
let child tr ~parent ~layer ~name f =
  with_span tr ~layer ~name ~req:(-1) ~parent (fun _ -> f ())

type self = {
  key : string;  (** [layer/name] *)
  calls : int;
  sim_ns : int;  (** inclusive simulated time *)
  self_sim_ns : int;  (** minus the time covered by child spans *)
  self_host_s : float;
}

(* Per [layer/name] totals and self time; spans left open by an exception
   are skipped. *)
let self_times t =
  let child_sim = Array.make t.n 0 and child_host = Array.make t.n 0. in
  for i = 0 to t.n - 1 do
    let s = t.spans.(i) in
    if s.sim1 >= 0 && s.parent >= 0 then begin
      child_sim.(s.parent) <- child_sim.(s.parent) + (s.sim1 - s.sim0);
      child_host.(s.parent) <- child_host.(s.parent) +. (s.host1 -. s.host0)
    end
  done;
  let tbl = Hashtbl.create 32 and order = ref [] in
  for i = 0 to t.n - 1 do
    let s = t.spans.(i) in
    if s.sim1 >= 0 then begin
      let key = s.layer ^ "/" ^ s.name in
      let c, sim, ssim, shost =
        match Hashtbl.find_opt tbl key with
        | Some v -> v
        | None ->
            order := key :: !order;
            (0, 0, 0, 0.)
      in
      let dur = s.sim1 - s.sim0 in
      Hashtbl.replace tbl key
        ( c + 1,
          sim + dur,
          ssim + dur - child_sim.(i),
          shost +. (s.host1 -. s.host0 -. child_host.(i)) )
    end
  done;
  List.rev_map
    (fun key ->
      let calls, sim_ns, self_sim_ns, self_host_s = Hashtbl.find tbl key in
      { key; calls; sim_ns; self_sim_ns; self_host_s })
    !order

(* Write every span as one CSV row to [file]. *)
let write_csv t file =
  let oc = open_out file in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc
    "id,parent,req,fiber,layer,name,sim_start_ns,sim_end_ns,host_start_s,host_end_s\n";
  for i = 0 to t.n - 1 do
    let s = t.spans.(i) in
    Printf.fprintf oc "%d,%d,%d,%d,%s,%s,%d,%d,%.6f,%.6f\n" s.id s.parent s.req
      s.fiber s.layer s.name s.sim0 s.sim1 s.host0 s.host1
  done

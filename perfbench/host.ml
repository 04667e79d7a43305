(* The simulator's own cost on the machine it runs on: wall clock, peak
   resident memory and garbage-collector work. *)

let now () = Unix.gettimeofday ()

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Peak resident set size ([VmHWM]) in MiB. *)
let rss_hwm_mib () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

type gc = { minor_words : float; major_collections : int }

let gc () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words; major_collections = s.Gc.major_collections }

let gc_delta a b =
  {
    minor_words = b.minor_words -. a.minor_words;
    major_collections = b.major_collections - a.major_collections;
  }

(* Correctness bookkeeping behind [attempted]/[failed]: every issued
   transaction and every consistency or durability check is one attempt;
   an unexpected exception or a failed check is one failure. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (** newest first, capped *)
}

let create () = { attempted = 0; failed = 0; errors = [] }

let fail t msg =
  t.failed <- t.failed + 1;
  if List.length t.errors < 20 then t.errors <- msg :: t.errors

let attempt t = t.attempted <- t.attempted + 1

let expect t cond msg =
  attempt t;
  if not cond then fail t (Lazy.force msg)

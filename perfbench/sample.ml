(* Raw per-operation samples and exact order statistics over them.

   Every percentile the benchmark reports is read off the sorted raw
   samples (nearest rank), never off a histogram, so a 15 % move in a
   tail shows as a 15 % move in the number. *)

type t = { mutable a : int array; mutable n : int }

let create () = { a = Array.make 1024 0; n = 0 }

let add t v =
  if t.n = Array.length t.a then begin
    let b = Array.make (2 * t.n) 0 in
    Array.blit t.a 0 b 0 t.n;
    t.a <- b
  end;
  t.a.(t.n) <- v;
  t.n <- t.n + 1

let count t = t.n
let to_array t = Array.sub t.a 0 t.n
let append dst src = Array.iter (add dst) (to_array src)

let sum t =
  let s = ref 0 in
  for i = 0 to t.n - 1 do
    s := !s + t.a.(i)
  done;
  !s

let mean t = if t.n = 0 then 0. else float_of_int (sum t) /. float_of_int t.n

let max t =
  let m = ref 0 in
  for i = 0 to t.n - 1 do
    if t.a.(i) > !m then m := t.a.(i)
  done;
  !m

(* Nearest-rank position of quantile [q] among [n] sorted samples. *)
let rank n q = Stdlib.max 0 (Stdlib.min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1))

let quantile t q =
  if t.n = 0 then 0
  else begin
    let s = to_array t in
    Array.sort compare s;
    s.(rank t.n q)
  end

(* Samples strictly above the quantile's rank: the evidence behind a tail
   percentile, printed beside it. *)
let beyond t q = if t.n = 0 then 0 else t.n - 1 - rank t.n q

let median_float = function
  | [] -> 0.
  | l ->
      let s = Array.of_list l in
      Array.sort compare s;
      let n = Array.length s in
      if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

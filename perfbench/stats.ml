(* Order statistics for timings. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Stats.median: no samples"
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let min_above = 10

(* Nearest-rank percentile [p] (0 < p < 1) of [xs], refused unless at
   least [min_above] samples lie above the rank it picks: a tail figure
   resting on fewer samples is noise. *)
let tail_percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  let above = n - rank in
  if n = 0 || rank < 1 then Error "no samples"
  else if above < min_above then
    Error
      (Printf.sprintf "p%g needs %d samples above it, %d samples leave %d"
         (p *. 100.0) min_above n above)
  else Ok a.(rank - 1)

(* Order statistics for benchmark samples. *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartiles by the "exclusive" method (Python's
   [statistics.quantiles(xs, n=4)] default), so the spreads printed here
   are the ones a reader recomputes from the raw values. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then (nan, nan)
  else if n = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 3)

(* Nearest-rank percentile, [p] in (0, 1]. *)
let percentile p xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

(* The [p] percentile of a fixed-bucket histogram, as the upper bound of
   the bucket holding it ([counts] has one overflow cell past [bounds];
   a percentile landing there is unbounded: infinity). *)
let hist_percentile p ~bounds ~counts =
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then nan
  else
    let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int total))) in
    let rec go i acc =
      let acc = acc + counts.(i) in
      if acc >= rank || i = Array.length counts - 1 then
        if i < Array.length bounds then bounds.(i) else infinity
      else go (i + 1) acc
    in
    go 0 0

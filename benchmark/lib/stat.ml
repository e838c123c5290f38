(* Sample statistics shared by the workloads (latency percentiles) and by
   [compare] (quartiles and regression verdicts). *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least a share [q]
   of the samples at or below it. *)
let rank n q = max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n))))

let percentile_sorted s q =
  let n = Array.length s in
  if n = 0 then invalid_arg "Stat.percentile: no samples";
  s.(rank n q - 1)

let percentile xs q = percentile_sorted (sorted xs) q
let median xs = percentile xs 0.5

(* Samples strictly above the nearest-rank position of [q]. *)
let beyond n q = n - rank n q

(* A timing is reported with its median and the highest of these levels
   that has at least ten samples beyond it. *)
let tail_levels = [ 0.999; 0.99; 0.9; 0.5 ]

let tail xs =
  let s = sorted xs in
  let n = Array.length s in
  List.find_opt (fun q -> beyond n q >= 10) tail_levels
  |> Option.map (fun q -> (q, percentile_sorted s q))

(* Quartiles exactly as Python's [statistics.quantiles(values, n=4)]
   computes them (the default "exclusive" method), so the spreads printed
   here match the ones an outside checker derives from the same values.
   Needs at least two values; a single value is its own three quartiles. *)
let quartiles xs =
  let d = sorted xs in
  let ld = Array.length d in
  if ld = 0 then invalid_arg "Stat.quartiles: no samples";
  if ld = 1 then (d.(0), d.(0), d.(0))
  else
    let m = ld + 1 in
    let cut i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.0
    in
    (cut 1, cut 2, cut 3)

type better = Lower | Higher

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

type comparison = {
  parent_q : float * float * float;
  change_q : float * float * float;
  pairs : int;
  wins : int;  (** pairs in which the change reads strictly better *)
  verdict : verdict;
}

(* Fewer pairs than this cannot show a gain. *)
let min_pairs = 10

(* The regression rule. [parent] and [change] are per-run values
   paired by index (run i of each side used the same seed).
   - better: the change wins at least nine tenths of at least [min_pairs]
     pairs (ties count for neither side) and the medians differ by more
     than the parent's own quartile spread;
   - worse: the change's median is worse than the parent's by more than
     [bound] (a share of the parent's median);
   - unresolved: neither, and the parent's spread is wider than the bound,
     unless every change run reads better than every parent run; also a
     gain shown by fewer than [min_pairs] pairs;
   - same: otherwise. *)
let compare_runs ~better ~bound ~parent ~change =
  let ((p1, pm, p3) as parent_q) = quartiles parent in
  let ((_, cm, _) as change_q) = quartiles change in
  let gain a b = match better with Lower -> a -. b | Higher -> b -. a in
  let pairs = min (Array.length parent) (Array.length change) in
  let wins = ref 0 in
  for i = 0 to pairs - 1 do
    if gain parent.(i) change.(i) > 0.0 then incr wins
  done;
  let spread = p3 -. p1 in
  let scale = Float.abs pm in
  let all_better =
    Array.for_all (fun c -> Array.for_all (fun p -> gain p c > 0.0) parent) change
  in
  let verdict =
    if pairs > 0 && float_of_int !wins >= 0.9 *. float_of_int pairs && gain pm cm > spread
    then if pairs >= min_pairs then Better else Unresolved
    else if -.gain pm cm > bound *. scale then Worse
    else if spread > bound *. scale && not all_better then Unresolved
    else Same
  in
  { parent_q; change_q; pairs; wins = !wins; verdict }

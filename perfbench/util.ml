(* Shared measurement plumbing: the clock, exact percentiles over raw
   samples, medians, and the metric list every workload fills in. *)

(* CLOCK_MONOTONIC through bechamel's noalloc stub, read directly so the
   benchmark's clock does not move when the library's own [Clock] does. *)
let now () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now () - t0) /. 1e9

let sort_ints (a : int array) = Array.sort (fun (x : int) y -> compare x y) a

(* Nearest-rank percentile of an ascending array. *)
let rank (sorted : int array) q =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) i))

(* The first [n] samples of [a], sorted into a fresh array. *)
let sorted_prefix a n =
  let s = Array.sub a 0 n in
  sort_ints s;
  s

(* The mean of the middle half: as robust to a few disturbed samples as
   the median, but not stuck on the clock's granularity. *)
let interquartile_mean l =
  match List.sort compare l with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let lo = n / 4 and hi = n - (n / 4) in
      let sum = ref 0. in
      for i = lo to hi - 1 do
        sum := !sum +. a.(i)
      done;
      !sum /. float_of_int (hi - lo)

let median_float l =
  match List.sort compare l with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let levels =
  [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99); ("p99.9", 0.999);
    ("p99.99", 0.9999) ]

(* One line per sampled quantity: every percentile level with at least
   ten samples beyond it, the sample count, and which level is the
   highest that is still backed by ten samples. *)
let print_percentiles label (sorted : int array) =
  let n = Array.length sorted in
  let backed =
    List.filter (fun (_, q) -> float_of_int n *. (1. -. q) >= 10.) levels
  in
  let top = match List.rev backed with (l, _) :: _ -> l | [] -> "none" in
  Printf.printf "  %-28s n=%-9d %s  (highest backed: %s)\n" label n
    (String.concat " "
       (List.map (fun (l, q) -> Printf.sprintf "%s=%dns" l (rank sorted q))
          backed))
    top

(* Metrics are accumulated as (name, value, unit) in report order. *)
type metrics = (string * float * string) list ref

let metrics () : metrics = ref []
let add (m : metrics) name unit v = m := (name, v, unit) :: !m

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let print_table (m : metrics) =
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-34s %20s %s\n" name (json_number v) unit)
    (List.rev !m)

let result_line ~correct ~attempted ~failed (m : metrics) =
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (json_number v) unit)
         (List.rev !m))
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed body

(* Set-up timing.  A workload sets up once untimed to warm up, then
   several times before measuring and once more between its measurement
   windows, so the set-ups are spread over the whole run and a few
   seconds of a disturbed machine cannot move their median. *)
let setup_times = ref []

let timed_setup f =
  let t0 = now () in
  let r = f () in
  setup_times := seconds_since t0 :: !setup_times;
  r

let first_setup f =
  ignore (f ());
  for _ = 1 to 3 do
    ignore (timed_setup f)
  done;
  timed_setup f

let setup_s () = median_float !setup_times

(* Sorted-merge count of the values present on one side only: the number
   of lost plus duplicated values when an audit fails. *)
let multiset_mismatches ~expected ~got =
  let a = Array.of_list expected and b = Array.of_list got in
  sort_ints a;
  sort_ints b;
  let rec go i j acc =
    if i = Array.length a then acc + Array.length b - j
    else if j = Array.length b then acc + Array.length a - i
    else if a.(i) = b.(j) then go (i + 1) (j + 1) acc
    else if a.(i) < b.(j) then go (i + 1) j (acc + 1)
    else go i (j + 1) (acc + 1)
  in
  go 0 0 0

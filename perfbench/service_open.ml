(* Workload [service-open]: one open-loop client driving a 4-shard
   [Stack_service] (Announced 12 heads, stealing on) with alternating
   push/pop, 7 of 8 keys on one hot key.  Arrivals are Poisson at a fixed
   rate; latency counts from each op's intended arrival, so a stall is
   charged to every op queued behind it.  A rising rate ladder finds the
   knee: the highest offered rate whose p90 latency stays within the
   1 us limit without the generator falling further and further behind. *)

open Util
module Sv = Aba_apps.Service.Stack_service
module Obs = Aba_obs.Obs

let shards = 4
let capacity = 4096
let protection = Aba_runtime.Rt_treiber.Announced 12
let hot_key = 0
let key_space = 4096

(* Under half of the knee (~14 M ops/s) one client reaches on a 2-core
   x86-64 machine. *)
let fixed_rate = 6e6
let slo_ns = 1_000
let window = 1 lsl 18

(* The knee search: a ladder of 15% rungs climbs from the fixed rate to
   the first rung that misses, then four bisection steps narrow the last
   gap to under 1%.  Each rung offers ~8 ms of arrivals. *)
let ladder_step = 1.15
let bisections = 4
let rung_s = 0.008

type inputs = {
  keys : int array;
  cum : float array;
      (** cumulative arrival times in units of the mean inter-arrival gap *)
  fixed_due : int array;  (** [cum] at the fixed rate, ns from start *)
}

let gen_inputs ~seed =
  let rng = Random.State.make [| seed; 0x5e41 |] in
  let keys =
    Array.init window (fun _ ->
        if Random.State.int rng 8 < 7 then hot_key
        else Random.State.int rng key_space)
  in
  let cum = Array.make window 0. in
  let acc = ref 0. in
  for i = 0 to window - 1 do
    acc := !acc -. Float.log (1. -. Random.State.float rng 1.);
    cum.(i) <- !acc
  done;
  let mean_ns = 1e9 /. fixed_rate in
  { keys; cum; fixed_due = Array.map (fun c -> int_of_float (c *. mean_ns)) cum }

(* Everything the timed loop touches, allocated before timing. *)
type state = {
  svc : Sv.t;
  due : int array;
  lat : int array;  (** completion - due *)
  dur : int array;  (** completion - call start *)
  late : int array;  (** call start - due *)
  cls : int array;  (** traced pass only: [c_scan]/[c_steal] bits per call *)
  pushed : int array;
  popped : int array;
  mutable npushed : int;
  mutable npopped : int;
  mutable next_value : int;
  mutable refused : int;
}

let make_service ?obs ?shard_obs () =
  Sv.create ~protection ~steal:true ?obs ?shard_obs ~shards ~capacity ~n:1 ()

let make_state svc =
  let a () = Array.make window 0 in
  {
    svc; due = a (); lat = a (); dur = a (); late = a (); cls = a ();
    pushed = a (); popped = a (); npushed = 0; npopped = 0; next_value = 1;
    refused = 0;
  }

let setup ~seed () =
  let t0 = now () in
  let inputs = gen_inputs ~seed in
  let gen_s = seconds_since t0 in
  (inputs, make_state (make_service ()), gen_s)

(* One batch of [n] ops due at [st.due], issued by pid 0. *)
let serve st keys n =
  let t0 = now () + 50_000 in
  for i = 0 to n - 1 do
    let d = t0 + st.due.(i) in
    let s = ref (now ()) in
    while !s < d do
      s := now ()
    done;
    let key = keys.(i) in
    (if i land 1 = 0 then begin
       let v = st.next_value in
       st.next_value <- v + 1;
       if Sv.push st.svc ~pid:0 ~key v then begin
         st.pushed.(st.npushed) <- v;
         st.npushed <- st.npushed + 1
       end
       else st.refused <- st.refused + 1
     end
     else
       match Sv.pop st.svc ~pid:0 ~key with
       | Some v ->
           st.popped.(st.npopped) <- v;
           st.npopped <- st.npopped + 1
       | None -> ());
    let e = now () in
    st.lat.(i) <- e - d;
    st.dur.(i) <- e - !s;
    st.late.(i) <- !s - d
  done

(* Drain the service and audit the batch: every pushed value must come
   back exactly once, popped or drained.  Returns the failed-op count
   (refused pushes plus lost or duplicated values) and resets the batch. *)
let audit st =
  let rest = ref [] in
  let rec drain () =
    match Sv.pop st.svc ~pid:0 ~key:hot_key with
    | Some v ->
        rest := v :: !rest;
        drain ()
    | None -> ()
  in
  drain ();
  let pushed = Array.to_list (Array.sub st.pushed 0 st.npushed) in
  let popped = Array.to_list (Array.sub st.popped 0 st.npopped) in
  let bad =
    match
      Aba_runtime.Harness.check_multiset_exact ~pushed ~popped ~remaining:!rest
    with
    | Ok () -> 0
    | Error msg ->
        Printf.printf "  AUDIT FAILED: %s\n" msg;
        max 1 (multiset_mismatches ~expected:pushed ~got:(popped @ !rest))
  in
  let failed = bad + st.refused in
  st.npushed <- 0;
  st.npopped <- 0;
  st.refused <- 0;
  failed

type window_result = { p50 : int; p90 : int; op99 : int; words : float }

(* Windows and sweeps start from a collected heap, so none pays for the
   garbage of the set-up or the audit before it. *)
let fixed_window st keys due =
  Gc.full_major ();
  Array.blit due 0 st.due 0 window;
  let w0 = Gc.minor_words () in
  serve st keys window;
  let words = (Gc.minor_words () -. w0) /. float_of_int window in
  let failed = audit st in
  let lat = sorted_prefix st.lat window and dur = sorted_prefix st.dur window in
  ({ p50 = rank lat 0.5; p90 = rank lat 0.9; op99 = rank dur 0.99; words },
   failed, lat, dur)

(* One rung: does [rate] meet the latency limit with a bounded backlog?
   The backlog test looks at the last eighth of the rung: if the
   generator is still more than the limit behind there, lateness grew. *)
let rung st inp rate =
  let n = min window (int_of_float (rate *. rung_s)) in
  let mean = 1e9 /. rate in
  for i = 0 to n - 1 do
    st.due.(i) <- int_of_float (inp.cum.(i) *. mean)
  done;
  serve st inp.keys n;
  let failed = audit st in
  let lat = sorted_prefix st.lat n in
  let tail = Array.sub st.late (n - (n / 8)) (n / 8) in
  sort_ints tail;
  (rank lat 0.9 <= slo_ns && rank tail 0.5 <= slo_ns, n, failed)

let sweep st inp =
  Gc.full_major ();
  let attempted = ref 0 and failed = ref 0 in
  let passes rate =
    let ok, n, f = rung st inp rate in
    attempted := !attempted + n;
    failed := !failed + f;
    ok
  in
  let rec climb lo rate =
    if rate > 100. *. fixed_rate then (lo, rate)
    else if passes rate then climb rate (rate *. ladder_step)
    else (lo, rate)
  in
  let lo, hi = climb 0. fixed_rate in
  let lo = ref lo and hi = ref hi in
  if !lo > 0. then
    for _ = 1 to bisections do
      let mid = sqrt (!lo *. !hi) in
      if passes mid then lo := mid else hi := mid
    done;
  (!lo, !attempted, !failed)

let e2e ~seed ~seconds m =
  let inp, st, gen_s = first_setup (setup ~seed) in
  let attempted = ref 0 and failed = ref 0 in
  let deadline = now () + int_of_float (seconds *. 0.4 *. 1e9) in
  let wins = ref [] and last = ref None in
  while !wins = [] || now () < deadline do
    let w, f, lat, dur = fixed_window st inp.keys inp.fixed_due in
    ignore (timed_setup (setup ~seed));
    wins := w :: !wins;
    last := Some (lat, dur);
    attempted := !attempted + window;
    failed := !failed + f
  done;
  let deadline = now () + int_of_float (seconds *. 0.6 *. 1e9) in
  let knees = ref [] in
  while !knees = [] || now () < deadline do
    let knee, a, f = sweep st inp in
    ignore (timed_setup (setup ~seed));
    knees := knee :: !knees;
    attempted := !attempted + a;
    failed := !failed + f
  done;
  let avg f = interquartile_mean (List.map f !wins) in
  let lat, dur = Option.get !last in
  Printf.printf "service-open: %d windows of %d ops at %.0f ops/s offered, %d ladder sweeps\n"
    (List.length !wins) window fixed_rate (List.length !knees);
  print_percentiles "last window lat (from due)" lat;
  print_percentiles "last window op duration" dur;
  Printf.printf "  generator: %.1f ns/op in set-up\n"
    (gen_s *. 1e9 /. float_of_int window);
  Printf.printf "  knee sweeps (ops/s): %s\n"
    (String.concat " " (List.rev_map (Printf.sprintf "%.0f") !knees));
  Printf.printf "  max_rate_ops_per_s %.0f ops/s (interquartile mean of the sweeps)\n" (interquartile_mean !knees);
  add m "lat_p50_ns" "ns" (avg (fun w -> float_of_int w.p50));
  add m "lat_p90_ns" "ns" (avg (fun w -> float_of_int w.p90));
  add m "op_p99_ns" "ns" (avg (fun w -> float_of_int w.op99));
  add m "ops_per_s" "ops/s" (interquartile_mean !knees);
  add m "alloc_words_per_op" "words" (avg (fun w -> w.words));
  add m "setup_s" "s" (setup_s ());
  (!attempted, !failed)

(* ----- traced pass ----- *)

(* The traced pass runs at half the fixed rate: live Obs handles plus the
   per-call classification roughly double a call's cost, and at the full
   rate the traced client would fall behind and measure its own backlog.
   [obs.overhead_frac] compares it with an untraced run at the same rate. *)
let traced_rate = fixed_rate /. 2.

let c_scan = 1
let c_steal = 2

let traced ~seed ~seconds =
  let inp = gen_inputs ~seed in
  let traced_due = Array.map (fun c -> int_of_float (c *. 1e9 /. traced_rate)) inp.cum in
  let attempted = ref 0 and failed = ref 0 in
  let untraced = make_state (make_service ()) in
  let base = ref [] and deadline = now () + int_of_float (seconds *. 0.3e9) in
  while !base = [] || now () < deadline do
    let w, f, _, _ = fixed_window untraced inp.keys traced_due in
    base := float_of_int w.p50 :: !base;
    attempted := !attempted + window;
    failed := !failed + f
  done;
  let sobs = Obs.create ~n:1 () in
  let shard_obs = Array.init shards (fun _ -> Obs.create ~n:1 ()) in
  let st = make_state (make_service ~obs:sobs ~shard_obs:(Array.get shard_obs) ()) in
  Array.blit traced_due 0 st.due 0 window;
  let scans () =
    Array.fold_left (fun acc o -> acc + Obs.op_count o Obs.Scan) 0 shard_obs
  in
  let steals () = Obs.op_count sobs Obs.Steal in
  let p50s = ref [] and late = ref [] and scan_d = ref [] in
  let home99 = ref [] and ph50 = ref [] and ps50 = ref [] in
  (* Per-window exact percentile of the calls whose class satisfies [p]. *)
  let pick p q =
    let l = ref [] in
    for i = window - 1 downto 0 do
      if p i st.cls.(i) then l := st.dur.(i) :: !l
    done;
    let a = Array.of_list !l in
    sort_ints a;
    float_of_int (rank a q)
  in
  let deadline = now () + int_of_float (seconds *. 0.7e9) in
  while !p50s = [] || now () < deadline do
    (* The loop of [serve], with each call's span classified by whether
       the shard scan counters or the service's steal counter advanced
       during it. *)
    Gc.full_major ();
    let t0 = now () + 50_000 in
    let sc = ref (scans ()) and stl = ref (steals ()) in
    for i = 0 to window - 1 do
      let d = t0 + st.due.(i) in
      let s = ref (now ()) in
      while !s < d do
        s := now ()
      done;
      let key = inp.keys.(i) in
      (if i land 1 = 0 then begin
         let v = st.next_value in
         st.next_value <- v + 1;
         if Sv.push st.svc ~pid:0 ~key v then begin
           st.pushed.(st.npushed) <- v;
           st.npushed <- st.npushed + 1
         end
         else st.refused <- st.refused + 1
       end
       else
         match Sv.pop st.svc ~pid:0 ~key with
         | Some v ->
             st.popped.(st.npopped) <- v;
             st.npopped <- st.npopped + 1
         | None -> ());
      let e = now () in
      st.lat.(i) <- e - d;
      st.dur.(i) <- e - !s;
      st.late.(i) <- !s - d;
      let sc1 = scans () and stl1 = steals () in
      st.cls.(i) <-
        (if sc1 > !sc then c_scan else 0) lor if stl1 > !stl then c_steal else 0;
      sc := sc1;
      stl := stl1
    done;
    failed := !failed + audit st;
    attempted := !attempted + window;
    p50s := float_of_int (rank (sorted_prefix st.lat window) 0.5) :: !p50s;
    late := float_of_int (rank (sorted_prefix st.late window) 0.99) :: !late;
    for i = 0 to window - 1 do
      if st.cls.(i) land c_scan <> 0 then scan_d := st.dur.(i) :: !scan_d
    done;
    home99 := pick (fun _ c -> c land c_steal = 0) 0.99 :: !home99;
    ph50 := pick (fun i c -> i land 1 = 1 && c land c_steal = 0) 0.5 :: !ph50;
    ps50 := pick (fun i c -> i land 1 = 1 && c land c_steal <> 0) 0.5 :: !ps50
  done;
  let ops = window * List.length !p50s in
  let sum_shards f = Array.fold_left (fun acc o -> acc + f o) 0 shard_obs in
  let treiber_ops =
    sum_shards (fun o -> Obs.op_count o Obs.Push + Obs.op_count o Obs.Pop)
  in
  let retries =
    sum_shards (fun o -> Obs.retry_count o Obs.Push + Obs.retry_count o Obs.Pop)
  in
  let per_shard =
    Array.map (fun o -> Obs.op_count o Obs.Push + Obs.op_count o Obs.Pop) shard_obs
  in
  let s = Sv.stats st.svc in
  let fops = float_of_int ops and ft = float_of_int (max 1 treiber_ops) in
  let scan_d = Array.of_list !scan_d in
  sort_ints scan_d;
  Printf.printf "service-open traced: %d ops in %d windows at %.0f ops/s\n" ops
    (List.length !p50s) traced_rate;
  print_percentiles "calls with a crossing scan" scan_d;
  let traced_p50 = interquartile_mean !p50s and base_p50 = interquartile_mean !base in
  let layer =
    [
      ("rt_treiber.retries_per_op", float_of_int retries /. ft, "count");
      ("rt_treiber.scans_per_kop", float_of_int (scans ()) *. 1000. /. ft, "count");
      ("rt_treiber.scan_p99_ns", float_of_int (rank scan_d 0.99), "ns");
      ("service.steals_per_kop", float_of_int s.steals *. 1000. /. fops, "count");
      ("service.stolen_per_steal",
        float_of_int s.stolen /. float_of_int (max 1 s.steals), "count");
      ("service.spills", float_of_int s.spills, "count");
      ("service.pop_home_p50_ns", interquartile_mean !ph50, "ns");
      ("service.pop_steal_p50_ns", interquartile_mean !ps50, "ns");
      ("shard.op_p99_ns", interquartile_mean !home99, "ns");
      ("shard.imbalance",
        float_of_int (Array.fold_left max 0 per_shard)
        /. (float_of_int (Array.fold_left ( + ) 0 per_shard) /. float_of_int shards),
        "ratio");
      ("gen.late_p99_ns", interquartile_mean !late, "ns");
    ]
  in
  (layer, (traced_p50 /. base_p50) -. 1., !attempted, !failed)

(** The observability subsystem: histogram bucket geometry and the
    percentile extraction against a naive-sort oracle, the packed trace
    codec (including its saturation rules) and ring wraparound, counter
    merging, clock monotonicity, the inertness of {!Aba_obs.Obs.noop},
    and the JSON export shape. *)

module Obs = Aba_obs.Obs
module Histogram = Aba_obs.Histogram
module Trace = Aba_obs.Trace
module Counter = Aba_obs.Counter
module Clock = Aba_obs.Clock

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ----- Histogram ----- *)

(* The bucket bounds must bracket every non-negative value, and bucket
   indices must tile: the value one past a bucket's hi lands in the next
   bucket. *)
let histogram_bucket_roundtrip =
  qtest "histogram: bucket_lo <= v <= bucket_hi at bucket_of v"
    QCheck2.Gen.(oneof [ int_range (-5) 5; nat; int_bound max_int ])
    (fun v ->
      let b = Histogram.bucket_of v in
      0 <= b
      && b < Histogram.buckets
      && (v > 0 || b = 0)
      && Histogram.bucket_lo b <= max v 0
      && max v 0 <= Histogram.bucket_hi b
      && (b = 0 || Histogram.bucket_of (Histogram.bucket_hi (b - 1) + 1) = b))

(* The oracle: sort the samples, take the rank-th smallest, report its
   bucket's upper bound.  [percentile] must agree exactly — it is the
   same computation run over bucket counts instead of raw samples. *)
let histogram_percentile_oracle =
  qtest "histogram: percentile agrees with the naive-sort oracle"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 80) (int_bound 100_000))
        (list_size (int_range 1 6) (float_bound_inclusive 1.0)))
    (fun (samples, qs) ->
      let h = Histogram.create ~n:3 () in
      List.iteri
        (fun i v -> Histogram.record h ~pid:(i mod 3) v)
        samples;
      let sorted = List.sort compare samples in
      let total = List.length samples in
      List.for_all
        (fun q ->
          let rank =
            max 1 (int_of_float (Float.ceil (q *. float_of_int total)))
          in
          let oracle =
            Histogram.bucket_hi
              (Histogram.bucket_of (List.nth sorted (rank - 1)))
          in
          Histogram.percentile h q = oracle)
        qs)

let histogram_percentiles_monotone =
  qtest "histogram: p50 <= p90 <= p99 <= p999"
    QCheck2.Gen.(list_size (int_range 1 60) (int_bound 1_000_000))
    (fun samples ->
      let h = Histogram.create ~n:1 () in
      List.iter (fun v -> Histogram.record h ~pid:0 v) samples;
      let s = Histogram.summarize h in
      s.Histogram.count = List.length samples
      && s.Histogram.p50 <= s.Histogram.p90
      && s.Histogram.p90 <= s.Histogram.p99
      && s.Histogram.p99 <= s.Histogram.p999)

let histogram_edges () =
  let h = Histogram.create ~n:2 () in
  Alcotest.(check int) "empty percentile is 0" 0 (Histogram.percentile h 0.5);
  Alcotest.check_raises "q > 1 rejected"
    (Invalid_argument "Obs.Histogram.percentile: q outside [0, 1]") (fun () ->
      ignore (Histogram.percentile h 1.5));
  Alcotest.check_raises "q < 0 rejected"
    (Invalid_argument "Obs.Histogram.percentile: q outside [0, 1]") (fun () ->
      ignore (Histogram.percentile h (-0.1)));
  Histogram.record h ~pid:0 0;
  Histogram.record h ~pid:1 (-7);
  Alcotest.(check int) "non-positive samples land in bucket 0" 2
    (Histogram.merged h).(0);
  Alcotest.(check int) "their percentile is 0" 0 (Histogram.percentile h 1.0)

(* Cross-instance merge: splitting a sample stream over several
   histograms and merging must be indistinguishable — counts, every
   percentile, and the SLO fraction at arbitrary budgets — from having
   recorded the whole stream into one histogram.  This is the property
   the service tier's end-to-end percentiles stand on. *)
let histogram_merge_equiv =
  qtest ~count:100 "merge of split streams = single-histogram recording"
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 200)
           (pair (int_range 0 3) (int_range (-10) 1_000_000)))
        (int_range 0 1_000_000))
    (fun (samples, budget) ->
      let parts = Array.init 4 (fun _ -> Histogram.create ~n:2 ()) in
      let whole = Histogram.create ~n:1 () in
      List.iteri
        (fun i (part, v) ->
          Histogram.record parts.(part) ~pid:(i land 1) v;
          Histogram.record whole ~pid:0 v)
        samples;
      let m = Histogram.merge (Array.to_list parts) in
      Histogram.count m = Histogram.count whole
      && List.for_all
           (fun q -> Histogram.percentile m q = Histogram.percentile whole q)
           [ 0.; 0.5; 0.9; 0.99; 0.999; 1. ]
      && Histogram.fraction_le m budget = Histogram.fraction_le whole budget)

(* The top bucket's upper bound is explicitly [max_int]: the naive
   [(1 lsl i) - 1] overflows the 63-bit native int into a negative
   number at the top index, which silently broke any percentile or SLO
   check over a sample near [max_int]. *)
let histogram_top_bucket () =
  let top = Histogram.buckets - 1 in
  Alcotest.(check int)
    "max_int lands in the top bucket" top
    (Histogram.bucket_of max_int);
  Alcotest.(check int)
    "top bucket hi is max_int, not a shift wraparound" max_int
    (Histogram.bucket_hi top);
  Alcotest.(check bool)
    "every bucket's upper bound is non-negative" true
    (List.for_all
       (fun b -> Histogram.bucket_hi b >= 0)
       (List.init Histogram.buckets Fun.id));
  let h = Histogram.create ~n:1 () in
  Histogram.record h ~pid:0 max_int;
  Alcotest.(check int)
    "p100 of a max_int sample is max_int" max_int
    (Histogram.percentile h 1.0);
  Alcotest.(check (float 0.))
    "a max_int sample fits a max_int budget" 1.0
    (Histogram.fraction_le h max_int)

(* SLO self-consistency: at least a [q] fraction of samples must fit a
   budget of [percentile t q] — every bucket at or below the rank-th
   bucket is entirely within its own upper bound.  The extreme samples
   (0, 1, near max_int) pin the regression above: with a negative top
   bucket bound the near-max samples fell out of every budget. *)
let histogram_slo_vs_percentile =
  qtest "histogram: fraction_le at percentile q covers at least q"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 60)
           (oneof
              [
                return 0; return 1; int_range (max_int - 1000) max_int;
                int_bound 1_000_000;
              ]))
        (oneof [ return 0.; return 1.; float_bound_inclusive 1.0 ]))
    (fun (samples, q) ->
      let h = Histogram.create ~n:2 () in
      List.iteri (fun i v -> Histogram.record h ~pid:(i land 1) v) samples;
      Histogram.fraction_le h (Histogram.percentile h q) >= q)

let histogram_fraction_le () =
  let h = Histogram.create ~n:1 () in
  Alcotest.(check (float 0.)) "empty histogram: vacuously in budget" 1.
    (Histogram.fraction_le h 0);
  List.iter (fun v -> Histogram.record h ~pid:0 v) [ 1; 2; 3; 4; 100 ];
  (* Buckets: 1 -> [1,1], 2..3 -> [2,3], 4 -> [4,7], 100 -> [64,127].
     A budget of 3 covers the first two buckets whole (3 samples); the
     conservative rule excludes the [4,7] bucket even at budget 4. *)
  Alcotest.(check (float 0.)) "budget 3 covers 3 of 5" 0.6
    (Histogram.fraction_le h 3);
  Alcotest.(check (float 0.)) "budget 4 is conservative" 0.6
    (Histogram.fraction_le h 4);
  Alcotest.(check (float 0.)) "budget 7 covers 4 of 5" 0.8
    (Histogram.fraction_le h 7);
  Alcotest.(check (float 0.)) "budget 127 covers all" 1.
    (Histogram.fraction_le h 127);
  (* Agreement with percentile: at a percentile's reported bound, at
     least that fraction of samples is within budget. *)
  List.iter
    (fun q ->
      Alcotest.(check bool)
        (Printf.sprintf "fraction_le at p%g >= %g" (q *. 100.) q)
        true
        (Histogram.fraction_le h (Histogram.percentile h q) >= q))
    [ 0.5; 0.9; 0.99 ]

(* ----- Trace codec ----- *)

let trace_codec_roundtrip =
  qtest "trace: pack/unpack round-trips in-range fields"
    QCheck2.Gen.(
      let field bits = int_bound ((1 lsl bits) - 1) in
      tup5
        (field Trace.Event.ts_bits)
        (field Trace.Event.kind_bits)
        (field Trace.Event.outcome_bits)
        (field Trace.Event.pid_bits)
        (field Trace.Event.retries_bits))
    (fun (ts, kind, outcome, pid, retries) ->
      let e =
        Trace.Event.unpack (Trace.Event.pack ~ts ~kind ~outcome ~pid ~retries)
      in
      e.Trace.Event.ts = ts
      && e.Trace.Event.kind = kind
      && e.Trace.Event.outcome = outcome
      && e.Trace.Event.pid = pid
      && e.Trace.Event.retries = retries)

let trace_codec_saturates () =
  let e =
    Trace.Event.unpack
      (Trace.Event.pack ~ts:0 ~kind:1 ~outcome:2 ~pid:300 ~retries:5000)
  in
  Alcotest.(check int) "pid saturates at max_pid" Trace.Event.max_pid
    e.Trace.Event.pid;
  Alcotest.(check int) "retries saturate at max_retries"
    Trace.Event.max_retries e.Trace.Event.retries;
  let wrapped =
    Trace.Event.unpack
      (Trace.Event.pack ~ts:(Trace.Event.max_ts + 5) ~kind:0 ~outcome:0
         ~pid:0 ~retries:0)
  in
  Alcotest.(check int) "ts wraps modulo 2^ts_bits" 4 wrapped.Trace.Event.ts

(* Words must sort by timestamp as plain ints: the merge relies on it. *)
let trace_words_sort_by_ts =
  qtest "trace: packed words compare in timestamp order"
    QCheck2.Gen.(
      pair
        (pair (int_bound Trace.Event.max_ts) (int_bound Trace.Event.max_ts))
        (pair (int_bound Trace.Event.max_pid) (int_bound Trace.Event.max_pid)))
    (fun ((ts1, ts2), (pid1, pid2)) ->
      let w1 = Trace.Event.pack ~ts:ts1 ~kind:3 ~outcome:1 ~pid:pid1 ~retries:9
      and w2 =
        Trace.Event.pack ~ts:ts2 ~kind:0 ~outcome:0 ~pid:pid2 ~retries:0
      in
      ts1 = ts2 || compare w1 w2 = compare ts1 ts2)

let trace_ring_wraps () =
  let t = Trace.create ~capacity:4 ~n:2 () in
  for ts = 1 to 10 do
    Trace.record t ~pid:0 (Trace.Event.pack ~ts ~kind:0 ~outcome:0 ~pid:0 ~retries:0)
  done;
  Trace.record t ~pid:1
    (Trace.Event.pack ~ts:6 ~kind:1 ~outcome:0 ~pid:1 ~retries:0);
  Alcotest.(check int) "recorded counts overwrites" 11 (Trace.recorded t);
  Alcotest.(check int) "retained is capped per pid" 5 (Trace.retained t);
  let merged = Trace.merged t in
  Alcotest.(check (list int))
    "ring keeps the newest events, merged in time order" [ 6; 7; 8; 9; 10 ]
    (List.map (fun e -> e.Trace.Event.ts) merged);
  (* pid 0's ring (capacity 4) dropped its own ts=6 event, so the ts=6
     survivor is pid 1's, merged ahead of pid 0's ts=7..10 window. *)
  Alcotest.(check (list int))
    "pid 1's event interleaves at its timestamp" [ 1; 0; 0; 0; 0 ]
    (List.map (fun e -> e.Trace.Event.pid) merged)

(* ----- Counter ----- *)

let counter_merges =
  qtest "counter: total is the sum of per-pid cells"
    QCheck2.Gen.(list_size (int_range 0 40) (int_range 0 4))
    (fun pids ->
      let c = Counter.create ~n:5 () in
      List.iter (fun pid -> Counter.incr c ~pid) pids;
      Counter.add c ~pid:0 10;
      Counter.total c = List.length pids + 10
      && List.for_all
           (fun pid ->
             Counter.get c ~pid
             = 10 * (if pid = 0 then 1 else 0)
               + List.length (List.filter (( = ) pid) pids))
           [ 0; 1; 2; 3; 4 ])

(* ----- Clock ----- *)

(* Epoch-seconds floats carry exactly microsecond resolution near the
   mantissa limit; the regression was [int_of_float (t *. 1e9)], which
   quantizes epoch nanoseconds to ~256 ns so adjacent microsecond stamps
   could tie or regress.  The cases straddle a microsecond boundary at
   epoch scale, where the naive conversion is wrong. *)
let clock_unix_ns () =
  let s = 1_754_700_000 in
  Alcotest.(check int)
    "whole seconds convert exactly"
    (s * 1_000_000_000)
    (Clock.ns_of_unix_time (float_of_int s));
  Alcotest.(check int)
    "the last microsecond of a second holds its value"
    ((s * 1_000_000_000) + 999_999_000)
    (Clock.ns_of_unix_time (float_of_int s +. 0.999999));
  Alcotest.(check int)
    "the next tick lands exactly on the following second"
    ((s + 1) * 1_000_000_000)
    (Clock.ns_of_unix_time (float_of_int (s + 1)));
  Alcotest.(check int)
    "adjacent microsecond stamps differ by exactly 1000 ns" 1_000
    (Clock.ns_of_unix_time (float_of_int s +. 0.123457)
    - Clock.ns_of_unix_time (float_of_int s +. 0.123456))

let clock_us_exact =
  qtest "clock: epoch stamps convert with exact microsecond resolution"
    QCheck2.Gen.(
      pair (int_range 1_000_000_000 2_000_000_000) (int_range 0 999_999))
    (fun (s, us) ->
      Clock.ns_of_unix_time (float_of_int s +. (float_of_int us /. 1e6))
      = (s * 1_000_000_000) + (us * 1_000))

let clock_monotone () =
  let a = Clock.now_ns () in
  let b = Clock.now_ns () in
  let c = Clock.now_ns () in
  Alcotest.(check bool) "now_ns never decreases" true (a <= b && b <= c);
  Alcotest.(check bool) "elapsed_ns is non-negative" true
    (Clock.elapsed_ns a >= 0)

(* ----- Obs handle ----- *)

let obs_noop_inert () =
  Alcotest.(check bool) "noop is disabled" false (Obs.enabled Obs.noop);
  Alcotest.(check int) "start reads no clock" 0 (Obs.start Obs.noop);
  Obs.record Obs.noop ~pid:3 ~kind:Obs.Push ~outcome:Obs.Ok ~retries:7 0;
  Alcotest.(check int) "record leaves counts at zero" 0
    (Obs.op_count Obs.noop Obs.Push);
  Alcotest.(check bool) "no histogram" true
    (Obs.histogram Obs.noop Obs.Push = None);
  Alcotest.(check int) "no trace" 0 (Obs.trace_recorded Obs.noop);
  Alcotest.(check (list unit)) "empty timeline" []
    (List.map ignore (Obs.timeline Obs.noop))

let obs_records_all_channels () =
  let obs = Obs.create ~trace:8 ~n:2 () in
  let t0 = Obs.start obs in
  Obs.record obs ~pid:0 ~kind:Obs.Push ~outcome:Obs.Ok ~retries:2 t0;
  Obs.record obs ~pid:1 ~kind:Obs.Push ~outcome:Obs.Eliminated ~retries:0 t0;
  Obs.record obs ~pid:1 ~kind:Obs.Pop ~outcome:Obs.Empty ~retries:1 t0;
  Alcotest.(check int) "push ops merged over pids" 2
    (Obs.op_count obs Obs.Push);
  Alcotest.(check int) "push retries summed" 2 (Obs.retry_count obs Obs.Push);
  Alcotest.(check int) "pop ops" 1 (Obs.op_count obs Obs.Pop);
  Alcotest.(check int) "untouched kind is zero" 0 (Obs.op_count obs Obs.Ll);
  (match Obs.histogram obs Obs.Push with
  | None -> Alcotest.fail "expected a push histogram"
  | Some h -> Alcotest.(check int) "histogram saw both pushes" 2
      (Histogram.count h));
  Alcotest.(check int) "trace saw all three" 3 (Obs.trace_recorded obs);
  let tl = Obs.timeline obs in
  Alcotest.(check int) "timeline decodes all three" 3 (List.length tl);
  Alcotest.(check bool) "timeline is time-ordered" true
    (let rec ordered = function
       | a :: (b :: _ as rest) -> a.Obs.at_ns <= b.Obs.at_ns && ordered rest
       | _ -> true
     in
     ordered tl);
  List.iter
    (fun (e : Obs.event) ->
      if e.Obs.kind = Obs.Pop then begin
        Alcotest.(check int) "pop event pid" 1 e.Obs.pid;
        Alcotest.(check int) "pop event retries" 1 e.Obs.retries;
        Alcotest.(check string) "pop event outcome" "empty"
          (Obs.outcome_name e.Obs.outcome)
      end)
    tl

let obs_validation () =
  Alcotest.check_raises "n < 1 rejected"
    (Invalid_argument "Obs.create: n must be positive") (fun () ->
      ignore (Obs.create ~n:0 ()))

(* ----- Export ----- *)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec at i = i + nl <= hl && (String.sub haystack i nl = needle || at (i + 1)) in
  at 0

let export_shape () =
  let obs = Obs.create ~trace:8 ~n:1 () in
  let t0 = Obs.start obs in
  Obs.record obs ~pid:0 ~kind:Obs.Enqueue ~outcome:Obs.Ok ~retries:3 t0;
  let summary = Aba_obs.Json.to_string (Aba_obs.Export.summary obs) in
  List.iter
    (fun key ->
      Alcotest.(check bool)
        (Printf.sprintf "summary mentions %s" key)
        true
        (contains summary ("\"" ^ key ^ "\"")))
    [ "enqueue"; "ops"; "retries"; "count"; "p50_ns"; "p90_ns"; "p99_ns";
      "p999_ns"; "recorded"; "retained" ];
  let timeline = Aba_obs.Json.to_string (Aba_obs.Export.timeline obs) in
  List.iter
    (fun key ->
      Alcotest.(check bool)
        (Printf.sprintf "timeline mentions %s" key)
        true
        (contains timeline ("\"" ^ key ^ "\"")))
    [ "t_ns"; "kind"; "outcome"; "pid"; "retries" ]

(* Kind/outcome enumerations and the index maps the codec relies on. *)
let obs_enums () =
  Alcotest.(check int) "kind_count matches all_kinds" Obs.kind_count
    (List.length Obs.all_kinds);
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "kind %s fits the trace field" (Obs.kind_name k))
        true
        (Obs.kind_index k <= Trace.Event.max_kind))
    Obs.all_kinds;
  List.iter
    (fun o ->
      Alcotest.(check bool)
        (Printf.sprintf "outcome %s fits the trace field" (Obs.outcome_name o))
        true
        (Obs.outcome_index o <= Trace.Event.max_outcome))
    Obs.all_outcomes

let suite =
  [
    histogram_bucket_roundtrip;
    histogram_percentile_oracle;
    histogram_percentiles_monotone;
    Alcotest.test_case "histogram edge cases" `Quick histogram_edges;
    histogram_merge_equiv;
    Alcotest.test_case "histogram top bucket bounds" `Quick
      histogram_top_bucket;
    histogram_slo_vs_percentile;
    Alcotest.test_case "histogram SLO fraction" `Quick histogram_fraction_le;
    trace_codec_roundtrip;
    Alcotest.test_case "trace codec saturation and wrap" `Quick
      trace_codec_saturates;
    trace_words_sort_by_ts;
    Alcotest.test_case "trace ring wraparound" `Quick trace_ring_wraps;
    counter_merges;
    Alcotest.test_case "clock epoch conversion straddles microseconds"
      `Quick clock_unix_ns;
    clock_us_exact;
    Alcotest.test_case "clock is monotone" `Quick clock_monotone;
    Alcotest.test_case "noop handle is inert" `Quick obs_noop_inert;
    Alcotest.test_case "live handle feeds all channels" `Quick
      obs_records_all_channels;
    Alcotest.test_case "create validation" `Quick obs_validation;
    Alcotest.test_case "export JSON shape" `Quick export_shape;
    Alcotest.test_case "kind/outcome enumerations" `Quick obs_enums;
  ]

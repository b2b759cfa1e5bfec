(* The traced run: the cost ladder, then every workload's traced pass
   (live Obs handles, each public call timed as a span by the benchmark).
   Every traced run therefore reports every per-layer metric;
   [obs.overhead_frac] is the named workload's traced headline against
   its untraced one. *)

let run ~workload ~seed ~seconds m =
  let failed = ref (Ladder.run m) in
  let attempted = ref 1 in
  let share = (seconds -. 2.) /. 3. in
  let passes =
    [
      ("service-open", Service_open.traced);
      ("queue-handoff", Queue_handoff.traced);
      ("certify", Certify.traced);
    ]
  in
  List.iter
    (fun (name, pass) ->
      let layer, overhead, a, f = pass ~seed ~seconds:share in
      attempted := !attempted + a;
      failed := !failed + f;
      Printf.printf "  %s obs.overhead_frac %.4f\n" name overhead;
      List.iter (fun (metric, v, unit) -> Util.add m metric unit v) layer;
      if name = workload then Util.add m "obs.overhead_frac" "ratio" overhead)
    passes;
  (!attempted, !failed)

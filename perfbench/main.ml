(* The repo benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   With [--trace 0] a workload prints its end-to-end metrics, measured
   with observability off.  With [--trace 1] the run is the traced pass:
   the whole cost ladder plus every workload's traced pass, so each
   traced run carries every per-layer metric, and [obs.overhead_frac]
   for the named workload.  The last line of stdout is one JSON object;
   the exit code is nonzero if any audit, verdict or self-check failed. *)

let workloads = [ "service-open"; "queue-handoff"; "certify" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (service-open|queue-handoff|certify) --seed N \
     --seconds S --trace (0|1)";
  exit 2

let parse argv =
  let workload = ref "" and seed = ref None and seconds = ref None
  and trace = ref None in
  let int_arg s = match int_of_string_opt s with Some v -> v | None -> usage () in
  let rec go = function
    | "--workload" :: w :: rest ->
        workload := w;
        go rest
    | "--seed" :: s :: rest ->
        seed := Some (int_arg s);
        go rest
    | "--seconds" :: s :: rest ->
        seconds := Some (int_arg s);
        go rest
    | "--trace" :: t :: rest ->
        trace := Some (int_arg t);
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace
    when List.mem !workload workloads && seconds >= 1 && (trace = 0 || trace = 1)
    ->
      (!workload, seed, float_of_int seconds, trace = 1)
  | _ -> usage ()

let () =
  let workload, seed, seconds, trace = parse Sys.argv in
  let m = Util.metrics () in
  let attempted, failed =
    if not trace then
      match workload with
      | "service-open" -> Service_open.e2e ~seed ~seconds m
      | "queue-handoff" -> Queue_handoff.e2e ~seed ~seconds m
      | _ -> Certify.e2e ~seed ~seconds m
    else Traced.run ~workload ~seed ~seconds m
  in
  let correct = failed = 0 && attempted > 0 in
  Printf.printf "failed_frac %.6g (%d failed of %d attempted)\n"
    (float_of_int failed /. float_of_int (max 1 attempted))
    failed attempted;
  Util.print_table m;
  print_endline (Util.result_line ~correct ~attempted ~failed m);
  exit (if correct then 0 else 1)

(** aba-lab — experiment driver.

    Each subcommand regenerates one of the experiment tables listed in
    DESIGN.md; [all] runs the paper's battery that EXPERIMENTS.md
    records.  A bad argument exits 2 with a one-line reason. *)

open Aba_experiments.Experiments
(* ----- command line ----- *)

open Cmdliner

(* Validated converters, the only integer arguments the subcommands
   take: a value out of range is a command-line error, reported with
   the usage line and exit 2, never an exception out of an experiment. *)
let int_range lo hi =
  let expected =
    if hi = max_int then Printf.sprintf "an integer >= %d" lo
    else Printf.sprintf "an integer in %d..%d" lo hi
  in
  let parse s =
    match int_of_string_opt s with
    | Some v when lo <= v && v <= hi -> Ok v
    | Some _ | None ->
        Error (Printf.sprintf "invalid value %S, expected %s" s expected)
  in
  Arg.conv' (parse, Format.pp_print_int)

let positive = int_range 1 max_int

(* The OCaml 5.1 runtime caps live domains at 128 (16 on 32-bit
   targets), and the main domain is one of them. *)
let domain_count = int_range 1 ((if Sys.word_size = 64 then 128 else 16) - 1)

let domains_arg default =
  Arg.(
    value & opt domain_count default
    & info [ "domains" ] ~doc:"concurrent domains")

let ops_arg ?(doc = "operations per domain") default =
  Arg.(value & opt positive default & info [ "ops" ] ~doc)

(* Process counts for the simulator tables; [min] is the smallest n the
   table's constructions and adversaries are defined for. *)
let ns_arg ?(min = 1) default =
  let doc = "Process counts to sweep (comma separated)." in
  Arg.(value & opt (list (int_range min max_int)) default & info [ "n" ] ~doc)

let cmd_of name doc run =
  Cmd.v (Cmd.info name ~doc) Term.(const run $ const ())

let space_cmd =
  Cmd.v (Cmd.info "space" ~doc:"Space usage table (E3/E5).")
    Term.(const run_space $ ns_arg [ 3; 4; 6; 8 ])

let covering_cmd =
  Cmd.v (Cmd.info "covering" ~doc:"Lemma 1 covering adversary (E1).")
    Term.(const run_covering $ ns_arg ~min:2 [ 3; 4 ])

let wraparound_cmd = cmd_of "wraparound" "Tag wraparound search (E6)."
    run_wraparound

(* Figure 3's LL/SC rows need n >= 3 (Tradeoff.measure_llsc). *)
let tradeoff_cmd =
  Cmd.v (Cmd.info "tradeoff" ~doc:"Time-space tradeoff table (E2/E5).")
    Term.(const run_tradeoff $ ns_arg ~min:3 [ 3; 4; 6; 8 ])

let steps_cmd =
  Cmd.v (Cmd.info "steps" ~doc:"Step complexity growth series (E2).")
    Term.(const run_steps $ ns_arg ~min:3 [ 3; 4; 6; 8; 12; 16 ])

let stack_cmd =
  Cmd.v (Cmd.info "stack" ~doc:"Treiber stack reuse corruption (E7).")
    Term.(
      const (fun domains ops -> run_stack ~domains ~ops ())
      $ domains_arg 4 $ ops_arg 20_000)

let reclaim_cmd =
  let capacity =
    Arg.(value & opt positive 32 & info [ "capacity" ] ~doc:"node pool size")
  in
  Cmd.v
    (Cmd.info "reclaim"
       ~doc:"Reclamation schemes: throughput vs peak limbo space (E10).")
    Term.(
      const (fun domains ops capacity -> run_reclaim ~capacity ~domains ~ops ())
      $ domains_arg 4 $ ops_arg 20_000 $ capacity)

(* E16: the DPOR model-checking suite.  Each scenario certifies one
   concurrent structure at a small configuration over a representative
   schedule set; the naive E9 exhaustive summary stays reachable through
   [all] as the oracle the engine is differentially tested against. *)
let explore_cmd =
  let scenario =
    Arg.(
      value
      & opt (some string) None
      & info [ "scenario" ] ~doc:"Run a single scenario by name.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the reports as JSON.")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ] ~doc:"Skip the heavy scenarios (CI smoke mode).")
  in
  let max_schedules =
    Arg.(
      value & opt positive 500_000
      & info [ "max-schedules" ] ~doc:"Schedule budget per scenario.")
  in
  let preemption_bound =
    Arg.(
      value
      & opt (some (int_range 0 max_int)) None
      & info [ "preemption-bound" ]
          ~doc:"Bound involuntary context switches per schedule.")
  in
  let run scenario json smoke max_schedules preemption_bound =
    let module S = Aba_experiments.Scenarios in
    let reports =
      match scenario with
      | Some id -> (
          match S.find id with
          | None ->
              Printf.eprintf "unknown scenario %S; known: %s\n" id
                (String.concat ", " (S.names ()));
              exit 2
          | Some s -> [ s.S.run ~max_schedules ?preemption_bound () ])
      | None -> S.run_suite ~smoke ~max_schedules ?preemption_bound ()
    in
    if json then
      print_string (Aba_experiments.Json.to_string (S.suite_to_json reports))
    else begin
      Printf.printf "%-18s %-10s %9s %12s %9s %7s %6s %8s %5s\n" "scenario"
        "verdict" "explored" "bound" "reduction" "sleeps" "races" "replayed"
        "pass";
      List.iter
        (fun (r : S.report) ->
          let bound, reduction =
            match r.S.stats.Aba_sim.Explore.schedule_bound with
            | Some b ->
                ( string_of_int b,
                  if r.S.stats.Aba_sim.Explore.explored > 0 then
                    Printf.sprintf "%.1fx"
                      (float_of_int b
                      /. float_of_int r.S.stats.Aba_sim.Explore.explored)
                  else "-" )
            | None -> ("overflow", "-")
          in
          Printf.printf "%-18s %-10s %9d %12s %9s %7d %6d %8d %5s\n" r.S.name
            r.S.verdict
            r.S.stats.Aba_sim.Explore.explored
            bound reduction r.S.stats.Aba_sim.Explore.sleep_set_prunes
            r.S.stats.Aba_sim.Explore.races_detected
            r.S.stats.Aba_sim.Explore.actions_replayed
            (if r.S.passed then "ok" else "FAIL"))
        reports
    end;
    if not (List.for_all (fun (r : S.report) -> r.S.passed) reports) then
      exit 1
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "DPOR model-check scenario suite (E16): certify every concurrent \
          structure at a small configuration.")
    Term.(
      const run $ scenario $ json $ smoke $ max_schedules $ preemption_bound)

let ablate_cmd =
  cmd_of "ablate" "Ablations: fig3 retry bound, fig4 sequence domain."
    run_ablation

(* The per-kind summary of an Obs handle: count, retries, percentiles. *)
let print_kinds obs =
  let module Obs = Aba_obs.Obs in
  Printf.printf "\n%-10s %9s %9s %8s %8s %8s %8s  (ns)\n" "kind" "ops"
    "retries" "p50" "p90" "p99" "p999";
  List.iter
    (fun kind ->
      let count = Obs.op_count obs kind in
      if count > 0 then
        match Obs.histogram obs kind with
        | Some h ->
            let s = Aba_obs.Histogram.summarize h in
            Printf.printf "%-10s %9d %9d %8d %8d %8d %8d\n"
              (Obs.kind_name kind) count
              (Obs.retry_count obs kind)
              s.Aba_obs.Histogram.p50 s.Aba_obs.Histogram.p90
              s.Aba_obs.Histogram.p99 s.Aba_obs.Histogram.p999
        | None ->
            Printf.printf "%-10s %9d %9d\n" (Obs.kind_name kind) count
              (Obs.retry_count obs kind))
    Obs.all_kinds

(* E14: the observability layer exercised end to end — a contended churn
   run over an instrumented stack, then the merged per-kind summary and
   timeline the Obs handle collected.  The stack's own handle is used
   (churn gets none) so each operation is counted once, with retries. *)
let obs_cmd =
  let events =
    Arg.(
      value
      & opt (int_range 0 max_int) 20
      & info [ "events" ] ~doc:"trace events to print")
  in
  let protections =
    [
      ( "hazard",
        Aba_runtime.Rt_treiber.Reclaimed Aba_runtime.Rt_reclaim.Hazard );
      ("announced", Aba_runtime.Rt_treiber.Announced 8);
    ]
  in
  let protection =
    Arg.(
      value
      & opt
          (enum (List.map (fun (name, p) -> (name, (name, p))) protections))
          (List.hd protections)
      & info [ "protection" ]
          ~doc:
            "head protection of the churned stack: $(b,hazard) (reclaimed; \
             retire events) or $(b,announced) (wraparound-safe 8-bit tags; \
             crossing scans show up as $(b,scan) rows).")
  in
  let run domains ops events (protection, prot) =
    let module Obs = Aba_obs.Obs in
    let obs = Obs.create ~trace:512 ~n:domains () in
    let s =
      Aba_runtime.Rt_treiber.create ~obs ~protection:prot
        ~elimination:Aba_runtime.Elimination.default_spec ~capacity:1024
        ~n:domains ()
    in
    let report =
      Aba_runtime.Harness.churn ~mix:Aba_runtime.Harness.Paired ~n:domains
        ~ops
        ~push:(fun ~pid v -> Aba_runtime.Rt_treiber.push s ~pid v)
        ~pop:(fun ~pid -> Aba_runtime.Rt_treiber.pop s ~pid)
        ~finish:(fun ~pid ->
          match Aba_runtime.Rt_treiber.reclaimer s with
          | Some rc ->
              Aba_runtime.Rt_reclaim.release rc ~pid;
              Aba_runtime.Rt_reclaim.flush rc ~pid
          | None -> ())
        ()
    in
    Printf.printf
      "churn (treiber %s+elim, paired): attempted=%d pushed=%d popped=%d \
       remaining=%d multiset=%s\n"
      protection report.Aba_runtime.Harness.attempted
      report.Aba_runtime.Harness.pushed report.Aba_runtime.Harness.popped
      report.Aba_runtime.Harness.remaining
      (match report.Aba_runtime.Harness.outcome with
      | Ok () -> "ok"
      | Error e -> "CORRUPT: " ^ e);
    print_kinds obs;
    Printf.printf
      "\ntrace: %d events recorded, %d retained; first %d of the merged \
       timeline:\n"
      (Obs.trace_recorded obs) (Obs.trace_retained obs) events;
    List.iteri
      (fun i (e : Obs.event) ->
        if i < events then
          Printf.printf "  %10d ns  pid=%d  %-8s %-10s retries=%d\n"
            e.Obs.at_ns e.Obs.pid (Obs.kind_name e.Obs.kind)
            (Obs.outcome_name e.Obs.outcome) e.Obs.retries)
      (Obs.timeline obs)
  in
  Cmd.v
    (Cmd.info "obs"
       ~doc:
         "Observability demo (E14): instrumented contended churn, merged \
          histogram + trace.")
    Term.(const run $ domains_arg 4 $ ops_arg 10_000 $ events $ protection)

(* E15: the ingress tier exercised end to end — a capacity-limited
   bounded churn over the instrumented lock-free ring (with the multiset
   audit), then a saturated producer/consumer run through the blocking
   wrapper so the backpressure wait kinds show up in the same per-kind
   summary.  [--seq-bits] exposes the bounded-tag axis: tiny widths make
   the slot sequence words wrap constantly (the audit still passes —
   that is the wraparound safety condition of DESIGN E15). *)
let queue_cmd =
  let capacity =
    Arg.(value & opt positive 64 & info [ "capacity" ] ~doc:"ring capacity")
  in
  let seq_bits =
    Arg.(
      value
      & opt (int_range 2 61) 61
      & info [ "seq-bits" ] ~doc:"slot sequence tag width (2..61)")
  in
  let run domains ops capacity seq_bits =
    let module Obs = Aba_obs.Obs in
    let obs = Obs.create ~trace:0 ~n:domains () in
    let q =
      Aba_queue.Rt_ring.create ~obs ~seq_bits ~capacity ~n:domains ()
    in
    let report =
      Aba_runtime.Harness.churn ~mix:Aba_runtime.Harness.Bounded ~n:domains
        ~ops
        ~push:(fun ~pid v -> Aba_queue.Rt_ring.try_enqueue q ~pid v)
        ~pop:(fun ~pid -> Aba_queue.Rt_ring.try_dequeue q ~pid)
        ()
    in
    Printf.printf
      "bounded churn (ring-lf, capacity=%d, seq_bits=%d): attempted=%d \
       pushed=%d popped=%d remaining=%d multiset=%s\n"
      capacity seq_bits report.Aba_runtime.Harness.attempted
      report.Aba_runtime.Harness.pushed report.Aba_runtime.Harness.popped
      report.Aba_runtime.Harness.remaining
      (match report.Aba_runtime.Harness.outcome with
      | Ok () -> "ok"
      | Error e -> "CORRUPT: " ^ e);
    print_kinds obs;
    (* Backpressure: one producer, one consumer, a deliberately tiny
       window — the blocking wrapper's wait phases (Wait_full on the
       producer, Wait_empty on the consumer) dominate the summary. *)
    let wait_cap = min capacity 4 in
    let obs2 = Obs.create ~trace:0 ~n:2 () in
    let b =
      Aba_queue.Blocking.create ~obs:obs2 ~seq_bits ~capacity:wait_cap ~n:2 ()
    in
    let _ =
      Aba_runtime.Harness.run_domains ~n:2 (fun pid ->
          if pid = 0 then
            for i = 1 to ops do
              while not (Aba_queue.Blocking.enqueue b ~pid i) do () done
            done
          else
            let popped = ref 0 in
            while !popped < ops do
              match Aba_queue.Blocking.dequeue b ~pid with
              | Some _ -> incr popped
              | None -> ()
            done)
    in
    Printf.printf
      "\nblocking producer/consumer (capacity=%d, %d items): drained, \
       length=%d\n"
      wait_cap ops (Aba_queue.Blocking.length b);
    print_kinds obs2
  in
  (* The ring tells a full lap from an empty one only while the capacity
     stays below half the sequence space (Ring_queue.create). *)
  let checked domains ops capacity seq_bits =
    if capacity >= 1 lsl (seq_bits - 1) then
      `Error
        ( true,
          Printf.sprintf "--capacity %d needs a larger --seq-bits" capacity )
    else `Ok (run domains ops capacity seq_bits)
  in
  Cmd.v
    (Cmd.info "queue"
       ~doc:
         "Ingress tier demo (E15): bounded churn over the lock-free ring, \
          then backpressure waits through the blocking wrapper.")
    Term.(
      ret
        (const checked $ domains_arg 4 $ ops_arg 10_000 $ capacity $ seq_bits))

(* E19: crash recovery end to end — the detectable counter and stack
   churned on real domains while the harness fuse kills operations at
   randomized shared accesses, each audited for exactly-once effect,
   then the DPOR crash-move certification of the same protocols (the
   detectable/naive scenario pair plus the stack). *)
let recover_cmd =
  (* Crash-churn over-subscribed on too few cores degrades badly: every
     injected crash parks stale shared state that other domains
     spin-help against until the crashed domain is rescheduled, so the
     default domain count follows the machine (floor 2 to keep real
     cross-domain helping in play). *)
  let auto_domains =
    max 2 (min 4 (Aba_runtime.Harness.available_parallelism ()))
  in
  let crash_every =
    Arg.(
      value & opt positive 7
      & info [ "crash-every" ] ~doc:"crash period in rounds per domain")
  in
  let run domains ops crash_every =
    let module H = Aba_runtime.Harness in
    let module Obs = Aba_obs.Obs in
    let failed = ref false in
    (* Counter: every increment must count exactly once through crashes. *)
    let () =
      let m = Aba_primitives.Rt_mem.make ~n:domains () in
      let module M = (val m : Aba_primitives.Mem_intf.S) in
      let module D = Aba_core.Detectable.Make (M) in
      let fuse = H.Fuse.create ~n:domains in
      let c =
        D.Counter.create ~on_step:(H.Fuse.on_step fuse) ~name:"ctr"
          ~n:domains ()
      in
      let results =
        H.run_domains ~n:domains (fun d ->
            let eff = ref 0 and crashes = ref 0 in
            for i = 1 to ops do
              if i mod crash_every = 0 then begin
                H.Fuse.arm fuse ~pid:d
                  ~steps:(H.default_fuse_steps ~pid:d ~round:i);
                try
                  ignore (D.Counter.inc c ~pid:d : int);
                  H.Fuse.disarm fuse ~pid:d;
                  incr eff
                with H.Injected_crash -> (
                  incr crashes;
                  match D.Counter.recover c ~pid:d with
                  | Some _ -> incr eff
                  | None -> ())
              end
              else begin
                ignore (D.Counter.inc c ~pid:d : int);
                incr eff
              end
            done;
            (!eff, !crashes))
      in
      let eff = Array.fold_left (fun a (e, _) -> a + e) 0 results in
      let crashes = Array.fold_left (fun a (_, c) -> a + c) 0 results in
      let final = D.Counter.read c in
      let ok = final = eff in
      if not ok then failed := true;
      Printf.printf
        "detectable counter: domains=%d ops/domain=%d crashes=%d \
         effective=%d final=%d exactly-once=%s\n"
        domains ops crashes eff final
        (if ok then "ok" else "FAIL")
    in
    (* Stack: crash-churn under each head protection, exactly-once
       multiset audit, crash/recover events on the Obs handle. *)
    List.iter
      (fun (pname, protection) ->
        let m = Aba_primitives.Rt_mem.make ~n:domains () in
        let module M = (val m : Aba_primitives.Mem_intf.S) in
        let module D = Aba_core.Detectable.Make (M) in
        let fuse = H.Fuse.create ~n:domains in
        let st =
          D.Stack.create ~protection ~tag_bits:8
            ~on_step:(H.Fuse.on_step fuse) ~name:"dstk" ~n:domains
            ~capacity:(((domains + 2) * ops) + 8)
            ()
        in
        let plan =
          {
            H.fuse;
            crash_every;
            fuse_steps = H.default_fuse_steps;
            recover =
              (fun ~pid ->
                match D.Stack.recover st ~pid with
                | Aba_core.Detectable.R_none ->
                    { H.completed = false; r_pushed = []; r_popped = [] }
                | Aba_core.Detectable.R_pushed v ->
                    { H.completed = true; r_pushed = [ v ]; r_popped = [] }
                | Aba_core.Detectable.R_popped (Some v) ->
                    { H.completed = true; r_pushed = []; r_popped = [ v ] }
                | Aba_core.Detectable.R_popped None ->
                    { H.completed = true; r_pushed = []; r_popped = [] });
          }
        in
        let obs = Obs.create ~trace:0 ~n:domains () in
        let report =
          H.churn ~mix:H.Paired ~obs ~crashes:plan ~n:domains ~ops
            ~push:(fun ~pid v ->
              D.Stack.push st ~pid v;
              true)
            ~pop:(fun ~pid -> D.Stack.pop st ~pid)
            ()
        in
        if Result.is_error report.H.outcome then failed := true;
        Printf.printf
          "detectable stack (%-10s): pushed=%d popped=%d remaining=%d \
           crashed=%d recovered=%d obs(crash=%d recover=%d) exactly-once=%s\n"
          pname report.H.pushed report.H.popped report.H.remaining
          report.H.crashed report.H.recovered
          (Obs.op_count obs Obs.Crash)
          (Obs.op_count obs Obs.Recover)
          (match report.H.outcome with
          | Ok () -> "ok"
          | Error e -> "FAIL: " ^ e))
      [
        ("tag8", Aba_core.Detectable.Tag_bits);
        ("llsc", Aba_core.Detectable.Llsc);
        ("announced8", Aba_core.Detectable.Announced);
      ];
    (* The simulator side of the same story: DPOR over crash moves. *)
    let module S = Aba_experiments.Scenarios in
    print_newline ();
    List.iter
      (fun id ->
        match S.find id with
        | None ->
            Printf.eprintf "missing crash scenario %S\n" id;
            failed := true
        | Some s ->
            let r = s.S.run () in
            if not r.S.passed then failed := true;
            Printf.printf
              "dpor %-25s verdict=%-9s explored=%d crashes_injected=%d %s\n"
              r.S.name r.S.verdict r.S.stats.Aba_sim.Explore.explored
              r.S.stats.Aba_sim.Explore.crashes_injected
              (if r.S.passed then "ok" else "FAIL"))
      [
        "detectable-counter-crash"; "naive-counter-crash";
        "detectable-stack-crash";
      ];
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Crash recovery demo (E19): detectable counter/stack crash-churn \
          with exactly-once audits, then the DPOR crash-move \
          certification.")
    Term.(
      const run $ domains_arg auto_domains
      $ ops_arg ~doc:"rounds per domain" 2_000
      $ crash_every)

let all_cmd =
  let run () =
    run_space [ 3; 4; 6; 8 ];
    run_covering [ 3; 4 ];
    run_wraparound ();
    run_tradeoff [ 4; 8 ];
    run_steps [ 3; 4; 6; 8; 12; 16 ];
    run_explore ();
    run_ablation ();
    run_stack ~domains:4 ~ops:20_000 ();
    run_reclaim ~domains:4 ~ops:20_000 ()
  in
  cmd_of "all" "Run the full experiment battery." run

let main =
  Cmd.group
    (Cmd.info "aba-lab" ~version:"1.0"
       ~doc:"Experiments for the PODC 2015 ABA prevention/detection paper.")
    [
      space_cmd; covering_cmd; wraparound_cmd; tradeoff_cmd; steps_cmd;
      explore_cmd; ablate_cmd; stack_cmd; reclaim_cmd; obs_cmd; queue_cmd;
      recover_cmd; all_cmd;
    ]

(* Cmdliner reports a bad argument with its own exit code 124; this
   driver's contract is the conventional usage-error code 2. *)
let () =
  exit
    (match Cmd.eval main with
    | code when code = Cmd.Exit.cli_error -> 2
    | code -> code)

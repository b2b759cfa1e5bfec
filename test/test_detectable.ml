(** Detectable (crash-recoverable) operations — experiment E19.

    Three layers of the same exactly-once claim: a qcheck sweep of the
    detectable counter over randomized crash points on the sequential
    backend (with a deterministic scan showing the naive mutant really
    does duplicate at some crash point), the multicore crash-churn audit
    of the detectable stack under all three head protections, and the
    DPOR crash-move certification of the simulator scenarios. *)

open Aba_primitives
module H = Aba_runtime.Harness
module Obs = Aba_obs.Obs
module Detectable = Aba_core.Detectable
module S = Aba_experiments.Scenarios
module Explore = Aba_sim.Explore

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* A single-process fuse for the seq backend: arm with a step budget and
   the shared access that burns it raises {!H.Injected_crash}, disarming
   itself first so recovery runs crash-free — the same discipline as
   {!H.Fuse} without the per-domain array. *)
let seq_fuse () =
  let fuse = ref max_int in
  let on_step (_ : Pid.t) =
    let c = !fuse in
    if c <> max_int then
      if c <= 1 then begin
        fuse := max_int;
        raise H.Injected_crash
      end
      else fuse := c - 1
  in
  (fuse, on_step)

(* ----- Counter: exactly-once on the seq backend ----- *)

(* Run a crash plan against a fresh detectable counter: [None] entries
   are plain increments, [Some steps] arms the fuse so the increment
   dies at its [steps]-th shared access and is resolved by [recover].
   With one process every effective increment is sequential, so both
   the running results and the final read are fully determined. *)
let counter_exactly_once_seq =
  qtest ~count:150
    "detectable counter: exactly-once under randomized crash points (seq)"
    QCheck2.Gen.(list_size (int_range 1 40) (option (int_range 1 20)))
    (fun plan ->
      let module M = (val Seq_mem.make ()) in
      let module D = Detectable.Make (M) in
      let fuse, on_step = seq_fuse () in
      let c = D.Counter.create ~on_step ~name:"qc" ~n:1 () in
      let eff = ref 0 in
      let ok = ref true in
      List.iter
        (fun crash ->
          match crash with
          | None ->
              let r = D.Counter.inc c ~pid:0 in
              incr eff;
              if r <> !eff then ok := false
          | Some steps -> (
              fuse := steps;
              try
                let r = D.Counter.inc c ~pid:0 in
                (* The budget outlived the operation: no crash. *)
                fuse := max_int;
                incr eff;
                if r <> !eff then ok := false
              with H.Injected_crash -> (
                match D.Counter.recover c ~pid:0 with
                | Some r ->
                    (* Resolved exactly once — whether it had landed
                       pre-crash or recovery re-ran it, its result is
                       the next value in the sequential history. *)
                    incr eff;
                    if r <> !eff then ok := false
                | None ->
                    (* No shared step had executed; no effect. *)
                    ())))
        plan;
      !ok && D.Counter.read c = !eff)

(* Deterministic scan of every crash point of one increment (budgets
   1..20 cover all its shared accesses): the detectable counter must
   read exactly its effective count at each, the naive mutant must
   overcount at some point — the window between its successful CAS and
   its Done descriptor write, where its recovery guesses "not landed"
   and re-runs. *)
let counter_scan_exact () =
  List.iter
    (fun steps ->
      let module M = (val Seq_mem.make ()) in
      let module D = Detectable.Make (M) in
      let fuse, on_step = seq_fuse () in
      let c = D.Counter.create ~on_step ~name:"sc" ~n:1 () in
      ignore (D.Counter.inc c ~pid:0 : int);
      let eff = ref 1 in
      fuse := steps;
      (try
         ignore (D.Counter.inc c ~pid:0 : int);
         fuse := max_int;
         incr eff
       with H.Injected_crash -> (
         match D.Counter.recover c ~pid:0 with
         | Some _ -> incr eff
         | None -> ()));
      check_int
        (Printf.sprintf "exactly-once with a crash at access %d" steps)
        !eff (D.Counter.read c))
    (List.init 20 (fun i -> i + 1))

let naive_counter_duplicates () =
  let duplicated = ref false in
  List.iter
    (fun steps ->
      let module M = (val Seq_mem.make ()) in
      let module D = Detectable.Make (M) in
      let fuse, on_step = seq_fuse () in
      let c = D.Naive_counter.create ~on_step ~name:"nc" ~n:1 () in
      ignore (D.Naive_counter.inc c ~pid:0 : int);
      let eff = ref 1 in
      fuse := steps;
      (try
         ignore (D.Naive_counter.inc c ~pid:0 : int);
         fuse := max_int;
         incr eff
       with H.Injected_crash -> (
         match D.Naive_counter.recover c ~pid:0 with
         | Some _ -> incr eff
         | None -> ()));
      if D.Naive_counter.read c > !eff then duplicated := true)
    (List.init 20 (fun i -> i + 1));
  check_bool "some crash point makes the naive recovery duplicate" true
    !duplicated

(* ----- Stack: crash-churn exactly-once audit (multicore) ----- *)

let stack_plan ~fuse ~crash_every
    ~(recover : pid:int -> Detectable.stack_recovery) : H.crash_plan =
  {
    H.fuse;
    crash_every;
    fuse_steps = H.default_fuse_steps;
    recover =
      (fun ~pid ->
        match recover ~pid with
        | Detectable.R_none ->
            { H.completed = false; r_pushed = []; r_popped = [] }
        | Detectable.R_pushed v ->
            { H.completed = true; r_pushed = [ v ]; r_popped = [] }
        | Detectable.R_popped (Some v) ->
            { H.completed = true; r_pushed = []; r_popped = [ v ] }
        | Detectable.R_popped None ->
            { H.completed = true; r_pushed = []; r_popped = [] });
  }

(* 2 domains only: crash-churn over-subscribed on few cores degrades
   badly (a crashed domain's stale state is spin-helped against until
   the OS reschedules it), and CI runners have 2. *)
let stack_crash_churn protection () =
  let domains = 2 and ops = 120 and crash_every = 5 in
  let m = Rt_mem.make ~n:domains () in
  let module M = (val m : Mem_intf.S) in
  let module D = Detectable.Make (M) in
  let fuse = H.Fuse.create ~n:domains in
  let st =
    D.Stack.create ~protection ~tag_bits:8 ~on_step:(H.Fuse.on_step fuse)
      ~name:"dstk" ~n:domains
      ~capacity:(((domains + 2) * ops) + 8)
      ()
  in
  let plan =
    stack_plan ~fuse ~crash_every ~recover:(fun ~pid ->
        D.Stack.recover st ~pid)
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
  (match report.H.outcome with
  | Ok () -> ()
  | Error e -> Alcotest.failf "exactly-once audit failed: %s" e);
  check_bool "crashes were injected" true (report.H.crashed > 0);
  check_bool "recoveries cannot outnumber crashes" true
    (report.H.recovered <= report.H.crashed);
  check_int "every crash recorded a Crash event" report.H.crashed
    (Obs.op_count obs Obs.Crash);
  check_int "every crash recorded a Recover event" report.H.crashed
    (Obs.op_count obs Obs.Recover)

let stack_churn_no_crashes () =
  (* Control: without a crash plan the counters stay zero and the audit
     is the ordinary sub-multiset check. *)
  let domains = 2 and ops = 120 in
  let m = Rt_mem.make ~n:domains () in
  let module M = (val m : Mem_intf.S) in
  let module D = Detectable.Make (M) in
  let st =
    D.Stack.create ~name:"dstk0" ~n:domains
      ~capacity:(((domains + 2) * ops) + 8)
      ()
  in
  let report =
    H.churn ~mix:H.Paired ~n:domains ~ops
      ~push:(fun ~pid v ->
        D.Stack.push st ~pid v;
        true)
      ~pop:(fun ~pid -> D.Stack.pop st ~pid)
      ()
  in
  check_bool "audit holds" true (Result.is_ok report.H.outcome);
  check_int "no crashes without a plan" 0 report.H.crashed;
  check_int "no recoveries without a plan" 0 report.H.recovered;
  check_int "every push landed" report.H.attempted report.H.pushed

(* ----- DPOR crash-move certification ----- *)

let run_scenario = Test_support.run_scenario

let dpor_crash_pair () =
  let dc = run_scenario "detectable-counter-crash" in
  Alcotest.(check string)
    "detectable counter verdict" "ok" dc.S.verdict;
  check_bool "detectable counter passed" true dc.S.passed;
  check_bool "crash moves were explored" true
    (dc.S.stats.Explore.crashes_injected > 0);
  let nc = run_scenario "naive-counter-crash" in
  Alcotest.(check string) "naive counter verdict" "violation" nc.S.verdict;
  check_bool "the violation was expected" true nc.S.passed;
  check_bool "violation comes with a schedule" true
    (nc.S.violation_schedule <> None);
  check_bool "the violating run crashed" true
    (nc.S.stats.Explore.crashes_injected > 0)

let dpor_stack_crash () =
  let ds = run_scenario "detectable-stack-crash" in
  Alcotest.(check string) "detectable stack verdict" "ok" ds.S.verdict;
  check_bool "detectable stack passed" true ds.S.passed;
  check_bool "crash moves were explored" true
    (ds.S.stats.Explore.crashes_injected > 0)

let dpor_crashes_default_off () =
  (* Scenarios without a crash plan run with [crash_bound = 0]: the
     explorer injects nothing and the schedule bound stays in force. *)
  let r = run_scenario "fig4-3proc" in
  check_bool "legacy scenario still passes" true r.S.passed;
  check_int "no crash moves without a crash bound" 0
    r.S.stats.Explore.crashes_injected;
  check_bool "schedule bound still computed" true
    (r.S.stats.Explore.schedule_bound <> None)

let suite =
  [
    counter_exactly_once_seq;
    Alcotest.test_case "counter crash-point scan is exactly-once" `Quick
      counter_scan_exact;
    Alcotest.test_case "naive counter duplicates at some crash point"
      `Quick naive_counter_duplicates;
    Alcotest.test_case "stack crash-churn audit (tag bits)" `Quick
      (stack_crash_churn Detectable.Tag_bits);
    Alcotest.test_case "stack crash-churn audit (llsc)" `Quick
      (stack_crash_churn Detectable.Llsc);
    Alcotest.test_case "stack crash-churn audit (announced)" `Quick
      (stack_crash_churn Detectable.Announced);
    Alcotest.test_case "stack churn control run (no crashes)" `Quick
      stack_churn_no_crashes;
    Alcotest.test_case "dpor certifies the counter crash pair" `Quick
      dpor_crash_pair;
    Alcotest.test_case "dpor certifies the detectable stack" `Quick
      dpor_stack_crash;
    Alcotest.test_case "dpor crash moves default off" `Quick
      dpor_crashes_default_off;
  ]

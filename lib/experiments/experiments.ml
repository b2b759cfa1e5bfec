(** Experiment runners (E1..E11 from DESIGN.md).

    Each [run_*] prints one paper-derived table to stdout; the [aba-lab]
    CLI exposes each as a subcommand, and [aba-lab all] regenerates every
    table in one go. *)

open Aba_core
open Aba_lowerbound

let hr () = print_endline (String.make 72 '-')

let section title =
  hr ();
  Printf.printf "%s\n" title;
  hr ()

(* ----- E3 / Theorem 3: space table ----- *)

let run_space ns =
  section "E3/E5 - Space usage (number of base objects, m) vs n";
  Printf.printf "%-12s" "impl";
  List.iter (fun n -> Printf.printf "%8s" (Printf.sprintf "n=%d" n)) ns;
  Printf.printf "%10s\n" "bounded?";
  let row label space_of =
    Printf.printf "%-12s" label;
    let bounded = ref true in
    List.iter
      (fun n ->
        let objs = space_of n in
        if List.exists (fun (_, d) -> d = "unbounded") objs then
          bounded := false;
        Printf.printf "%8d" (List.length objs))
      ns;
    Printf.printf "%10s\n" (if !bounded then "yes" else "NO")
  in
  print_endline "ABA-detecting registers:";
  List.iter
    (fun (label, builder) ->
      row label (fun n ->
          let sim = Aba_sim.Sim.create ~n in
          (Instances.aba_in_sim builder sim ~n).Instances.aba_space ()))
    (Instances.all_aba ());
  print_endline "LL/SC/VL objects:";
  List.iter
    (fun (label, builder) ->
      row label (fun n ->
          let sim = Aba_sim.Sim.create ~n in
          (Instances.llsc_in_sim builder sim ~n).Instances.llsc_space ()))
    (List.filter (fun (l, _) -> l <> "native") (Instances.all_llsc ()));
  print_endline
    "Paper: fig4 = n+1 registers (Thm 3); thm2/fig3 = 1 CAS (Thm 2);\n\
     jp = 1 CAS + n registers [2,15]; unbounded/moir = 1 unbounded object."

(* ----- E1 / Theorem 1(a): covering adversary ----- *)

let run_covering ns =
  section "E1 - Lemma 1 covering adversary (Theorem 1(a))";
  let impls =
    [
      ("fig4", Instances.aba_fig4);
      ("tag-mod-3", Instances.aba_bounded_tag ~tag_bound:3);
      ("tag-mod-8", Instances.aba_bounded_tag ~tag_bound:8);
      ("unbounded", Instances.aba_unbounded);
      ("thm2(CAS)", Instances.aba_thm2);
    ]
  in
  List.iter
    (fun n ->
      Printf.printf "n = %d (target covering: %d registers)\n" n (n - 1);
      List.iter
        (fun (label, builder) ->
          let outcome, stats =
            Covering.run ~max_iterations_per_level:4000 builder ~n
          in
          Printf.printf "  %-11s %s\n" label
            (Format.asprintf "%a" Covering.pp_outcome outcome);
          Printf.printf "  %-11s   (%d steps, %d iterations, %d replays)\n" ""
            stats.Covering.total_steps stats.Covering.total_iterations
            stats.Covering.replays)
        impls)
    ns;
  print_endline
    "Paper: any solo-terminating implementation from bounded registers\n\
     admits an (n-1)-register covering; fewer registers force a\n\
     clean/dirty confusion (wrong WeakRead flag)."

(* ----- E6: wraparound ----- *)

let run_wraparound () =
  section "E6 - Bounded-tag wraparound (Introduction / boundedness)";
  Printf.printf "%-14s %-26s %-22s\n" "impl" "directed (min misses)"
    "randomized (50 seeds)";
  let impls =
    List.map
      (fun t ->
        ( Printf.sprintf "tag-mod-%d" t,
          Instances.aba_bounded_tag ~tag_bound:t ))
      [ 2; 4; 8; 16 ]
    @ Instances.all_aba ()
  in
  List.iter
    (fun (label, builder) ->
      let directed =
        match Wraparound.directed_search builder ~n:2 ~max_writes:40 with
        | Wraparound.Missed_after k ->
            Printf.sprintf "MISSED after %d writes" k
        | Wraparound.Detected_up_to k ->
            Printf.sprintf "detected all (<=%d)" k
      in
      let randomized =
        match
          Wraparound.randomized_search builder ~n:3 ~ops_per_pid:8 ~seeds:50
        with
        | { Wraparound.violation_seed = Some s; _ } ->
            Printf.sprintf "VIOLATION at seed %d" s
        | { Wraparound.violation_seed = None; histories_checked } ->
            Printf.sprintf "clean (%d histories)" histories_checked
      in
      Printf.printf "%-14s %-26s %-22s\n" label directed randomized)
    impls;
  print_endline
    "Paper: a tag modulo T misses an ABA after exactly T writes; only\n\
     unbounded tags or real detection algorithms are safe.";
  Printf.printf "\nStale-tag adversary vs announced tags (E18, tag_bits = 2):\n";
  Printf.printf "%-18s %-12s %-18s %s\n" "variant" "stale CAS" "duplicate pops"
    "scans";
  List.iter
    (fun (label, guard) ->
      let r = Wraparound.stale_tag_adversary ~guard () in
      Printf.printf "%-18s %-12s %-18s %d\n" label
        (if r.Wraparound.stale_cas_won then "WON" else "defeated")
        (if r.Wraparound.duplicate_pops = [] then "none"
         else
           String.concat ";"
             (List.map string_of_int r.Wraparound.duplicate_pops))
        r.Wraparound.crossing_scans)
    [ ("guard disabled", false); ("guard enabled", true) ];
  print_endline
    "Same schedule both times: announcing the tag and scanning on each\n\
     half-space crossing is exactly what turns the wraparound miss into\n\
     a failed CAS (DESIGN E18)."

(* ----- E2/E5: steps and tradeoff ----- *)

let run_tradeoff ns =
  section "E2/E5 - Worst-case steps t, space m, and the product m*t";
  Printf.printf "LL/SC/VL implementations (Corollary 1: m*t >= ceil((n-1)/2) \
                 when bounded):\n";
  Printf.printf "%-8s %-4s %6s %6s %6s %6s %6s %8s %9s\n" "impl" "n" "m"
    "LL" "SC" "VL" "t" "m*t" "bounded";
  List.iter
    (fun n ->
      List.iter
        (fun (label, builder) ->
          let m = Tradeoff.measure_llsc ~label builder ~n in
          Printf.printf "%-8s %-4d %6d %6d %6d %6d %6d %8d %9s\n" label n
            m.Tradeoff.space m.Tradeoff.worst_ll m.Tradeoff.worst_sc
            m.Tradeoff.worst_vl m.Tradeoff.worst_op m.Tradeoff.product
            (if m.Tradeoff.bounded then "yes" else "NO"))
        [
          ("fig3", Instances.llsc_fig3);
          ("jp", Instances.llsc_jp);
          ("moir", Instances.llsc_moir);
        ])
    ns;
  Printf.printf
    "\nABA-detecting registers (Theorem 1(b,c)):\n%-10s %-4s %6s %7s %7s %6s \
     %8s %9s\n"
    "impl" "n" "m" "DRead" "DWrite" "t" "m*t" "bounded";
  List.iter
    (fun n ->
      List.iter
        (fun (label, builder) ->
          let m = Tradeoff.measure_aba ~label builder ~n in
          Printf.printf "%-10s %-4d %6d %7d %7d %6d %8d %9s\n" label n
            m.Tradeoff.a_space m.Tradeoff.worst_dread m.Tradeoff.worst_dwrite
            m.Tradeoff.a_worst_op m.Tradeoff.a_product
            (if m.Tradeoff.a_bounded then "yes" else "NO"))
        [
          ("fig4", Instances.aba_fig4);
          ("thm2", Instances.aba_thm2);
          ("fig5", Instances.aba_fig5);
          ("fig5-jp", Instances.aba_fig5_jp);
          ("unbounded", Instances.aba_unbounded);
        ])
    ns;
  print_endline
    "Paper: fig3/thm2 sit at (m=1, t=Theta(n)); jp/fig4 at (m=n+1, t=O(1));\n\
     both products are Theta(n), matching the lower bound. moir/unbounded\n\
     beat the bound only because their base objects are unbounded."

(* ----- E2: step growth series (the O(n) 'figure') ----- *)

let run_steps ns =
  section "E2 - Worst-case step complexity vs n (series)";
  Printf.printf "%-6s %10s %10s %10s %10s\n" "n" "fig3.LL" "fig3.SC"
    "thm2.DRead" "fig4.DRead";
  List.iter
    (fun n ->
      let fig3 = Tradeoff.measure_llsc ~label:"fig3" Instances.llsc_fig3 ~n in
      let thm2 = Tradeoff.measure_aba ~label:"thm2" Instances.aba_thm2 ~n in
      let fig4 = Tradeoff.measure_aba ~label:"fig4" Instances.aba_fig4 ~n in
      Printf.printf "%-6d %10d %10d %10d %10d\n" n fig3.Tradeoff.worst_ll
        fig3.Tradeoff.worst_sc thm2.Tradeoff.worst_dread
        fig4.Tradeoff.worst_dread)
    ns;
  print_endline
    "Paper: fig3 LL worst case is 2n+1 steps, SC is O(n); fig4 DRead is\n\
     exactly 4 steps at every n (Theorem 3 vs Theorem 2)."

(* ----- E7: the stack corruption experiment ----- *)

let run_stack ~domains ~ops () =
  section "E7 - Index-based Treiber stack under node reuse (runtime)";
  let capacity = 8 in
  let variants =
    [
      ("naive (no tag)", Aba_runtime.Rt_treiber.Tag_bits 0);
      ("tag 1 bit", Aba_runtime.Rt_treiber.Tag_bits 1);
      ("tag 8 bits", Aba_runtime.Rt_treiber.Tag_bits 8);
      ("tag 40 bits", Aba_runtime.Rt_treiber.Tag_bits 40);
      ("llsc (fig3)", Aba_runtime.Rt_treiber.Llsc);
    ]
  in
  Printf.printf "domains=%d ops/domain=%d pool=%d (1 core machines rarely \
                 interleave:\nthe deterministic simulator demo below always \
                 exhibits the ABA)\n"
    domains ops capacity;
  List.iter
    (fun (label, protection) ->
      let stack =
        Aba_runtime.Rt_treiber.create ~protection ~capacity ~n:domains ()
      in
      let results =
        Aba_runtime.Harness.run_domains ~n:domains (fun d ->
            let pushed = ref [] and popped = ref [] in
            for i = 1 to ops do
              let v = (d * ops * 2) + i in
              if Aba_runtime.Rt_treiber.push stack ~pid:d v then
                pushed := v :: !pushed;
              match Aba_runtime.Rt_treiber.pop stack ~pid:d with
              | Some v -> popped := v :: !popped
              | None -> ()
            done;
            (!pushed, !popped))
      in
      let pushed = List.concat_map fst (Array.to_list results) in
      let popped = List.concat_map snd (Array.to_list results) in
      let remaining = ref [] in
      let rec drain () =
        match Aba_runtime.Rt_treiber.pop stack ~pid:0 with
        | Some v ->
            remaining := v :: !remaining;
            drain ()
        | None -> ()
      in
      drain ();
      match
        Aba_runtime.Rt_treiber.check_multiset ~pushed ~popped
          ~remaining:!remaining
      with
      | Result.Ok () ->
          Printf.printf "  %-16s OK (%d pushed, %d popped)\n" label
            (List.length pushed) (List.length popped)
      | Result.Error msg -> Printf.printf "  %-16s CORRUPTED: %s\n" label msg)
    variants;
  (* Deterministic demonstration in the simulator. *)
  print_endline "Simulator (deterministic directed ABA schedule):";
  let demo protection label =
    let sim = Aba_sim.Sim.create ~n:2 in
    let module M = (val Aba_sim.Sim_mem.make sim) in
    let module S = Aba_apps.Treiber_stack.Make (M) in
    let module Check = Aba_spec.Lin_check.Make (Aba_spec.Stack_spec) in
    let stack = S.create ~protection ~capacity:2 ~n:2 ~initial:[ 1; 2 ] in
    let apply p op () =
      match op with
      | Aba_spec.Stack_spec.Push v ->
          ignore (S.push stack ~pid:p v);
          Aba_spec.Stack_spec.Push_done
      | Aba_spec.Stack_spec.Pop ->
          Aba_spec.Stack_spec.Popped (S.pop stack ~pid:p)
    in
    let d = Aba_sim.Driver.create ~sim ~apply in
    Aba_sim.Driver.invoke d 0 Aba_spec.Stack_spec.Pop;
    Aba_sim.Driver.step d 0;
    Aba_sim.Driver.step d 0;
    List.iter
      (fun op ->
        Aba_sim.Driver.invoke d 1 op;
        Aba_sim.Driver.finish d 1)
      [
        Aba_spec.Stack_spec.Pop;
        Aba_spec.Stack_spec.Pop;
        Aba_spec.Stack_spec.Push 9;
      ];
    (* The stale CAS fires while the recycled node is head again; the final
       pop then re-delivers a long-popped value. *)
    Aba_sim.Driver.finish d 0;
    Aba_sim.Driver.invoke d 1 Aba_spec.Stack_spec.Pop;
    Aba_sim.Driver.finish d 1;
    let prefix =
      [
        Aba_primitives.Event.Invoke (0, Aba_spec.Stack_spec.Push 2);
        Aba_primitives.Event.Response (0, Aba_spec.Stack_spec.Push_done);
        Aba_primitives.Event.Invoke (0, Aba_spec.Stack_spec.Push 1);
        Aba_primitives.Event.Response (0, Aba_spec.Stack_spec.Push_done);
      ]
    in
    let ok = Check.check_ok ~n:2 (prefix @ Aba_sim.Driver.history d) in
    Printf.printf "  %-16s %s\n" label
      (if ok then "linearizable" else "CORRUPTED (non-linearizable history)")
  in
  demo Aba_apps.Treiber_stack.Naive "naive";
  demo Aba_apps.Treiber_stack.Tagged_unbounded "tagged-unbounded";
  demo (Aba_apps.Treiber_stack.Llsc Instances.llsc_fig3) "llsc (fig3)";
  print_endline
    "Paper (introduction): CAS-based structures with memory reuse corrupt\n\
     on ABA; LL/SC or unbounded tagging prevents it."


(* ----- E11: safe memory reclamation under churn ----- *)

(* The churn workload runs every structure at its capacity ceiling, so
   each scheme's grace period is what bounds how many nodes sit retired
   but unreusable: the paper's time-space tradeoff, measured as
   throughput vs peak limbo occupancy. *)
let run_reclaim ?(capacity = 32) ~domains ~ops () =
  section "E11 - Safe memory reclamation: time vs space under churn";
  Printf.printf
    "domains=%d ops/domain=%d capacity=%d (structures run at their\n\
     capacity ceiling, so every operation recycles nodes)\n"
    domains ops capacity;
  Printf.printf "%-10s %-8s %12s %9s %10s %11s %7s\n" "structure" "scheme"
    "ops/s" "retired" "reclaimed" "peak-limbo" "audit";
  let measure structure ~push ~pop ~finish ~stats_of =
    List.iter
      (fun scheme ->
        let t, churn_of = stats_of scheme in
        (* Monotonic: NTP slew on the wall clock corrupts throughput. *)
        let t0 = Aba_obs.Clock.now_ns () in
        let report =
          Aba_runtime.Harness.churn ~n:domains ~ops ~push:(push t)
            ~pop:(pop t) ~finish:(finish t) ()
        in
        let dt = Aba_obs.Clock.elapsed_s t0 in
        let stats : Aba_runtime.Rt_reclaim.stats = churn_of t in
        Printf.printf "%-10s %-8s %12.0f %9d %10d %11d %7s\n" structure
          (Aba_runtime.Rt_reclaim.scheme_name scheme)
          (float_of_int
             (report.Aba_runtime.Harness.pushed
             + report.Aba_runtime.Harness.popped)
          /. dt)
          stats.Aba_runtime.Rt_reclaim.retired
          stats.Aba_runtime.Rt_reclaim.reclaimed
          stats.Aba_runtime.Rt_reclaim.peak_in_limbo
          (if Result.is_ok report.Aba_runtime.Harness.outcome then "OK"
           else "CORRUPT"))
      Aba_runtime.Rt_reclaim.all_schemes
  in
  let release_and_flush rc ~pid =
    Aba_runtime.Rt_reclaim.release rc ~pid;
    Aba_runtime.Rt_reclaim.flush rc ~pid
  in
  measure "treiber"
    ~push:(fun s ~pid v -> Aba_runtime.Rt_treiber.push s ~pid v)
    ~pop:(fun s ~pid -> Aba_runtime.Rt_treiber.pop s ~pid)
    ~finish:(fun s ~pid ->
      match Aba_runtime.Rt_treiber.reclaimer s with
      | Some rc -> release_and_flush rc ~pid
      | None -> ())
    ~stats_of:(fun scheme ->
      let s =
        Aba_runtime.Rt_treiber.create
          ~protection:(Aba_runtime.Rt_treiber.Reclaimed scheme)
          ~capacity ~n:domains ()
      in
      (s, fun s -> Option.get (Aba_runtime.Rt_treiber.reclaim_stats s)));
  measure "ms-queue"
    ~push:(fun q ~pid v -> Aba_runtime.Rt_ms_queue.enqueue q ~pid v)
    ~pop:(fun q ~pid -> Aba_runtime.Rt_ms_queue.dequeue q ~pid)
    ~finish:(fun q ~pid ->
      match Aba_runtime.Rt_ms_queue.reclaimer q with
      | Some rc -> release_and_flush rc ~pid
      | None -> ())
    ~stats_of:(fun scheme ->
      let q =
        Aba_runtime.Rt_ms_queue.create
          ~protection:(Aba_runtime.Rt_ms_queue.Reclaimed scheme)
          ~capacity ~n:domains ()
      in
      (q, fun q -> Option.get (Aba_runtime.Rt_ms_queue.reclaim_stats q)));
  print_endline
    "Paper: hazard = plain-word baseline; epoch = cheap pins, space held\n\
     hostage by stragglers; guarded = protection through figure-4\n\
     registers and a figure-3 LL/SC free stack (Theorems 2+3) - bounded\n\
     base objects bought with extra steps per protection."

(* ----- E9: exhaustive exploration summary ----- *)

module Aba_check = Aba_spec.Lin_check.Make (Aba_spec.Aba_register_spec)
module Llsc_check = Aba_spec.Lin_check.Make (Aba_spec.Llsc_spec)

let explore_outcome_to_string = function
  | Aba_sim.Explore.Ok k -> Printf.sprintf "verified (%d schedules)" k
  | Aba_sim.Explore.Violation (sched, _) ->
      Printf.sprintf "VIOLATION under schedule %s"
        (String.concat "," (List.map string_of_int sched))
  | Aba_sim.Explore.Budget_exhausted k ->
      Printf.sprintf "budget exhausted after %d schedules" k

let run_explore () =
  section "E9 - Exhaustive schedule exploration (all interleavings)";
  let aba_workloads =
    [
      ( "w/r same-value",
        [|
          [ Aba_spec.Aba_register_spec.DWrite 1;
            Aba_spec.Aba_register_spec.DWrite 1 ];
          [ Aba_spec.Aba_register_spec.DRead; Aba_spec.Aba_register_spec.DRead ];
        |] );
      ( "two writers",
        [|
          [ Aba_spec.Aba_register_spec.DWrite 1 ];
          [ Aba_spec.Aba_register_spec.DRead; Aba_spec.Aba_register_spec.DRead ];
          [ Aba_spec.Aba_register_spec.DWrite 1 ];
        |] );
    ]
  in
  print_endline "ABA-detecting registers:";
  List.iter
    (fun (label, builder) ->
      List.iter
        (fun (wname, scripts) ->
          let n = Array.length scripts in
          let outcome =
            Aba_sim.Explore.exhaustive
              ~make:(Workloads.aba_explore_instance builder ~n)
              ~scripts
              ~check:(Aba_check.check_ok ~n)
              ~max_schedules:2_000_000 ()
          in
          Printf.printf "  %-11s %-16s %s\n" label wname
            (explore_outcome_to_string outcome))
        aba_workloads)
    (Aba_core.Instances.all_aba ()
    @ [ ("tag-mod-2", Aba_core.Instances.aba_bounded_tag ~tag_bound:2) ]);
  (* Tag wraparound needs enough same-value writes to cycle the tag; keep
     this workload to the step-cheap implementations. *)
  let wrap_scripts =
    [|
      [
        Aba_spec.Aba_register_spec.DWrite 1;
        Aba_spec.Aba_register_spec.DWrite 1;
        Aba_spec.Aba_register_spec.DWrite 1;
      ];
      [ Aba_spec.Aba_register_spec.DRead; Aba_spec.Aba_register_spec.DRead ];
    |]
  in
  List.iter
    (fun (label, builder) ->
      let outcome =
        Aba_sim.Explore.exhaustive
          ~make:(Workloads.aba_explore_instance builder ~n:2)
          ~scripts:wrap_scripts
          ~check:(Aba_check.check_ok ~n:2)
          ~max_schedules:2_000_000 ()
      in
      Printf.printf "  %-11s %-16s %s\n" label "wraparound"
        (explore_outcome_to_string outcome))
    [
      ("unbounded", Aba_core.Instances.aba_unbounded);
      ("fig4", Aba_core.Instances.aba_fig4);
      ("fig5", Aba_core.Instances.aba_fig5);
      ("tag-mod-2", Aba_core.Instances.aba_bounded_tag ~tag_bound:2);
      ("tag-mod-3", Aba_core.Instances.aba_bounded_tag ~tag_bound:3);
    ];
  let llsc_workloads =
    [
      ( "contention",
        [|
          [ Aba_spec.Llsc_spec.Ll; Aba_spec.Llsc_spec.Sc 1 ];
          [ Aba_spec.Llsc_spec.Ll; Aba_spec.Llsc_spec.Sc 2;
            Aba_spec.Llsc_spec.Vl ];
        |] );
    ]
  in
  print_endline "LL/SC/VL objects:";
  List.iter
    (fun (label, builder) ->
      List.iter
        (fun (wname, scripts) ->
          let n = Array.length scripts in
          let outcome =
            Aba_sim.Explore.exhaustive
              ~make:(Workloads.llsc_explore_instance builder ~n)
              ~scripts
              ~check:(Llsc_check.check_ok ~n)
              ~max_schedules:2_000_000 ()
          in
          Printf.printf "  %-11s %-16s %s\n" label wname
            (explore_outcome_to_string outcome))
        llsc_workloads)
    (Aba_core.Instances.all_llsc ());
  print_endline
    "Paper: correctness is claimed for all schedules; at these sizes the\n\
     claim is machine-verified, and the flawed tag register is refuted."

(* ----- Ablations: the design choices the proofs rely on ----- *)

let run_ablation () =
  section "Ablation - figure 3's retry bound (Claim 6 needs n)";
  let scripts =
    [|
      [ Aba_spec.Llsc_spec.Ll; Aba_spec.Llsc_spec.Sc 1 ];
      [ Aba_spec.Llsc_spec.Ll; Aba_spec.Llsc_spec.Sc 1 ];
      [ Aba_spec.Llsc_spec.Sc 2 ];
    |]
  in
  let n = Array.length scripts in
  List.iter
    (fun r ->
      let builder =
        if r = n then Aba_core.Instances.llsc_fig3
        else Aba_core.Instances.llsc_fig3_retries ~retries:(fun ~n:_ -> r)
      in
      let outcome =
        Aba_sim.Explore.exhaustive
          ~make:(Workloads.llsc_explore_instance builder ~n)
          ~scripts
          ~check:(Llsc_check.check_ok ~n)
          ~max_schedules:2_000_000 ()
      in
      Printf.printf "  retries=%d (paper: %d): %s\n" r n
        (explore_outcome_to_string outcome))
    [ n; n - 1; 1; 0 ];
  section "Ablation - figure 4's sequence domain ({0..2n+1} is needed)";
  let n = 3 in
  List.iter
    (fun slack ->
      let builder =
        if slack = 0 then Aba_core.Instances.aba_fig4
        else Aba_core.Instances.aba_fig4_shrunk ~slack
      in
      let outcome =
        (* A long same-value write/read run cycles the GetSeq pool; with a
           shrunk domain it must eventually exhaust or miss a write. *)
        try
          let inst = Aba_core.Instances.aba_seq builder ~n in
          let verdict = ref "clean (200 rounds)" in
          (try
             for round = 1 to 200 do
               inst.Aba_core.Instances.dwrite 0 1;
               let _, f1 = inst.Aba_core.Instances.dread 1 in
               if not f1 then begin
                 verdict := Printf.sprintf "MISSED WRITE at round %d" round;
                 raise Exit
               end;
               let _, f2 = inst.Aba_core.Instances.dread 1 in
               if f2 then begin
                 verdict := Printf.sprintf "SPURIOUS FLAG at round %d" round;
                 raise Exit
               end
             done
           with Exit -> ());
          !verdict
        with Aba_core.Seq_pool.Exhausted -> "POOL EXHAUSTED"
      in
      Printf.printf "  seq ceiling = 2n+1-%d: %s\n" slack outcome)
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]

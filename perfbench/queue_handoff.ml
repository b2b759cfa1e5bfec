(* Workload [queue-handoff]: a closed loop on two domains.  Pid 0
   enqueues 1..N into an [Rt_ms_queue] under [Reclaimed Guarded]; pid 1
   dequeues until it has N items and must see exactly 1..N in order.
   Every node crosses domains, so the paper-built reclaimer (Figure 3
   free stack, Figure 4 announcements) does most of the work. *)

open Util
module Q = Aba_runtime.Rt_ms_queue
module Obs = Aba_obs.Obs

let round = 1 lsl 14

(* Room for a whole round: a refused enqueue counts as a failure, and no
   round can run the pool dry once the previous round's nodes have been
   flushed back. *)
let capacity = round + 64

type state = {
  q : Q.t;
  got : int array;
  enq : int array;  (** enqueue call durations *)
  deq : int array;  (** successful dequeue call durations *)
  deq_scan : bool array;  (** traced pass: the dequeue's retire reclaimed *)
  mutable empties : int;
  mutable refused : int;
}

let make ?obs () =
  let q = Q.create ?obs ~protection:(Q.Reclaimed Aba_runtime.Rt_reclaim.Guarded) ~capacity ~n:2 () in
  let a () = Array.make round 0 in
  { q; got = a (); enq = a (); deq = a (); deq_scan = Array.make round false;
    empties = 0; refused = 0 }

(* Release and flush both pids so the next round starts with every node
   back in the free pool. *)
let settle st =
  match Q.reclaimer st.q with
  | None -> ()
  | Some r ->
      for pid = 0 to 1 do
        Aba_runtime.Rt_reclaim.release r ~pid;
        Aba_runtime.Rt_reclaim.flush r ~pid
      done

type round_result = { secs : float; words : float; failed : int }

(* One round; [traced] also classifies each dequeue by whether the
   reclaimer reclaimed nodes during it (its retire ran a scan). *)
let run_round ?(traced = false) st =
  (* Start from a collected heap, as in the other workloads' windows. *)
  Gc.full_major ();
  st.empties <- 0;
  st.refused <- 0;
  let reclaimed () =
    match Q.reclaim_stats st.q with Some s -> s.reclaimed | None -> 0
  in
  let res =
    Aba_runtime.Harness.run_domains ~n:2 (fun pid ->
        let w0 = Gc.minor_words () in
        let t0 = now () in
        if pid = 0 then
          for v = 1 to round do
            let s = now () in
            while not (Q.enqueue st.q ~pid:0 v) do
              st.refused <- st.refused + 1
            done;
            st.enq.(v - 1) <- now () - s
          done
        else begin
          let k = ref 0 in
          while !k < round do
            let r0 = if traced then reclaimed () else 0 in
            let s = now () in
            match Q.dequeue st.q ~pid:1 with
            | Some v ->
                st.deq.(!k) <- now () - s;
                st.got.(!k) <- v;
                if traced then st.deq_scan.(!k) <- reclaimed () > r0;
                incr k
            | None -> st.empties <- st.empties + 1
          done
        end;
        (t0, now (), Gc.minor_words () -. w0))
  in
  let (s0, e0, w0), (s1, e1, w1) = (res.(0), res.(1)) in
  let misordered = ref 0 in
  Array.iteri (fun i v -> if v <> i + 1 then incr misordered) st.got;
  if !misordered > 0 then
    Printf.printf "  HANDOFF FAILED: %d of %d items out of order\n" !misordered round;
  settle st;
  {
    secs = float_of_int (max e0 e1 - min s0 s1) /. 1e9;
    words = (w0 +. w1) /. float_of_int round;
    failed = !misordered + st.refused;
  }

let setup () = make ()

let e2e ~seed:_ ~seconds m =
  let st = ref (first_setup setup) in
  let warm = run_round !st in
  let attempted = ref round and failed = ref warm.failed in
  let rounds = ref [] and lats = ref [] and last = ref [||] in
  let deadline = now () + int_of_float (seconds *. 1e9) in
  while !rounds = [] || now () < deadline do
    let r = run_round !st in
    rounds := r :: !rounds;
    attempted := !attempted + round;
    failed := !failed + r.failed;
    (* Latency is the consumer's take: one successful dequeue call, retire
       of the old dummy included.  The p99 is over both sides' calls. *)
    let deq = sorted_prefix !st.deq round in
    let calls = Array.append !st.enq !st.deq in
    sort_ints calls;
    last := deq;
    lats := (rank deq 0.5, rank deq 0.9, rank calls 0.99) :: !lats;
    (* Each round runs on a freshly set-up queue, so no single heap layout
       of its padded words decides the whole run. *)
    st := timed_setup setup
  done;
  let medi f = interquartile_mean (List.map (fun x -> float_of_int (f x)) !lats) in
  Printf.printf "queue-handoff: %d rounds of %d items\n" (List.length !rounds) round;
  print_percentiles "last round dequeue calls" !last;
  add m "lat_p50_ns" "ns" (medi (fun (a, _, _) -> a));
  add m "lat_p90_ns" "ns" (medi (fun (_, b, _) -> b));
  add m "op_p99_ns" "ns" (medi (fun (_, _, c) -> c));
  add m "ops_per_s" "ops/s"
    (interquartile_mean (List.map (fun r -> float_of_int round /. r.secs) !rounds));
  add m "alloc_words_per_op" "words" (interquartile_mean (List.map (fun r -> r.words) !rounds));
  add m "setup_s" "s" (setup_s ());
  (!attempted, !failed)

let traced ~seed:_ ~seconds =
  let base = make () in
  let warm = run_round base in
  let attempted = ref round and failed = ref warm.failed in
  let measure st ~traced share =
    let rates = ref [] in
    let deadline = now () + int_of_float (seconds *. share *. 1e9) in
    let per_round = ref [] in
    while !rates = [] || now () < deadline do
      let r = run_round ~traced st in
      attempted := !attempted + round;
      failed := !failed + r.failed;
      rates := (float_of_int round /. r.secs) :: !rates;
      if traced then begin
        let e = sorted_prefix st.enq round and d = sorted_prefix st.deq round in
        let scans = ref [] in
        Array.iteri (fun i b -> if b then scans := st.deq.(i) :: !scans) st.deq_scan;
        let sc = Array.of_list !scans in
        sort_ints sc;
        per_round :=
          (rank e 0.99, rank d 0.99, rank sc 0.99, st.empties, st.refused)
          :: !per_round
      end
    done;
    (interquartile_mean !rates, !per_round)
  in
  let base_rate, _ = measure base ~traced:false 0.3 in
  let obs = Obs.create ~n:2 () in
  let st = make ~obs () in
  let rate, rounds = measure st ~traced:true 0.7 in
  let nr = List.length rounds in
  let medi f = interquartile_mean (List.map (fun x -> float_of_int (f x)) rounds) in
  let sum f = List.fold_left (fun acc x -> acc + f x) 0 rounds in
  let enq_ops = Obs.op_count obs Obs.Enqueue and deq_ops = Obs.op_count obs Obs.Dequeue in
  let retries = Obs.retry_count obs Obs.Enqueue + Obs.retry_count obs Obs.Dequeue in
  let items = nr * round in
  let empties = sum (fun (_, _, _, e, _) -> e) in
  let refused = sum (fun (_, _, _, _, r) -> r) in
  let stats = Option.get (Q.reclaim_stats st.q) in
  Printf.printf "queue-handoff traced: %d rounds, %.0f items/s traced vs %.0f untraced\n"
    nr rate base_rate;
  let layer =
    [
      ("rt_ms_queue.enq_p99_ns", medi (fun (a, _, _, _, _) -> a), "ns");
      ("rt_ms_queue.deq_p99_ns", medi (fun (_, b, _, _, _) -> b), "ns");
      ("rt_ms_queue.retries_per_op",
        float_of_int retries /. float_of_int (max 1 (enq_ops + deq_ops)), "count");
      ("rt_ms_queue.empty_frac",
        float_of_int empties /. float_of_int (items + empties), "ratio");
      ("rt_ms_queue.full_frac",
        float_of_int refused /. float_of_int (items + refused), "ratio");
      ("rt_reclaim.retire_p99_ns", medi (fun (_, _, c, _, _) -> c), "ns");
      ("rt_reclaim.reclaimed_frac",
        float_of_int stats.reclaimed /. float_of_int (max 1 stats.retired), "ratio");
      ("rt_reclaim.peak_in_limbo", float_of_int stats.peak_in_limbo, "count");
    ]
  in
  (* The headline is throughput: overhead is how much slower it runs traced. *)
  (layer, (base_rate /. rate) -. 1., !attempted, !failed)

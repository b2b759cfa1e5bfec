(** Tests for the multicore (Atomic-based) runtime ports: sequential
    semantics, and domain-based stress tests with invariant audits.
    On a single-core host the stress tests still exercise atomicity via
    preemptive systhread scheduling, just with fewer real interleavings. *)

let domains_for_test = 4
let ops_per_domain = 5_000

(* --- LL/SC ports --- *)

(* Uniform closure view over the two ports, one fresh instance per call. *)
type llsc_inst = {
  ll : int -> int;
  sc : int -> int -> bool;
  vl : int -> bool;
}

let boxed_ops =
  ( "boxed",
    fun () ->
      let t = Aba_runtime.Rt_llsc.Boxed.create ~n:domains_for_test ~init:0 in
      {
        ll = (fun p -> Aba_runtime.Rt_llsc.Boxed.ll t ~pid:p);
        sc = (fun p v -> Aba_runtime.Rt_llsc.Boxed.sc t ~pid:p v);
        vl = (fun p -> Aba_runtime.Rt_llsc.Boxed.vl t ~pid:p);
      } )

let packed_ops =
  ( "packed-fig3",
    fun () ->
      let t =
        Aba_runtime.Rt_llsc.Packed_fig3.create ~n:domains_for_test ~init:0 ()
      in
      {
        ll = (fun p -> Aba_runtime.Rt_llsc.Packed_fig3.ll t ~pid:p);
        sc = (fun p v -> Aba_runtime.Rt_llsc.Packed_fig3.sc t ~pid:p v);
        vl = (fun p -> Aba_runtime.Rt_llsc.Packed_fig3.vl t ~pid:p);
      } )

let llsc_sequential (label, mk) =
  let test () =
    let i = mk () in
    Alcotest.(check int) "initial" 0 (i.ll 1);
    Alcotest.(check bool) "fresh vl" true (i.vl 1);
    Alcotest.(check bool) "sc succeeds" true (i.sc 1 42);
    Alcotest.(check int) "new value" 42 (i.ll 2);
    Alcotest.(check bool) "own link consumed" false (i.vl 1);
    Alcotest.(check bool) "repeat sc fails" false (i.sc 1 43);
    ignore (i.ll 1);
    Alcotest.(check bool) "sc after re-ll" true (i.sc 1 44);
    Alcotest.(check int) "readback" 44 (i.ll 0)
  in
  Alcotest.test_case (label ^ " sequential") `Quick test

let llsc_interference (label, mk) =
  let test () =
    let i = mk () in
    ignore (i.ll 1);
    ignore (i.ll 2);
    Alcotest.(check bool) "p1 wins" true (i.sc 1 7);
    Alcotest.(check bool) "p2 loses" false (i.sc 2 8);
    Alcotest.(check int) "p1's value stands" 7 (i.ll 0)
  in
  Alcotest.test_case (label ^ " interference") `Quick test

(* A shared counter via LL/SC retry loops: no increment may be lost. *)
let llsc_counter (label, mk) =
  let test () =
    let i = mk () in
    let increments = ops_per_domain in
    let _ =
      Aba_runtime.Harness.run_domains ~n:domains_for_test (fun d ->
          for _ = 1 to increments do
            let rec retry () =
              let v = i.ll d in
              if not (i.sc d (v + 1)) then retry ()
            in
            retry ()
          done)
    in
    Alcotest.(check int) "no lost increments"
      (domains_for_test * increments)
      (i.ll 0)
  in
  Alcotest.test_case (label ^ " multicore counter") `Quick test

(* Figure 3's SC can fail spuriously-looking (flag b poisoned) only after a
   real intervening SC, so the counter above must still terminate: the
   retry re-LLs.  The packed port bounds values; check the guards. *)
let packed_bounds () =
  (* Assert on the validation behaviour (exception type), not on exact
     message strings, which are an implementation detail. *)
  let rejects what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  in
  rejects "n too large" (fun () ->
      Aba_runtime.Rt_llsc.Packed_fig3.create ~n:41 ~init:0 ());
  rejects "init out of range" (fun () ->
      Aba_runtime.Rt_llsc.Packed_fig3.create ~n:40 ~init:(1 lsl 23) ());
  (* The boundary cases must be accepted. *)
  ignore (Aba_runtime.Rt_llsc.Packed_fig3.create ~n:40 ~init:((1 lsl 22) - 1) ());
  ignore (Aba_runtime.Rt_llsc.Packed_fig3.create ~n:1 ~init:0 ())

(* --- ABA-detecting register ports --- *)

type aba_inst = { dread : int -> int * bool; dwrite : int -> int -> unit }

let rt_aba_sequential (label, mk) =
  let test () =
    let (t : aba_inst) = mk () in
    let v, f = t.dread 1 in
    Alcotest.(check int) "initial" 0 v;
    Alcotest.(check bool) "quiet" false f;
    t.dwrite 0 7;
    let v, f = t.dread 1 in
    Alcotest.(check int) "value" 7 v;
    Alcotest.(check bool) "detected" true f;
    let _, f = t.dread 1 in
    Alcotest.(check bool) "quiet again" false f;
    t.dwrite 0 7;
    let v, f = t.dread 1 in
    Alcotest.(check int) "same value" 7 v;
    Alcotest.(check bool) "ABA detected" true f
  in
  Alcotest.test_case (label ^ " sequential") `Quick test

(* Phased writer/reader ping-pong: in each round the writer performs a
   burst of same-value writes strictly before the reader's poll (turn
   tokens order them), so the poll MUST report a write; a second poll with
   no writes in between must stay quiet.  This is the runtime counterpart
   of the weak-condition checks — sound because the phases never overlap. *)
let rt_aba_no_missed_writes (label, mk) =
  let test () =
    let (t : aba_inst) = mk () in
    let rounds = 2_000 in
    let turn = Atomic.make 0 (* 0 = writer's turn, 1 = reader's *) in
    let missed = Atomic.make 0 in
    let spurious = Atomic.make 0 in
    let _ =
      Aba_runtime.Harness.run_domains ~n:2 (fun d ->
          if d = 0 then
            for _ = 1 to rounds do
              while Atomic.get turn <> 0 do
                Domain.cpu_relax ()
              done;
              (* A same-value burst: tag wraparound territory. *)
              for _ = 1 to 3 do
                t.dwrite 0 1
              done;
              Atomic.set turn 1
            done
          else
            for _ = 1 to rounds do
              while Atomic.get turn <> 1 do
                Domain.cpu_relax ()
              done;
              let _, flag = t.dread 1 in
              if not flag then Atomic.incr missed;
              let _, flag = t.dread 1 in
              if flag then Atomic.incr spurious;
              Atomic.set turn 0
            done)
    in
    Alcotest.(check int) (label ^ ": missed bursts") 0 (Atomic.get missed);
    Alcotest.(check int) (label ^ ": spurious flags") 0 (Atomic.get spurious)
  in
  Alcotest.test_case (label ^ " phased no-miss (2 domains)") `Quick test

let stamped_ops =
  ( "stamped",
    fun () ->
      let t = Aba_runtime.Rt_aba.Stamped.create ~n:domains_for_test 0 in
      {
        dread = (fun p -> Aba_runtime.Rt_aba.Stamped.dread t ~pid:p);
        dwrite = (fun p v -> Aba_runtime.Rt_aba.Stamped.dwrite t ~pid:p v);
      } )

let fig4_ops =
  ( "fig4",
    fun () ->
      let t = Aba_runtime.Rt_aba.Fig4.create ~n:domains_for_test 0 in
      {
        dread = (fun p -> Aba_runtime.Rt_aba.Fig4.dread t ~pid:p);
        dwrite = (fun p v -> Aba_runtime.Rt_aba.Fig4.dwrite t ~pid:p v);
      } )

let from_llsc_ops =
  ( "thm2",
    fun () ->
      let t = Aba_runtime.Rt_aba.From_llsc.create ~n:domains_for_test ~init:0 () in
      {
        dread = (fun p -> Aba_runtime.Rt_aba.From_llsc.dread t ~pid:p);
        dwrite = (fun p v -> Aba_runtime.Rt_aba.From_llsc.dwrite t ~pid:p v);
      } )

(* --- Treiber stack port --- *)

let rt_treiber_sequential () =
  let s =
    Aba_runtime.Rt_treiber.create ~protection:(Tag_bits 16) ~capacity:4 ~n:2 ()
  in
  Alcotest.(check (option int)) "empty" None (Aba_runtime.Rt_treiber.pop s ~pid:0);
  Alcotest.(check bool) "push" true (Aba_runtime.Rt_treiber.push s ~pid:0 1);
  Alcotest.(check bool) "push" true (Aba_runtime.Rt_treiber.push s ~pid:1 2);
  Alcotest.(check (option int)) "LIFO" (Some 2)
    (Aba_runtime.Rt_treiber.pop s ~pid:0);
  Alcotest.(check (option int)) "LIFO" (Some 1)
    (Aba_runtime.Rt_treiber.pop s ~pid:1);
  for i = 1 to 4 do
    Alcotest.(check bool) "fill" true (Aba_runtime.Rt_treiber.push s ~pid:0 i)
  done;
  Alcotest.(check bool) "exhausted" false
    (Aba_runtime.Rt_treiber.push s ~pid:0 9)

(* Crossing scans are amortised.  Only the [Announced k] protections
   scan, and only on an install whose witness sits on the last tag of a
   half (2^(k-1) tags): the install that makes the crossing, at most
   [n - 1] racing installs that lose it, and — while a stalled reader's
   announcement blocks it — one retry per failed scan, each recording a
   skip of a whole half.  A lap of a half costs [half] installs less the
   tags its crossing skipped, so on [words] guarded words
     scans <= n * ((installs + skipped) / half + 2 * words)
              + skipped / half
   where [skipped] is the summed [retries] of the [Scan] events.  A scan
   per operation would exceed this by orders of magnitude.  [half] is
   [None] for a protection that must never scan. *)
let check_scans obs ~half ~words ~installs =
  let module Obs = Aba_obs.Obs in
  let scans = Obs.op_count obs Obs.Scan in
  match half with
  | None -> Alcotest.(check int) "no scan events" 0 scans
  | Some half ->
      let skipped = Obs.retry_count obs Obs.Scan in
      let bound =
        (domains_for_test * (((installs + skipped) / half) + (2 * words)))
        + (skipped / half)
      in
      if scans > bound then
        Alcotest.failf "%d scans for %d installs (%d tags skipped), bound %d"
          scans installs skipped bound

let scan_half_treiber = function
  | Aba_runtime.Rt_treiber.Announced k -> Some (1 lsl (k - 1))
  | Tag_bits _ | Llsc | Reclaimed _ -> None

let scan_half_msqueue = function
  | Aba_runtime.Rt_ms_queue.Announced k -> Some (1 lsl (k - 1))
  | Tag_bits _ | Reclaimed _ -> None

let rt_treiber_stress protection label =
  let test () =
    let obs = Aba_obs.Obs.create ~trace:0 ~n:domains_for_test () in
    let s =
      Aba_runtime.Rt_treiber.create ~obs ~protection ~capacity:64
        ~n:domains_for_test ()
    in
    let results =
      Aba_runtime.Harness.run_domains ~n:domains_for_test (fun d ->
          let pushed = ref [] and popped = ref [] in
          for i = 1 to ops_per_domain do
            let v = (d * ops_per_domain * 2) + i in
            if Aba_runtime.Rt_treiber.push s ~pid:d v then
              pushed := v :: !pushed;
            match Aba_runtime.Rt_treiber.pop s ~pid:d with
            | Some v -> popped := v :: !popped
            | None -> ()
          done;
          (!pushed, !popped))
    in
    let pushed = List.concat_map fst (Array.to_list results) in
    let popped = List.concat_map snd (Array.to_list results) in
    let remaining = ref [] in
    let rec drain () =
      match Aba_runtime.Rt_treiber.pop s ~pid:0 with
      | Some v ->
          remaining := v :: !remaining;
          drain ()
      | None -> ()
    in
    drain ();
    (match
       Aba_runtime.Rt_treiber.check_multiset ~pushed ~popped
         ~remaining:!remaining
     with
    | Result.Ok () -> ()
    | Result.Error msg -> Alcotest.failf "%s corrupted: %s" label msg);
    check_scans obs ~half:(scan_half_treiber protection) ~words:1
      ~installs:(List.length pushed + List.length popped
                + List.length !remaining)
  in
  Alcotest.test_case (label ^ " stress multiset audit") `Quick test

(* --- Michael–Scott queue port --- *)

let rt_msqueue_sequential protection () =
  let q =
    Aba_runtime.Rt_ms_queue.create ~protection ~capacity:4 ~n:2 ()
  in
  let enqueue v = Aba_runtime.Rt_ms_queue.enqueue q ~pid:0 v in
  let dequeue () = Aba_runtime.Rt_ms_queue.dequeue q ~pid:1 in
  Alcotest.(check (option int)) "empty" None (dequeue ());
  Alcotest.(check bool) "enq 1" true (enqueue 1);
  Alcotest.(check bool) "enq 2" true (enqueue 2);
  Alcotest.(check bool) "enq 3" true (enqueue 3);
  Alcotest.(check (option int)) "FIFO 1" (Some 1) (dequeue ());
  Alcotest.(check (option int)) "FIFO 2" (Some 2) (dequeue ());
  Alcotest.(check bool) "enq 4" true (enqueue 4);
  Alcotest.(check (option int)) "FIFO 3" (Some 3) (dequeue ());
  Alcotest.(check (option int)) "FIFO 4" (Some 4) (dequeue ());
  Alcotest.(check (option int)) "empty again" None (dequeue ());
  (* Exhaustion and recycling through the free list.  Reclaimed
     variants park retired dummies in limbo, so give them their grace
     period back before expecting free nodes. *)
  let flush () =
    match Aba_runtime.Rt_ms_queue.reclaimer q with
    | None -> ()
    | Some rc ->
        for p = 0 to 1 do
          Aba_runtime.Rt_reclaim.release rc ~pid:p;
          Aba_runtime.Rt_reclaim.flush rc ~pid:p
        done
  in
  flush ();
  for i = 1 to 4 do
    Alcotest.(check bool) "fill" true (enqueue i)
  done;
  Alcotest.(check bool) "exhausted" false (enqueue 9);
  Alcotest.(check (option int)) "drain head" (Some 1) (dequeue ());
  flush ();
  Alcotest.(check bool) "slot recycled" true (enqueue 100)

let rt_msqueue_stress protection () =
  let obs = Aba_obs.Obs.create ~trace:0 ~n:domains_for_test () in
  let q =
    Aba_runtime.Rt_ms_queue.create ~obs ~protection ~capacity:64
      ~n:domains_for_test ()
  in
  let results =
    Aba_runtime.Harness.run_domains ~n:domains_for_test (fun d ->
        let enqueued = ref [] and dequeued = ref [] in
        for i = 1 to ops_per_domain do
          let v = (d * ops_per_domain * 2) + i in
          if Aba_runtime.Rt_ms_queue.enqueue q ~pid:d v then
            enqueued := v :: !enqueued;
          match Aba_runtime.Rt_ms_queue.dequeue q ~pid:d with
          | Some v -> dequeued := v :: !dequeued
          | None -> ()
        done;
        (!enqueued, !dequeued))
  in
  let pushed = List.concat_map fst (Array.to_list results) in
  let popped = List.concat_map snd (Array.to_list results) in
  let remaining = ref [] in
  let rec drain () =
    match Aba_runtime.Rt_ms_queue.dequeue q ~pid:0 with
    | Some v ->
        remaining := v :: !remaining;
        drain ()
    | None -> ()
  in
  drain ();
  (match
     Aba_runtime.Rt_treiber.check_multiset ~pushed ~popped
       ~remaining:!remaining
   with
  | Result.Ok () -> ()
  | Result.Error msg -> Alcotest.failf "ms-queue corrupted: %s" msg);
  (* Head and tail are two guarded words: every enqueue swings the tail
     once, every dequeue moves the head once. *)
  check_scans obs ~half:(scan_half_msqueue protection) ~words:2
    ~installs:(List.length pushed + List.length popped
              + List.length !remaining)

let multiset_checker () =
  let check = Aba_runtime.Rt_treiber.check_multiset in
  Alcotest.(check bool) "balanced ok" true
    (Result.is_ok (check ~pushed:[ 1; 2; 3 ] ~popped:[ 2 ] ~remaining:[ 3; 1 ]));
  Alcotest.(check bool) "duplicate pop caught" true
    (Result.is_error
       (check ~pushed:[ 1; 2 ] ~popped:[ 1; 1 ] ~remaining:[ 2 ]));
  Alcotest.(check bool) "phantom value caught" true
    (Result.is_error (check ~pushed:[ 1 ] ~popped:[ 5 ] ~remaining:[]))

let llsc_variants = [ boxed_ops; packed_ops ]
let aba_variants = [ stamped_ops; fig4_ops; from_llsc_ops ]

let suite =
  List.concat
    [
      List.map llsc_sequential llsc_variants;
      List.map llsc_interference llsc_variants;
      List.map llsc_counter llsc_variants;
      [ Alcotest.test_case "packed-fig3 bounds" `Quick packed_bounds ];
      List.map rt_aba_sequential aba_variants;
      List.map rt_aba_no_missed_writes aba_variants;
      [
        Alcotest.test_case "rt-treiber sequential" `Quick
          rt_treiber_sequential;
        rt_treiber_stress (Aba_runtime.Rt_treiber.Tag_bits 16) "tag-16";
        rt_treiber_stress Aba_runtime.Rt_treiber.Llsc "llsc";
        Alcotest.test_case "rt-msqueue sequential FIFO (tagged)" `Quick
          (rt_msqueue_sequential (Aba_runtime.Rt_ms_queue.Tag_bits 16));
        Alcotest.test_case "rt-msqueue sequential FIFO (hazard)" `Quick
          (rt_msqueue_sequential
             (Aba_runtime.Rt_ms_queue.Reclaimed Aba_runtime.Rt_reclaim.Hazard));
        Alcotest.test_case "rt-msqueue stress multiset audit" `Quick
          (rt_msqueue_stress (Aba_runtime.Rt_ms_queue.Tag_bits 16));
        Alcotest.test_case "multiset checker" `Quick multiset_checker;
        rt_treiber_stress (Aba_runtime.Rt_treiber.Announced 8) "announced-8";
        Alcotest.test_case "rt-msqueue sequential FIFO (announced-8)" `Quick
          (rt_msqueue_sequential (Aba_runtime.Rt_ms_queue.Announced 8));
        Alcotest.test_case "rt-msqueue stress multiset audit (announced-8)"
          `Quick
          (rt_msqueue_stress (Aba_runtime.Rt_ms_queue.Announced 8));
      ];
    ]

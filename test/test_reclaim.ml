(** Tests for the reclamation subsystem ([lib/reclaim]) through its
    canonical runtime instance {!Aba_runtime.Rt_reclaim}.

    Every property is checked for all three schemes — [Hazard], [Epoch]
    and the paper-built [Guarded] — since they share one interface:

    - allocation is exhaustible and distinct up to capacity;
    - a node retired while another pid announces it is never reclaimed;
    - after [release] + [flush], every retired node is reclaimed and
      allocatable again;
    - [recycle] returns a node immediately (no grace period);
    - multi-domain churn on the Treiber stack and the MS queue forces
      cross-domain node reuse and must lose or duplicate nothing. *)

module R = Aba_runtime.Rt_reclaim
module H = Aba_runtime.Harness
module T = Aba_runtime.Rt_treiber
module Q = Aba_runtime.Rt_ms_queue

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* The GC-safe boxed stack backing the Hazard/Epoch free pools. *)
let boxed_pool () =
  let p = Aba_reclaim.Boxed_pool.create () in
  Alcotest.(check (option int)) "empty" None (Aba_reclaim.Boxed_pool.take p);
  Aba_reclaim.Boxed_pool.put p 1;
  Aba_reclaim.Boxed_pool.put p 2;
  Alcotest.(check (option int)) "LIFO 1" (Some 2) (Aba_reclaim.Boxed_pool.take p);
  Alcotest.(check (option int)) "LIFO 2" (Some 1) (Aba_reclaim.Boxed_pool.take p);
  Alcotest.(check (option int)) "drained" None (Aba_reclaim.Boxed_pool.take p)

let create_validation scheme () =
  let rejects label f =
    check_bool label true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  rejects "n = 0" (fun () -> R.create ~n:0 ~capacity:8 scheme);
  rejects "n < 0" (fun () -> R.create ~n:(-1) ~capacity:8 scheme);
  rejects "capacity = 0" (fun () -> R.create ~n:2 ~capacity:0 scheme);
  rejects "capacity < 0" (fun () -> R.create ~n:2 ~capacity:(-3) scheme);
  rejects "slots = 0" (fun () -> R.create ~slots:0 ~n:2 ~capacity:8 scheme);
  rejects "slots < 0" (fun () -> R.create ~slots:(-1) ~n:2 ~capacity:8 scheme)

let alloc_exhaust scheme () =
  let r = R.create ~n:2 ~capacity:8 scheme in
  check_int "capacity" 8 (R.capacity r);
  let seen = Array.make 8 false in
  for _ = 1 to 8 do
    match R.alloc r ~pid:0 with
    | None -> Alcotest.fail "alloc returned None before capacity"
    | Some i ->
        check_bool "index in range" true (i >= 0 && i < 8);
        check_bool "index distinct" false seen.(i);
        seen.(i) <- true
  done;
  Alcotest.(check (option int)) "exhausted" None (R.alloc r ~pid:0);
  R.recycle r ~pid:0 3;
  Alcotest.(check (option int))
    "recycle is immediate" (Some 3) (R.alloc r ~pid:1)

let protected_not_reclaimed scheme () =
  let r = R.create ~slots:1 ~n:2 ~capacity:4 scheme in
  let i =
    match R.alloc r ~pid:0 with Some i -> i | None -> Alcotest.fail "alloc"
  in
  (* pid 1 announces [i] before pid 0 retires it — the reclaimer must
     hold the node in limbo across any number of flushes. *)
  R.protect r ~pid:1 ~slot:0 i;
  R.retire r ~pid:0 i;
  for _ = 1 to 3 do
    R.flush r ~pid:0
  done;
  let s = R.stats r in
  check_int "retired" 1 s.R.retired;
  check_int "nothing reclaimed while protected" 0 s.R.reclaimed;
  check_int "node held in limbo" 1 s.R.in_limbo;
  R.release r ~pid:1;
  R.flush r ~pid:0;
  let s = R.stats r in
  check_int "reclaimed after release" 1 s.R.reclaimed;
  check_int "limbo empty" 0 s.R.in_limbo

let all_reclaimed_after_flush scheme () =
  let r = R.create ~n:2 ~capacity:16 scheme in
  let nodes = List.init 16 (fun _ -> Option.get (R.alloc r ~pid:0)) in
  List.iter (fun i -> R.retire r ~pid:0 i) nodes;
  R.release r ~pid:0;
  R.release r ~pid:1;
  R.flush r ~pid:0;
  R.flush r ~pid:1;
  let s = R.stats r in
  check_int "all retired" 16 s.R.retired;
  check_int "all reclaimed" 16 s.R.reclaimed;
  check_int "limbo empty" 0 s.R.in_limbo;
  check_bool "peak limbo bounded" true
    (s.R.peak_in_limbo >= 1 && s.R.peak_in_limbo <= 16);
  for _ = 1 to 16 do
    if R.alloc r ~pid:0 = None then Alcotest.fail "node lost after reclamation"
  done

(* Shared churn driver: [n] domains hammer a structure at its capacity
   ceiling so nodes are constantly retired and reused across domains,
   then the multiset audit looks for lost, duplicated or invented
   values — the signature of a reclamation (ABA) bug. *)
let churn_structure ~push ~pop ~reclaimer ~capacity () =
  let n = 4 and ops = 2_000 in
  let rc = Option.get reclaimer in
  let report =
    H.churn ~n ~ops ~push ~pop
      ~finish:(fun ~pid ->
        R.release rc ~pid;
        R.flush rc ~pid)
      ()
  in
  (match report.H.outcome with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("multiset audit failed: " ^ e));
  check_bool "made progress" true (report.H.pushed > 0 && report.H.popped > 0);
  check_int "no value lost" report.H.pushed
    (report.H.popped + report.H.remaining);
  let s = R.stats rc in
  check_int "limbo drained after finish" 0 s.R.in_limbo;
  check_bool "peak limbo bounded by capacity" true
    (s.R.peak_in_limbo <= capacity)

let treiber_churn scheme () =
  let capacity = 32 in
  let s = T.create ~protection:(T.Reclaimed scheme) ~capacity ~n:4 () in
  churn_structure
    ~push:(fun ~pid v -> T.push s ~pid v)
    ~pop:(fun ~pid -> T.pop s ~pid)
    ~reclaimer:(T.reclaimer s) ~capacity ()

let msqueue_churn scheme () =
  let capacity = 32 in
  let q = Q.create ~protection:(Q.Reclaimed scheme) ~capacity ~n:4 () in
  churn_structure
    ~push:(fun ~pid v -> Q.enqueue q ~pid v)
    ~pop:(fun ~pid -> Q.dequeue q ~pid)
    ~reclaimer:(Q.reclaimer q) ~capacity ()

(* The reclaim-then-reuse window, replayed on one domain.  The pool's
   [put] hands the first node it gets straight back and retires it under
   the other pid — what a concurrent domain can do the moment a scan
   publishes a node.  [n = 2], [slots = 1] give a retire threshold of 4,
   so the fourth retire scans and reclaims all four.  A scan that counts
   each reclaim only after publishing the node lets that re-retire see
   five nodes in limbo out of a capacity of four. *)
let reclaim_counts_before_publish () =
  let capacity = 4 in
  let on_put = ref (fun _ -> ()) in
  let module Pool = struct
    type t = int Stack.t

    let create ~n:_ ~capacity =
      let s = Stack.create () in
      for i = capacity - 1 downto 0 do
        Stack.push i s
      done;
      s

    let put t ~pid:_ i =
      Stack.push i t;
      !on_put i

    let take t ~pid:_ = Stack.pop_opt t
  end in
  let module Slot = struct
    type t = int ref

    let create ~n:_ ~init = ref init
    let write t ~pid:_ i = t := i
    let read t ~pid:_ = !t
  end in
  let module Hp = Aba_reclaim.Hazard.Make (Slot) (Pool) in
  let h = Hp.create ~slots:1 ~n:2 ~capacity () in
  (on_put :=
     fun _ ->
       on_put := ignore;
       Hp.retire h ~pid:1 (Option.get (Hp.alloc h ~pid:1)));
  let nodes = List.init capacity (fun _ -> Option.get (Hp.alloc h ~pid:0)) in
  List.iter (Hp.retire h ~pid:0) nodes;
  let s = Hp.stats h in
  check_int "all four reclaimed" capacity s.R.reclaimed;
  check_int "re-retired node in limbo" 1 s.R.in_limbo;
  check_bool "peak limbo bounded by capacity" true
    (s.R.peak_in_limbo <= capacity)

let suite =
  Alcotest.test_case "boxed-pool LIFO" `Quick boxed_pool
  :: List.concat_map
       (fun scheme ->
         let nm = R.scheme_name scheme in
         [
           Alcotest.test_case
             (nm ^ ": alloc/exhaust/recycle")
             `Quick (alloc_exhaust scheme);
           Alcotest.test_case
             (nm ^ ": protected node survives flush")
             `Quick
             (protected_not_reclaimed scheme);
           Alcotest.test_case
             (nm ^ ": retired nodes reclaimed after release+flush")
             `Quick
             (all_reclaimed_after_flush scheme);
           Alcotest.test_case
             (nm ^ ": treiber churn, 4 domains")
             `Quick (treiber_churn scheme);
           Alcotest.test_case
             (nm ^ ": ms-queue churn, 4 domains")
             `Quick (msqueue_churn scheme);
         ])
       R.all_schemes
  @ List.map
      (fun scheme ->
        Alcotest.test_case
          (R.scheme_name scheme ^ ": create rejects n, capacity, slots <= 0")
          `Quick (create_validation scheme))
      R.all_schemes
  @ [
      Alcotest.test_case "hazard: scan counts a reclaim before publishing it"
        `Quick reclaim_counts_before_publish;
    ]

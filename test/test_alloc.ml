(** Hot-path allocation claims, gated.

    README states that several uncontended hot paths allocate nothing —
    the packed head words are immediate ints, the retry loops are
    top-level recursion, and the [_or] variants return the bare int
    instead of an option.  Each case here warms its path up, then reads
    [Gc.minor_words] around [iters] iterations on one domain.  The
    counts are deterministic for a given compiler, so the checks are
    exact up to the two boxed floats of the measurement itself. *)

module T = Aba_runtime.Rt_treiber
module Q = Aba_runtime.Rt_ms_queue
module Ring = Aba_queue.Rt_ring
module E = Aba_runtime.Elimination
module Svc = Aba_apps.Service

let iters = 20_000

let words_per_op f =
  for _ = 1 to 1_000 do
    f ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to iters do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int iters

let allocation_free label f =
  let w = words_per_op f in
  if w >= 0.01 then Alcotest.failf "%s: %.3f minor words/op, want 0" label w

(* Every pair below leaves one resident element in its structure, so
   both halves of the pair always succeed. *)

let announced_treiber () =
  let s = T.create ~protection:(T.Announced 12) ~capacity:64 ~n:2 () in
  ignore (T.push s ~pid:0 1 : bool);
  fun () ->
    ignore (T.push s ~pid:1 42 : bool);
    ignore (T.pop_or s ~pid:1 ~default:0 : int)

let announced_msqueue () =
  let q = Q.create ~protection:(Q.Announced 12) ~capacity:64 ~n:2 () in
  ignore (Q.enqueue q ~pid:0 1 : bool);
  fun () ->
    ignore (Q.enqueue q ~pid:1 42 : bool);
    ignore (Q.dequeue_or q ~pid:1 ~default:0 : int)

let ring () =
  let r = Ring.create ~capacity:64 ~n:2 () in
  ignore (Ring.try_enqueue r ~pid:0 1 : bool);
  fun () ->
    ignore (Ring.try_enqueue r ~pid:1 42 : bool);
    ignore (Ring.dequeue_or r ~pid:1 ~default:0 : int)

let padded_fig3 () =
  let l = Aba_runtime.Rt_llsc.Packed_fig3.create ~padded:true ~n:8 ~init:0 () in
  fun () ->
    ignore (Aba_runtime.Rt_llsc.Packed_fig3.ll l ~pid:1 : int);
    ignore (Aba_runtime.Rt_llsc.Packed_fig3.sc l ~pid:1 5 : bool)

(* With no counterparty every exchange attempt times out after its
   bounded spin window. *)
let exchanger () =
  let backoff = Aba_primitives.Backoff.Noop in
  E.create ~spec:(E.Exchanger { slots = 1; window = 4; backoff }) ~n:2 ()

let exchange_push () =
  let e = exchanger () in
  fun () -> ignore (E.exchange_push e ~pid:0 42 : bool)

let exchange_pop () =
  let e = exchanger () in
  fun () -> ignore (E.exchange_pop e ~pid:0 : int option)

(* The router adds nothing over the structure it routes: a 4-shard
   service push + pop allocates exactly what the bare stack's does (the
   pop's [Some] cell). *)
let service_matches_bare () =
  let bare = T.create ~protection:(T.Announced 12) ~capacity:64 ~n:2 () in
  let svc =
    Svc.Stack_service.create ~protection:(T.Announced 12) ~steal:true
      ~shards:4 ~capacity:64 ~n:2 ()
  in
  ignore (T.push bare ~pid:0 1 : bool);
  ignore (Svc.Stack_service.push svc ~pid:0 ~key:7 1 : bool);
  let bare_words =
    words_per_op (fun () ->
        ignore (T.push bare ~pid:1 42 : bool);
        ignore (T.pop bare ~pid:1 : int option))
  in
  let svc_words =
    words_per_op (fun () ->
        ignore (Svc.Stack_service.push svc ~pid:1 ~key:7 42 : bool);
        ignore (Svc.Stack_service.pop svc ~pid:1 ~key:7 : int option))
  in
  Alcotest.(check (float 0.01)) "service words/op = bare stack's" bare_words
    svc_words

let suite =
  List.map
    (fun (label, make) ->
      Alcotest.test_case (label ^ ": 0 words/op") `Quick (fun () ->
          allocation_free label (make ())))
    [
      ("rt-treiber announced-12 push+pop_or", announced_treiber);
      ("rt-msqueue announced-12 enqueue+dequeue_or", announced_msqueue);
      ("rt-ring try_enqueue+dequeue_or", ring);
      ("padded packed-fig3 ll+sc", padded_fig3);
      ("elimination exchange_push timeout", exchange_push);
      ("elimination exchange_pop timeout", exchange_pop);
    ]
  @ [
      Alcotest.test_case "4-shard service push+pop allocates as the bare stack"
        `Quick service_matches_bare;
    ]

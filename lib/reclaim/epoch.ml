(** Epoch-based reclamation (Fraser-style, three limbo generations).

    A domain pins the global epoch for the span of one operation; nodes
    retired in epoch [e] are reclaimable once the global epoch reaches
    [e + 2], because both intervening advances required every pinned
    domain to re-pin in between — so no reference from before the
    retirement can survive.  Protection is a single epoch pin per
    operation (the per-node [protect] calls after the first are no-ops),
    which is why epochs win on throughput and lose on space: one stalled
    pinned domain freezes reclamation for everybody. *)

open Aba_primitives

type bag = { mutable epoch : int; mutable nodes : int list }

type t = {
  n : int;
  capacity : int;
  global : int Atomic.t;  (** on its own cache line: read by every pin *)
  local : int Atomic.t array;
      (** announced epoch, -1 = quiescent; one word per line — slot [p] is
          stored by domain [p] and scanned by advancing domains *)
  bags : bag array array;  (** [n][3], owner-only, indexed by epoch mod 3 *)
  limbo_size : int array;
  pool : Boxed_pool.t;
  threshold : int;
  bo : Backoff.t array;  (** per-pid backoff for the acquire loop *)
  stats : Limbo_stats.t;
  obs : Aba_obs.Obs.t;
}

let create ?(slots = 2) ?(obs = Aba_obs.Obs.noop) ~n ~capacity () =
  Common.check ~n ~slots ~capacity;
  {
    n;
    capacity;
    global = Padded.atomic 0;
    local = Padded.atomic_array n (-1);
    bags =
      Array.init n (fun _ ->
          Array.init 3 (fun _ -> { epoch = -1; nodes = [] }));
    limbo_size = Array.make n 0;
    pool = Boxed_pool.full ~capacity;
    threshold = max 2 n;
    bo = Common.backoffs n;
    stats = Limbo_stats.create ();
    obs;
  }

let capacity t = t.capacity

let protect t ~pid ~slot:_ i =
  if i >= 0 && Atomic.get t.local.(pid) = -1 then
    Atomic.set t.local.(pid) (Atomic.get t.global)

let release t ~pid = Atomic.set t.local.(pid) (-1)

(* Advance the global epoch iff every pinned domain has observed the
   current one; a CAS failure means someone else advanced for us. *)
let try_advance t =
  let e = Atomic.get t.global in
  let blocked = ref false in
  for p = 0 to t.n - 1 do
    let l = Atomic.get t.local.(p) in
    if l <> -1 && l <> e then blocked := true
  done;
  if not !blocked then ignore (Atomic.compare_and_set t.global e (e + 1))

let reclaim_bag t ~pid b =
  List.iter
    (fun i ->
      (* Count before publishing, as in [Hazard.Make.scan]. *)
      Limbo_stats.on_reclaim t.stats;
      t.limbo_size.(pid) <- t.limbo_size.(pid) - 1;
      Boxed_pool.put t.pool i)
    b.nodes;
  b.nodes <- [];
  b.epoch <- -1

let reclaim_own t ~pid =
  let e = Atomic.get t.global in
  Array.iter
    (fun b -> if b.epoch >= 0 && b.epoch <= e - 2 then reclaim_bag t ~pid b)
    t.bags.(pid)

let flush t ~pid =
  (* Two successful advances empty every quiescent bag; a pinned domain
     elsewhere legitimately stalls this. *)
  for _ = 1 to 2 do
    try_advance t;
    reclaim_own t ~pid
  done

let retire t ~pid i =
  let t0 = Aba_obs.Obs.start t.obs in
  let e = Atomic.get t.global in
  let b = t.bags.(pid).(e mod 3) in
  (* The slot last held epoch e-3 (or older): always past its grace
     period by the time the epoch wraps back onto it. *)
  if b.epoch <> e && b.epoch >= 0 then reclaim_bag t ~pid b;
  b.epoch <- e;
  b.nodes <- i :: b.nodes;
  t.limbo_size.(pid) <- t.limbo_size.(pid) + 1;
  Limbo_stats.on_retire t.stats;
  if t.limbo_size.(pid) >= t.threshold then begin
    try_advance t;
    reclaim_own t ~pid
  end;
  Aba_obs.Obs.record t.obs ~pid ~kind:Aba_obs.Obs.Retire
    ~outcome:Aba_obs.Obs.Ok ~retries:0 t0

let recycle t ~pid:_ i = Boxed_pool.put t.pool i

include Common.Make (struct
  type nonrec t = t

  let bo t = t.bo
  let protect = protect
  let take t ~pid:_ = Boxed_pool.take t.pool
  let reclaim = flush
end)

let stats t = Limbo_stats.snapshot t.stats

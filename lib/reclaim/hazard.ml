(** Hazard-pointer reclamation (Michael 2004), written once.

    Each domain owns [slots] single-writer announcement words; a scan
    collects every announcement and returns only unannounced limbo
    nodes to the free pool.  Protection is one slot write, scans are
    O(n·slots + |limbo|) and amortised by a retire threshold.

    {!Make} is the protocol over any announcement word and free pool.
    This module is also its plain-hardware instance — padded raw
    [Atomic] slots and a {!Boxed_pool} — the baseline the paper's
    constructions are benchmarked against; {!Guarded.Make} is the same
    protocol on the paper's bounded objects. *)

open Aba_primitives

module Make (S : Reclaim_intf.SLOT) (P : Reclaim_intf.POOL) = struct
  type t = {
    slots : int;
    capacity : int;
    announce : S.t array;  (** [n * slots], -1 = empty *)
    pool : P.t;
    limbo : int list ref array;  (** per-pid, owner-only *)
    limbo_size : int array;
    threshold : int;
    bo : Backoff.t array;  (** per-pid backoff for the acquire loop *)
    stats : Limbo_stats.t;
    obs : Aba_obs.Obs.t;
  }

  let create ?(slots = 2) ?(obs = Aba_obs.Obs.noop) ~n ~capacity () =
    Common.check ~n ~slots ~capacity;
    let pool = P.create ~n ~capacity in
    {
      slots;
      capacity;
      announce = Array.init (n * slots) (fun _ -> S.create ~n ~init:(-1));
      pool;
      limbo = Array.init n (fun _ -> ref []);
      limbo_size = Array.make n 0;
      threshold = max 2 (2 * n * slots);
      bo = Common.backoffs n;
      stats = Limbo_stats.create ();
      obs;
    }

  let capacity t = t.capacity

  let protect t ~pid ~slot i =
    if slot < 0 || slot >= t.slots then invalid_arg "Hazard.protect: bad slot";
    S.write t.announce.((pid * t.slots) + slot) ~pid (if i < 0 then -1 else i)

  let release t ~pid =
    for s = 0 to t.slots - 1 do
      S.write t.announce.((pid * t.slots) + s) ~pid (-1)
    done

  (* Reclaim every limbo node of [pid] not currently announced by anyone.
     Announcements published after the node was retired are harmless: the
     retiree was already unlinked, so such an announcement can never pass
     its validation read. *)
  let scan t ~pid =
    let announced = Array.make t.capacity false in
    Array.iter
      (fun s ->
        let i = S.read s ~pid in
        if i >= 0 && i < t.capacity then announced.(i) <- true)
      t.announce;
    let keep =
      List.filter
        (fun i ->
          if announced.(i) then true
          else begin
            (* Count before publishing: once [put] returns, another domain
               may take, use and retire the node, and its retire must not
               see this node still counted in limbo. *)
            Limbo_stats.on_reclaim t.stats;
            P.put t.pool ~pid i;
            false
          end)
        !(t.limbo.(pid))
    in
    t.limbo.(pid) := keep;
    t.limbo_size.(pid) <- List.length keep

  let flush t ~pid = scan t ~pid

  let retire t ~pid i =
    let t0 = Aba_obs.Obs.start t.obs in
    t.limbo.(pid) := i :: !(t.limbo.(pid));
    t.limbo_size.(pid) <- t.limbo_size.(pid) + 1;
    Limbo_stats.on_retire t.stats;
    if t.limbo_size.(pid) >= t.threshold then scan t ~pid;
    (* The latency captures the amortisation spike: most retires are a
       cons, the threshold-crossing one pays a scan of n*slots slot reads
       plus a pool put per reclaimed node — under {!Guarded.Make}, Figure-4
       [DRead]s and Figure-3 LL/SC pushes, the paper's O(n) steps. *)
    Aba_obs.Obs.record t.obs ~pid ~kind:Aba_obs.Obs.Retire
      ~outcome:Aba_obs.Obs.Ok ~retries:0 t0

  let recycle t ~pid i = P.put t.pool ~pid i

  include Common.Make (struct
    type nonrec t = t

    let bo t = t.bo
    let protect = protect
    let take t ~pid = P.take t.pool ~pid
    let reclaim = scan
  end)

  let stats t = Limbo_stats.snapshot t.stats
end

include
  Make
    (struct
      type t = int Atomic.t

      (* Each word on its own cache line: adjacent slots belong to
         different domains. *)
      let create ~n:_ ~init = Padded.atomic init
      let write t ~pid:_ i = Atomic.set t i
      let read t ~pid:_ = Atomic.get t
    end)
    (struct
      type t = Boxed_pool.t

      let create ~n:_ ~capacity = Boxed_pool.full ~capacity
      let put t ~pid:_ i = Boxed_pool.put t i
      let take t ~pid:_ = Boxed_pool.take t
    end)

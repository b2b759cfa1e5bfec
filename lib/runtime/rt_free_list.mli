(** Lock-free free list of node indices: a per-pid single-index cache in
    front of the reclamation subsystem ({!Rt_reclaim}).

    The shared pool is a reclaimer, by default the {!Rt_reclaim.Guarded}
    scheme, whose shared stack is driven through the paper's Figure-3
    LL/SC word — bounded and ABA-immune on index reuse by Theorem 2
    rather than by leaning on the garbage collector.  In front of it sits
    one padded atomic slot per pid holding at most one free index: a
    balanced workload (each pop's node feeds the same domain's next push)
    never touches the shared pool at all, so the steady-state [take]/[put]
    pair is one atomic exchange plus one load-and-store — no allocation,
    no shared-stack traffic.  The slot protocol needs no tags: only the
    owner ever stores an index into its slot, everyone else only swaps it
    to empty.

    Capacity stays exact: when the shared pool runs dry, [take] sweeps
    the other pids' cache slots, so an index parked in a cache is still
    allocatable and a structure reports full only when every index is
    really inside it.

    Two disciplines coexist:
    - [put]/[take] recycle indices immediately, for clients whose own
      head word carries the ABA protection (tagged, LL/SC or
      announcement-guarded structures);
    - clients with unprotected words ({!Rt_treiber} and {!Rt_ms_queue}'s
      [Reclaimed] variants) take indices here but retire, protect and
      flush through {!reclaimer}, which defers reuse behind the
      reclaimer's grace period. *)

type t

val create :
  ?scheme:Rt_reclaim.scheme ->
  ?slots:int ->
  ?obs:Aba_obs.Obs.t ->
  n:int ->
  capacity:int ->
  unit ->
  t
(** All indices in [0, capacity) start free; [n] is the number of
    domains (pids).  Default scheme: {!Rt_reclaim.Guarded}.  [obs]
    (default {!Aba_obs.Obs.noop}) is passed to the reclaimer, which
    records each [retire] as a [Retire] event. *)

val reclaimer : t -> Rt_reclaim.t
(** The shared pool, for clients that drive the deferred-reclamation
    protocol directly or report its {!Rt_reclaim.stats}. *)

val take : t -> pid:int -> int option
(** Boxing wrapper over {!take_idx} for callers off the hot path. *)

val take_idx : t -> pid:int -> int
(** A free index, or [-1] when none is left anywhere (cache slots
    included).  Allocation-free: the cache hit is one exchange on the
    caller's own padded slot. *)

val put : t -> pid:int -> int -> unit
(** Return an index for immediate reuse.  Parks it in the caller's cache
    slot when empty (allocation-free), else recycles into the shared
    pool. *)


(** Runtime (multicore) index-based Treiber stack with node recycling.

    Same hazard as {!Aba_apps.Treiber_stack}, on real hardware words: the
    head is a single [int Atomic.t] and the nodes live in flat arrays,
    recycled through the reclamation subsystem ({!Rt_reclaim}).

    - [Tag_bits 0] — the unprotected stack: pure index CAS, ABA-prone;
    - [Tag_bits k] — folklore tagging: safe until [2^k] operations race
      past a stalled pop;
    - {!Llsc} — head driven through {!Rt_llsc.Packed_fig3}: the paper's
      LL/SC methodology, bounded and ABA-immune;
    - [Reclaimed scheme] — an untagged head made safe by deferred
      reclamation: pops announce the observed head through the given
      reclaimer ({!Rt_reclaim.Hazard}, {!Rt_reclaim.Epoch} or the
      paper-built {!Rt_reclaim.Guarded}) and retire nodes instead of
      recycling them immediately, so a node can re-enter the stack only
      after every stale reference to it is gone;
    - [Announced k] — folklore tagging made wraparound-safe (the runtime
      twin of {!Aba_core.Announced_tags}): pops announce the [k]-bit tag
      they rely on in a per-process padded slot and revalidate, and
      installs that cross a half of the tag space scan the slots and skip
      announced tags.  Uncontended push/pop cost 0 extra words and no
      per-op retire or scan — scans happen only every [2^(k-1)] installs
      (recorded as [Obs.Scan] events) — yet a stalled pop's witness stays
      safe across arbitrarily many intervening operations, which [Tag_bits
      k] cannot guarantee.  For progress under adversarial stalls keep
      [2^(k-1)] above [n].

    The tagged, LL/SC and announced variants recycle through the free
    list immediately (their head word is the protection); the [Reclaimed]
    variants are where retirement and grace periods actually run.

    With [elimination] a push and a pop that collide on the head can also
    cancel {e off} it: after a failed head CAS each side visits an
    {!Elimination} exchanger, and a matched pair hands the value over in a
    side slot without ever touching the protected word — the pair
    linearizes as push immediately followed by pop, a stack no-op.  The
    head word (any of the three protections) remains the correctness
    backbone; elimination only removes coherence traffic from it.

    Use [check_multiset] to audit an execution: with unique pushed values,
    any duplicate pop or pop of a never-pushed value is an ABA corruption. *)

type t

type protection =
  | Tag_bits of int
  | Llsc
  | Reclaimed of Rt_reclaim.scheme
  | Announced of int

val create :
  ?padded:bool -> ?backoff:bool -> ?elimination:Elimination.spec ->
  ?obs:Aba_obs.Obs.t ->
  protection:protection -> capacity:int -> n:int -> unit -> t
(** [padded] (default [true]) puts the head word on its own cache line;
    [backoff] (default [true]) adds bounded exponential backoff to the
    push/pop retry loops.  Both default on — this is the production
    surface; turn them off to measure their cost.
    [elimination] (default {!Elimination.Noop}: opt-in) adds the push/pop
    exchanger, consulted only after a failed head CAS, so the uncontended
    paths are unchanged.  [obs] (default {!Aba_obs.Obs.noop}) records each
    operation as a [Push]/[Pop] event with its failed-head-CAS count as
    [retries] ([Ok]/[Empty]/[Eliminated]/[Fail] = pool exhausted); the
    handle is shared with the elimination layer and, under [Reclaimed],
    the reclaimer, so their [Exchange]/[Retire] events land in the same
    timeline. *)

val push : t -> pid:int -> int -> bool
(** [false] when the pool is exhausted. *)

val pop : t -> pid:int -> int option

val pop_or : t -> pid:int -> default:int -> int
(** [pop_or t ~pid ~default] is [pop] returning [default] when the stack
    is empty.  Under [Announced] this path is allocation-free — no option
    box, as [test/test_alloc.ml] checks; the other protections route
    through {!pop}. *)

val reclaimer : t -> Rt_reclaim.t option
(** The backing reclaimer of a [Reclaimed] stack ([None] otherwise). *)

val reclaim_stats : t -> Rt_reclaim.stats option
(** Retired/reclaimed/peak-limbo counters of a [Reclaimed] stack. *)

val elimination_stats : t -> Elimination.stats option
(** Exchange/collision/timeout counters of the elimination layer ([None]
    when the stack was created without one). *)

val check_multiset :
  pushed:int list -> popped:int list -> remaining:int list ->
  (unit, string) result
(** Alias of {!Harness.check_multiset}. *)

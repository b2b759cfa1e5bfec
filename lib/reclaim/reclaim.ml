(** Unified dispatcher over the three reclamation schemes.

    The {!Guarded} scheme needs the paper's runtime constructions
    (Figure-3 LL/SC word, Figure-4 ABA-detecting register), which live
    one layer up in [Aba_runtime]; taking them as functor arguments
    keeps this library dependency-free and lets the simulator provide
    step-model instantiations ([Aba_experiments.Scenarios]).
    [Aba_runtime.Rt_reclaim] is the canonical instance. *)

type stats = Reclaim_intf.stats = {
  retired : int;
  reclaimed : int;
  in_limbo : int;
  peak_in_limbo : int;
}

type scheme = Reclaim_intf.scheme = Hazard | Epoch | Guarded

let scheme_name = Reclaim_intf.scheme_name

let all_schemes = Reclaim_intf.all_schemes

module Make (L : Reclaim_intf.LLSC) (D : Reclaim_intf.DETECT) : sig
  type t

  val create :
    ?slots:int -> ?obs:Aba_obs.Obs.t -> n:int -> capacity:int -> scheme -> t
  (** [create ~n ~capacity scheme] prepares [capacity] node names for [n]
      domains (pids [0, n)).  [slots] (default 2) is the number of
      simultaneous per-domain protections; the Treiber stack needs 1,
      the Michael–Scott queue 2.  [obs] (default {!Aba_obs.Obs.noop})
      records each {!retire} as a [Retire] event whose latency includes
      any reclamation scan the retire triggered.  Raises
      [Invalid_argument] unless [n], [capacity] and [slots] are
      positive. *)

  val scheme : t -> scheme
  val capacity : t -> int

  val alloc : t -> pid:int -> int option
  (** Take a free node name, or [None] when every node is live or in
      limbo.  Exhaustion triggers a reclamation attempt first. *)

  val retire : t -> pid:int -> int -> unit
  (** The node left the structure; hand it back once no protection can
      still refer to it.  Must be called at most once per removal, by
      the domain that unlinked it. *)

  val recycle : t -> pid:int -> int -> unit
  (** Immediate reuse, skipping the grace period: the caller asserts no
      other domain can hold a stale reference (because the structure
      protects itself with tags or LL/SC).  This is what the classic
      free-list clients use. *)

  val protect : t -> pid:int -> slot:int -> int -> unit
  (** Announce that [pid] is about to dereference a node.  The caller
      must re-validate its source pointer afterwards ({!acquire} does
      both).  Negative indices clear the slot. *)

  val acquire : t -> pid:int -> slot:int -> read:(unit -> int) -> int
  (** The validated-read loop: read a node name, protect it, and re-read
      until the source is stable.  Returns a protected name, or a
      negative sentinel (unprotected) if [read] produced one. *)

  val release : t -> pid:int -> unit
  (** Drop every protection held by [pid] (all slots / the epoch pin). *)

  val flush : t -> pid:int -> unit
  (** Force a reclamation pass over [pid]'s limbo nodes.  After every
      domain has released and flushed, all retired nodes are reclaimed. *)

  val stats : t -> stats
end = struct
  module G = Guarded.Make (L) (D)

  type t = H of Hazard.t | E of Epoch.t | G of G.t

  let create ?slots ?obs ~n ~capacity = function
    | Hazard -> H (Hazard.create ?slots ?obs ~n ~capacity ())
    | Epoch -> E (Epoch.create ?slots ?obs ~n ~capacity ())
    | Guarded -> G (G.create ?slots ?obs ~n ~capacity ())

  let scheme = function H _ -> Hazard | E _ -> Epoch | G _ -> Guarded

  let capacity = function
    | H h -> Hazard.capacity h
    | E e -> Epoch.capacity e
    | G g -> G.capacity g

  let alloc t ~pid =
    match t with
    | H h -> Hazard.alloc h ~pid
    | E e -> Epoch.alloc e ~pid
    | G g -> G.alloc g ~pid

  let retire t ~pid i =
    match t with
    | H h -> Hazard.retire h ~pid i
    | E e -> Epoch.retire e ~pid i
    | G g -> G.retire g ~pid i

  let recycle t ~pid i =
    match t with
    | H h -> Hazard.recycle h ~pid i
    | E e -> Epoch.recycle e ~pid i
    | G g -> G.recycle g ~pid i

  let protect t ~pid ~slot i =
    match t with
    | H h -> Hazard.protect h ~pid ~slot i
    | E e -> Epoch.protect e ~pid ~slot i
    | G g -> G.protect g ~pid ~slot i

  let acquire t ~pid ~slot ~read =
    match t with
    | H h -> Hazard.acquire h ~pid ~slot ~read
    | E e -> Epoch.acquire e ~pid ~slot ~read
    | G g -> G.acquire g ~pid ~slot ~read

  let release t ~pid =
    match t with
    | H h -> Hazard.release h ~pid
    | E e -> Epoch.release e ~pid
    | G g -> G.release g ~pid

  let flush t ~pid =
    match t with
    | H h -> Hazard.flush h ~pid
    | E e -> Epoch.flush e ~pid
    | G g -> G.flush g ~pid

  let stats = function
    | H h -> Hazard.stats h
    | E e -> Epoch.stats e
    | G g -> G.stats g
end

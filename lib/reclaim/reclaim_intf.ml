(** Types and base-object signatures of the reclamation subsystem.

    The paper locates the ABA problem in memory reuse: a CAS-based
    structure corrupts only when a node is retired, reclaimed and
    re-enters the structure while a slow operation still holds its
    (stale) address.  A reclaimer is therefore both the allocator and
    the guard of the runtime index-based structures; its interface is
    the result signature of {!Reclaim.Make}.

    Three schemes implement it:
    - {!Hazard} — hazard pointers (Michael 2004), written once as
      {!Hazard.Make} over an announcement-slot module ({!SLOT}) and a
      free-pool module ({!POOL}); the [Hazard] scheme instantiates it
      on plain [Atomic] words: O(1) protection, O(n·slots) scans;
    - {!Guarded.Make} — the same functor applied to the paper's
      objects: protection slots are Figure-4 ABA-detecting registers
      (Theorem 3) and the shared free stack is driven through the
      Figure-3 LL/SC word (Theorem 2), so every reclamation decision
      goes through the constructions the paper proves correct;
    - {!Epoch} — epoch-based reclamation: protection amortised to a
      single epoch pin per operation, space unbounded while any domain
      stays pinned.

    All node names are small integers in [0, capacity): the runtime
    structures are index-based, so the reclaimer never touches the
    payload arrays, only the names. *)

(** Lifetime counters, updated with sequentially consistent atomics so
    they can be read while a workload is still running. *)
type stats = {
  retired : int;  (** nodes handed to [retire] so far *)
  reclaimed : int;  (** retired nodes returned to the free pool *)
  in_limbo : int;  (** retired but not yet reclaimed (= retired - reclaimed) *)
  peak_in_limbo : int;
      (** high-water mark of [in_limbo]: the scheme's space overhead *)
}

(** The three reclamation schemes, used by the unified dispatcher and
    by the runtime structures' [protection] variants. *)
type scheme = Hazard | Epoch | Guarded

let scheme_name = function
  | Hazard -> "hazard"
  | Epoch -> "epoch"
  | Guarded -> "guarded"

let all_schemes = [ Hazard; Epoch; Guarded ]

(** A single-writer announcement word of {!Hazard.Make}: slot owner
    [pid] writes the name it is about to dereference, scans read it. *)
module type SLOT = sig
  type t

  val create : n:int -> init:int -> t
  val write : t -> pid:int -> int -> unit
  val read : t -> pid:int -> int
end

(** The shared free pool of {!Hazard.Make}: [create] holds every name
    in [0, capacity), [take] returns [None] when the pool is empty. *)
module type POOL = sig
  type t

  val create : n:int -> capacity:int -> t
  val put : t -> pid:int -> int -> unit
  val take : t -> pid:int -> int option
end

(** What {!Guarded.Make} needs from the paper's Figure 3: a single
    bounded LL/SC word ([Rt_llsc.Packed_fig3] in the runtime). *)
module type LLSC = sig
  type t

  val create : n:int -> init:int -> t
  val ll : t -> pid:int -> int
  val sc : t -> pid:int -> int -> bool
end

(** What {!Guarded.Make} needs from the paper's Figure 4: a bounded
    single-writer ABA-detecting register over [int] ([Rt_aba.Fig4]). *)
module type DETECT = sig
  type t

  val create : n:int -> init:int -> t
  val dwrite : t -> pid:int -> int -> unit
  val dread : t -> pid:int -> int * bool
end

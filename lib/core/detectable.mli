(** Detectable (crash-recoverable) operations — experiment E19.

    A {e detectable} object (Ben-Baruch, Hendler, Rusanovsky: "Upper and
    Lower Bounds on the Space Complexity of Detectable Objects") survives
    process crashes that erase program state while shared memory
    persists: after a crash, the process can {e detect} whether its
    interrupted operation took effect, learn its result if it did, and
    complete it exactly once if it did not.

    Both constructions here follow the announcement-array discipline of
    {!Announced_tags} and the paper's ABA-detecting register: each
    process owns a single-writer {e descriptor} slot announcing its
    in-flight operation (the DWrite), and recovery is a read protocol
    over shared state that decides, exactly, whether the announced
    operation landed (the DRead).  All shared accesses go through
    {!Aba_primitives.Mem_intf.S}, so the same functor body is
    model-checked under the simulator (with {!Aba_sim.Explore.dpor}'s
    crash moves) and run on multicore via the runtime backend.

    The [on_step] hook passed at creation is called with the acting
    process id before every shared-memory access of every operation; the
    crash-churn harness uses it to kill operations at randomized
    shared-access points ({!Aba_runtime.Harness.Injected_crash}).  Shared state is consistent
    at every hook point — that is the whole claim being tested. *)

open Aba_primitives

(** Head-pointer ABA protection for the detectable stack.  Nodes are
    never reused, so all three are {e safe}; they differ only in
    cost. *)
type protection =
  | Tag_bits  (** bounded tag via double-word CAS ({!Mem_intf.S.make_cas2}) *)
  | Llsc  (** LL/SC head *)
  | Announced  (** announcement-guarded wraparound-safe tags ({!Announced_tags}) *)

(** Result of {!Make.Stack.recover}. *)
type stack_recovery =
  | R_none  (** no operation was in flight; the crash had no effect *)
  | R_pushed of int
      (** the interrupted push is now complete (it had landed pre-crash,
          or recovery finished it); exactly one copy of the value is in
          the stack *)
  | R_popped of int option
      (** the interrupted pop is now complete; [None] popped empty *)

module Make (M : Mem_intf.S) : sig
  (** Detectable fetch-and-increment.  The counter word carries
      (value, owner, seq) provenance and overwriters raise the previous
      owner's ack cell {e before} replacing its install, giving the exact
      recovery rule: operation (p, s) landed iff the word still reads
      (_, p, s) or ack[p].seq >= s. *)
  module Counter : sig
    type t

    val create :
      ?padded:bool -> ?on_step:(Pid.t -> unit) -> name:string -> n:int ->
      unit -> t

    val inc : t -> pid:Pid.t -> int
    (** Detectable fetch-and-increment; returns the incremented value. *)

    val read : t -> int
    (** Current value, one shared step. *)

    val recover : t -> pid:Pid.t -> int option
    (** After a crash of [pid]: [None] if no operation was in flight (the
        crashed call had executed no shared step, so it had no effect);
        otherwise completes the interrupted increment exactly once and
        returns [Some result] — the pre-crash result if it had landed,
        the result of the single re-run if it provably had not. *)

    val completed : t -> pid:Pid.t -> int
    (** Number of increments by [pid] completed (descriptor sequence). *)

    val space : t -> (string * string) list
  end

  (** The deliberate non-detectable mutant: no provenance, no ack
      handover.  Its [recover] cannot distinguish "CAS landed, crashed
      before the Done write" from "CAS never landed" and re-runs — a
      crash in that window duplicates the increment.  Exists to be
      flagged by the DPOR crash search and the exactly-once audits. *)
  module Naive_counter : sig
    type t

    val create :
      ?padded:bool -> ?on_step:(Pid.t -> unit) -> name:string -> n:int ->
      unit -> t

    val inc : t -> pid:Pid.t -> int
    val read : t -> int

    val recover : t -> pid:Pid.t -> int option
    (** Guesses {e not landed} for any in-flight descriptor and re-runs;
        returns [Some result] of the re-run (which may be a duplicate). *)

    val space : t -> (string * string) list
  end

  (** Detectable Treiber stack over a per-(pid, seq) node arena (nodes
      are never reused).  Push detection: the node is at the head or was
      marked [In] by the help rule before it could be buried or removed.
      Pop detection: the node named by the [Popping] descriptor carries
      this operation's claim in its owner cell (claimed at most once,
      never reset — the pop's linearization point). *)
  module Stack : sig
    type t

    val create :
      ?protection:protection ->
      ?tag_bits:int ->
      ?padded:bool ->
      ?on_step:(Pid.t -> unit) ->
      name:string ->
      n:int ->
      capacity:int ->
      unit ->
      t
    (** [capacity] bounds the operations per pid (it sizes the arena);
        [tag_bits] (default 4) applies to the [Tag_bits] and [Announced]
        protections.  Raises [Invalid_argument] if [n < 1] or
        [capacity < 1]. *)

    val push : t -> pid:Pid.t -> int -> unit
    val pop : t -> pid:Pid.t -> int option

    val recover : t -> pid:Pid.t -> stack_recovery
    (** After a crash of [pid]: clears any stale announcement, reads the
        descriptor, and resolves the interrupted operation exactly once
        (completing it if it provably had not landed). *)

    val top : t -> pid:Pid.t -> int
    (** Current head node index (-1 when empty); one shared step. *)

    val value_of : t -> int -> int
    (** Value stored in a node index returned by {!top}. *)

    val scans : t -> int
    (** Announcement-crossing scans ([Announced] protection only). *)

    val space : t -> (string * string) list
  end
end

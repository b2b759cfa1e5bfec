(** Named model-check scenarios: every concurrent structure in the
    library pointed at the DPOR engine at a small, fixed configuration.

    Each scenario packages a deterministic instance builder, a fixed
    (seeded where random) per-process script, and a correctness check —
    linearizability against the matching sequential spec, or a
    trace-invariant structural invariant (exchange pairing, reclamation
    hold-exclusivity).  {!Explore.dpor} then certifies the workload over
    a representative schedule set and reports the reduction statistics.

    Coverage note: scenarios whose shared state lives entirely in
    simulator cells (the Figure 3/4 objects, the guarded reclaimer's
    LL/SC word and announcement registers, the ring queue, the
    elimination slot) are explored at shared-memory-step granularity.
    Raw-atomic internals (the combining claim word) complete inside one
    action.  The hazard and epoch reclaimers keep all their words on
    raw atomics, so the explorer sees no conflicting steps and runs one
    schedule (1 of 10): [hazard-reclaim] and [epoch-reclaim] check a
    single interleaving, not every operation order.  Only
    [guarded-reclaim] is explored at step level (4 of 286). *)

module Explore = Aba_sim.Explore

type report = {
  name : string;
  description : string;
  n : int;  (** number of processes *)
  expect_violation : bool;
  verdict : string;  (** ["ok"], ["violation"] or ["budget-exhausted"] *)
  passed : bool;
      (** the verdict matched the expectation; [budget-exhausted] counts
          as passing a no-violation scenario (bounded certification) *)
  schedules : int;
  violation_schedule : int list option;
  stats : Explore.dpor_stats;
}

type t = {
  id : string;
  about : string;
  n_procs : int;
  expects_violation : bool;
  heavy : bool;  (** skipped by smoke runs *)
  run : ?max_schedules:int -> ?preemption_bound:int -> unit -> report;
}

val all : unit -> t list
val names : unit -> string list
val find : string -> t option

val run_suite :
  ?smoke:bool ->
  ?max_schedules:int ->
  ?preemption_bound:int ->
  unit ->
  report list
(** Run every scenario ([smoke] skips the heavy ones) and collect the
    reports in suite order. *)

val report_to_json : report -> Json.t
val suite_to_json : report list -> Json.t

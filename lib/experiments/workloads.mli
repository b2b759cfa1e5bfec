(** Shared harness: wiring object instances into the simulator driver and
    generating random workloads.  Used by the experiment runners,
    perfbench's certify workload and the test suites. *)

open Aba_primitives
open Aba_core

val apply_aba :
  Instances.aba ->
  Pid.t ->
  Aba_spec.Aba_register_spec.op ->
  unit ->
  Aba_spec.Aba_register_spec.res

val apply_llsc :
  Instances.llsc ->
  Pid.t ->
  Aba_spec.Llsc_spec.op ->
  unit ->
  Aba_spec.Llsc_spec.res

val aba_driver :
  Instances.aba_builder ->
  n:int ->
  (Aba_spec.Aba_register_spec.op, Aba_spec.Aba_register_spec.res)
  Aba_sim.Driver.t
(** Fresh simulator + instance + driver. *)

val llsc_driver :
  Instances.llsc_builder ->
  n:int ->
  (Aba_spec.Llsc_spec.op, Aba_spec.Llsc_spec.res) Aba_sim.Driver.t

val aba_explore_instance :
  Instances.aba_builder ->
  n:int ->
  unit ->
  (Aba_spec.Aba_register_spec.op, Aba_spec.Aba_register_spec.res)
  Aba_sim.Explore.instance

val llsc_explore_instance :
  Instances.llsc_builder ->
  n:int ->
  unit ->
  (Aba_spec.Llsc_spec.op, Aba_spec.Llsc_spec.res) Aba_sim.Explore.instance

val random_aba_scripts :
  Random.State.t -> n:int -> ops_per_pid:int ->
  Aba_spec.Aba_register_spec.op list array

val random_llsc_scripts :
  Random.State.t -> n:int -> ops_per_pid:int ->
  Aba_spec.Llsc_spec.op list array

val aba_random_history :
  Instances.aba_builder ->
  n:int ->
  ops_per_pid:int ->
  seed:int ->
  (Aba_spec.Aba_register_spec.op, Aba_spec.Aba_register_spec.res)
  Event.history
(** One random schedule over a fresh instance. *)

val llsc_random_history :
  Instances.llsc_builder ->
  n:int ->
  ops_per_pid:int ->
  seed:int ->
  (Aba_spec.Llsc_spec.op, Aba_spec.Llsc_spec.res) Event.history

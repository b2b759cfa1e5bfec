(** Shared helpers for the test suites — thin wrappers over the
    {!Aba_experiments.Workloads} harness plus Alcotest-flavoured checks. *)

module Workloads = Aba_experiments.Workloads

module Aba_check = Aba_spec.Lin_check.Make (Aba_spec.Aba_register_spec)
module Llsc_check = Aba_spec.Lin_check.Make (Aba_spec.Llsc_spec)

let apply_aba = Workloads.apply_aba
let apply_llsc = Workloads.apply_llsc
let aba_random_history = Workloads.aba_random_history
let llsc_random_history = Workloads.llsc_random_history

let pp_aba_history h = Format.asprintf "%a" Aba_check.pp_history h
let pp_llsc_history h = Format.asprintf "%a" Llsc_check.pp_history h

let check_linearizable_aba ~n h =
  if not (Aba_check.check_ok ~n h) then
    Alcotest.failf "history not linearizable:@.%s" (pp_aba_history h)

let check_linearizable_llsc ~n h =
  if not (Llsc_check.check_ok ~n h) then
    Alcotest.failf "history not linearizable:@.%s" (pp_llsc_history h)

(* One model-check scenario by name, at its default budget. *)
let run_scenario id =
  match Aba_experiments.Scenarios.find id with
  | None -> Alcotest.failf "missing scenario %s" id
  | Some s -> s.Aba_experiments.Scenarios.run ()

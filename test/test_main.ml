let () =
  Alcotest.run "aba"
    [
      ("aba-implementations", Test_aba_impls.suite);
      ("llsc-implementations", Test_llsc_impls.suite);
      ("exhaustive-exploration", Test_explore.suite);
      ("dpor", Test_dpor.suite);
      ("lower-bounds", Test_lowerbound.suite);
      ("applications", Test_apps.suite);
      ("primitives", Test_primitives.suite);
      ("simulator", Test_sim.suite);
      ("lin-check", Test_lin_check.suite);
      ("weak-condition", Test_weak_cond.suite);
      ("properties", Test_properties.suite);
      ("runtime", Test_runtime.suite);
      ("reclamation", Test_reclaim.suite);
      ("ablations", Test_ablation.suite);
      ("differential", Test_differential.suite);
      ("backends", Test_backends.suite);
      ("contention", Test_contention.suite);
      ("elimination", Test_elimination.suite);
      ("queue", Test_queue.suite);
      ("observability", Test_obs.suite);
      ("service", Test_service.suite);
      ("detectable", Test_detectable.suite);
      ("allocation", Test_alloc.suite);
      ("model-check", Test_model_check.suite);
    ]

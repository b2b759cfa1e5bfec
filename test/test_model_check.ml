(** The DPOR certification suite in smoke mode ([aba_lab explore
    --smoke]): every scenario meets its expected verdict within its
    schedule bound, the reduction bites on the 3-process Figure 4
    workload, the seeded mutants are caught with a schedule, and the
    JSON report carries every documented key. *)

module S = Aba_experiments.Scenarios
module Explore = Aba_sim.Explore
module Json = Aba_experiments.Json

let check_bool = Alcotest.(check bool)
let smoke = lazy (S.run_suite ~smoke:true ())

let suite_passes () =
  let reports = Lazy.force smoke in
  check_bool "suite is not empty" true (reports <> []);
  List.iter
    (fun (r : S.report) ->
      check_bool (r.S.name ^ " passed") true r.S.passed;
      check_bool (r.S.name ^ " explored something") true
        (r.S.stats.Explore.explored > 0);
      match r.S.stats.Explore.schedule_bound with
      | Some bound ->
          check_bool (r.S.name ^ " explored <= bound") true
            (r.S.stats.Explore.explored <= bound)
      | None -> ())
    reports

let reduction_bites () =
  let r = Test_support.run_scenario "fig4-3proc" in
  Alcotest.(check string) "verdict" "ok" r.S.verdict;
  match r.S.stats.Explore.schedule_bound with
  | None -> Alcotest.fail "fig4-3proc has no schedule bound"
  | Some bound ->
      check_bool "fewer schedules than the multinomial bound" true
        (r.S.stats.Explore.explored < bound)

(* The two seeded ABA mutants are caught, and the announcement guard
   defeats the same wraparound scripts. *)
let verdicts () =
  List.iter
    (fun (id, verdict) ->
      let r = Test_support.run_scenario id in
      Alcotest.(check string) (id ^ " verdict") verdict r.S.verdict;
      if verdict = "violation" then
        check_bool (id ^ " violation has a schedule") true
          (r.S.violation_schedule <> None))
    [
      ("aba-unsafe-tag2", "violation");
      ("announced-plain-wrap", "violation");
      ("announced-guarded-wrap", "ok");
    ]

let json_keys () =
  let keys = function
    | Json.Obj fields -> List.map fst fields
    | _ -> Alcotest.fail "expected a JSON object"
  in
  let field name = function
    | Json.Obj fields -> List.assoc name fields
    | _ -> Alcotest.fail "expected a JSON object"
  in
  let has_all what want got =
    List.iter
      (fun k -> check_bool (what ^ " has " ^ k) true (List.mem k got))
      want
  in
  let doc = S.suite_to_json (Lazy.force smoke) in
  has_all "suite" [ "suite"; "all_passed"; "scenarios" ] (keys doc);
  check_bool "suite name" true (field "suite" doc = Json.Str "model-check");
  check_bool "all_passed" true (field "all_passed" doc = Json.Bool true);
  match field "scenarios" doc with
  | Json.Arr scenarios ->
      List.iter
        (fun s ->
          has_all "scenario"
            [
              "name"; "description"; "n"; "expect_violation"; "verdict";
              "passed"; "schedules"; "violation_schedule"; "stats";
            ]
            (keys s);
          has_all "stats"
            [
              "explored"; "schedule_bound"; "reduction_factor";
              "sleep_set_prunes"; "preemption_prunes"; "races_detected";
              "crashes_injected"; "max_depth_reached"; "rebuilds";
              "actions_executed"; "actions_replayed";
            ]
            (keys (field "stats" s)))
        scenarios
  | _ -> Alcotest.fail "scenarios is not an array"

let suite =
  [
    Alcotest.test_case "smoke suite: every verdict as expected, within bound"
      `Quick suite_passes;
    Alcotest.test_case "fig4-3proc: DPOR explores fewer than the bound" `Quick
      reduction_bites;
    Alcotest.test_case "ABA mutants caught, announced guard holds" `Quick
      verdicts;
    Alcotest.test_case "suite JSON carries every documented key" `Quick
      json_keys;
  ]

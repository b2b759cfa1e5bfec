(** The contention-management layer: backoff bounds, padded-array layout,
    the start barrier, and the JSON helper results are emitted
    with.  These are infrastructure the differential suites deliberately
    cannot see (seq/sim run with [Backoff.Noop] and no padding), so they
    get their own direct properties here. *)

open Aba_primitives

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ----- Backoff ----- *)

(* The spin count must stay inside [min, max] no matter how many failures
   are recorded, and reset must restore the floor exactly. *)
let backoff_bounds =
  qtest "backoff: current stays within [min, max]; reset restores min"
    QCheck2.Gen.(
      triple (int_range 1 64) (int_range 0 512) (int_range 0 64))
    (fun (min_spins, extra, failures) ->
      let max_spins = min_spins + extra in
      let bo = Backoff.create ~min:min_spins ~max:max_spins () in
      let ok = ref (Backoff.current bo = min_spins) in
      for _ = 1 to failures do
        Backoff.once bo;
        let c = Backoff.current bo in
        if c < min_spins || c > max_spins then ok := false
      done;
      Backoff.reset bo;
      !ok && Backoff.current bo = min_spins)

let backoff_doubles () =
  let bo = Backoff.create ~min:2 ~max:16 () in
  let observed =
    List.map
      (fun () ->
        let c = Backoff.current bo in
        Backoff.once bo;
        c)
      [ (); (); (); (); (); () ]
  in
  Alcotest.(check (list int)) "doubling clamps at max" [ 2; 4; 8; 16; 16; 16 ]
    observed

let backoff_invalid () =
  Alcotest.check_raises "min 0 rejected"
    (Invalid_argument "Backoff.create: min must be at least 1") (fun () ->
      ignore (Backoff.create ~min:0 ~max:4 ()));
  Alcotest.check_raises "max < min rejected"
    (Invalid_argument "Backoff.create: max must be at least min") (fun () ->
      ignore (Backoff.create ~min:8 ~max:4 ()))

(* The Noop singleton is shared across domains, so once/reset must never
   mutate it. *)
let backoff_noop_inert () =
  let bo = Backoff.make Backoff.Noop in
  Backoff.once bo;
  Backoff.once bo;
  Alcotest.(check int) "noop never spins" 0 (Backoff.current bo);
  Backoff.reset bo;
  Alcotest.(check int) "noop reset is inert" 0 (Backoff.current bo)

(* ----- Padded ----- *)

let padded_copy_roundtrip () =
  Alcotest.(check int) "immediates pass through" 42 (Padded.copy 42);
  let a = Padded.atomic 7 in
  Alcotest.(check int) "padded atomic holds its value" 7 (Atomic.get a);
  Atomic.set a 9;
  Alcotest.(check int) "padded atomic is mutable" 9 (Atomic.get a);
  let s = Padded.copy "hello" in
  Alcotest.(check string) "strings (no-scan blocks) pass through" "hello" s;
  let arr = Padded.atomic_array 5 (-1) in
  Array.iteri
    (fun i c ->
      Alcotest.(check int)
        (Printf.sprintf "atomic_array.(%d) init" i)
        (-1) (Atomic.get c))
    arr

(* Every slot of a strided array is independent: writing a permutation and
   reading it back must round-trip for both strides. *)
let padded_array_roundtrip =
  qtest "padded array: set/get round-trips at both strides"
    QCheck2.Gen.(pair bool (list_size (int_range 0 40) small_int))
    (fun (padded, xs) ->
      let n = List.length xs in
      let t = Padded.make_array ~padded n (-1) in
      List.iteri (fun i x -> Padded.set t i x) xs;
      Padded.length t = n
      && Padded.stride t = (if padded then Padded.line_words else 1)
      && List.for_all2 ( = ) xs (List.init n (Padded.get t)))

let padded_array_bounds () =
  let t = Padded.make_array ~padded:true 3 0 in
  Alcotest.check_raises "get past length"
    (Invalid_argument "Padded.get: index out of bounds") (fun () ->
      ignore (Padded.get t 3));
  Alcotest.check_raises "negative set"
    (Invalid_argument "Padded.set: index out of bounds") (fun () ->
      Padded.set t (-1) 0)

(* ----- Barrier ----- *)

let barrier_releases_all () =
  let n = 4 in
  let barrier = Aba_runtime.Harness.Barrier.create ~parties:n in
  let after = Atomic.make 0 in
  let _ =
    Aba_runtime.Harness.run_domains ~n (fun _ ->
        Aba_runtime.Harness.Barrier.wait barrier;
        Atomic.incr after)
  in
  Alcotest.(check int) "all parties pass the barrier" n (Atomic.get after)

let barrier_invalid () =
  Alcotest.check_raises "parties 0 rejected"
    (Invalid_argument "Harness.Barrier.create: parties < 1") (fun () ->
      ignore (Aba_runtime.Harness.Barrier.create ~parties:0))

(* The old barrier was single-shot (the arrival count never reset), so a
   second wait on the same instance deadlocked.  The generation-based
   barrier must release every round. *)
let barrier_single_party_reuse () =
  let barrier = Aba_runtime.Harness.Barrier.create ~parties:1 in
  for round = 1 to 5 do
    Aba_runtime.Harness.Barrier.wait barrier;
    Alcotest.(check pass) (Printf.sprintf "round %d releases" round) () ()
  done

(* Two-round exerciser: the first barrier separates the [a] increments
   from the reads (every domain must see all [n]), the second separates
   phase 1 from the [b] increments, the third the [b] increments from
   their reads.  Any failed release deadlocks the run; a premature
   release shows up as a torn count. *)
let barrier_reuse_across_rounds () =
  let n = 4 in
  let barrier = Aba_runtime.Harness.Barrier.create ~parties:n in
  let a = Atomic.make 0 and b = Atomic.make 0 in
  let a_seen = Atomic.make 0 and b_seen = Atomic.make 0 in
  let _ =
    Aba_runtime.Harness.run_domains ~n (fun _ ->
        Atomic.incr a;
        Aba_runtime.Harness.Barrier.wait barrier;
        if Atomic.get a = n then Atomic.incr a_seen;
        Aba_runtime.Harness.Barrier.wait barrier;
        Atomic.incr b;
        Aba_runtime.Harness.Barrier.wait barrier;
        if Atomic.get b = n then Atomic.incr b_seen)
  in
  Alcotest.(check int) "every domain saw all of round 1" n (Atomic.get a_seen);
  Alcotest.(check int) "every domain saw all of round 2" n (Atomic.get b_seen)

(* ----- Json ----- *)

module Json = Aba_experiments.Json

let json_escaping () =
  Alcotest.(check string)
    "quotes and backslashes" "a\\\"b\\\\c"
    (Json.escape_string "a\"b\\c");
  Alcotest.(check string)
    "control characters" "tab\\there\\nnl\\u0001"
    (Json.escape_string "tab\there\nnl\001")

let json_structure () =
  let doc =
    Json.Obj
      [
        ("name", Json.Str "fig3 \"packed\"");
        ("ok", Json.Bool true);
        ("none", Json.Null);
        ("rows", Json.Arr [ Json.Int 1; Json.Float 2.5 ]);
        ("empty", Json.Arr []);
      ]
  in
  Alcotest.(check string)
    "nested document serialises"
    "{\n\
    \  \"name\": \"fig3 \\\"packed\\\"\",\n\
    \  \"ok\": true,\n\
    \  \"none\": null,\n\
    \  \"rows\": [\n\
    \    1,\n\
    \    2.5\n\
    \  ],\n\
    \  \"empty\": []\n\
     }\n"
    (Json.to_string doc)

let json_non_finite () =
  Alcotest.(check string)
    "nan and infinity become null" "[\n  null,\n  null,\n  1\n]\n"
    (Json.to_string
       (Json.Arr [ Json.Float Float.nan; Json.Float Float.infinity; Json.Int 1 ]))

let suite =
  [
    backoff_bounds;
    Alcotest.test_case "backoff doubling sequence" `Quick backoff_doubles;
    Alcotest.test_case "backoff argument validation" `Quick backoff_invalid;
    Alcotest.test_case "noop backoff is inert" `Quick backoff_noop_inert;
    Alcotest.test_case "padded copy round-trips" `Quick padded_copy_roundtrip;
    padded_array_roundtrip;
    Alcotest.test_case "padded array bounds checks" `Quick padded_array_bounds;
    Alcotest.test_case "barrier releases all parties" `Quick
      barrier_releases_all;
    Alcotest.test_case "barrier argument validation" `Quick barrier_invalid;
    Alcotest.test_case "barrier reuse, single party" `Quick
      barrier_single_party_reuse;
    Alcotest.test_case "barrier reuse across rounds, 4 domains" `Quick
      barrier_reuse_across_rounds;
    Alcotest.test_case "json string escaping" `Quick json_escaping;
    Alcotest.test_case "json document structure" `Quick json_structure;
    Alcotest.test_case "json non-finite floats" `Quick json_non_finite;
  ]

(* Workload [certify]: single-domain model checking.  [Explore.dpor]
   certifies the named [Scenarios] suite plus seeded random Figure 3 and
   Figure 4 scripts; every verdict must equal its expectation.  Only the
   simulator works here, so this is the workload a DPOR change moves. *)

open Util
module E = Aba_sim.Explore
module W = Aba_experiments.Workloads
module I = Aba_core.Instances
module Aba_check = Aba_spec.Lin_check.Make (Aba_spec.Aba_register_spec)
module Llsc_check = Aba_spec.Lin_check.Make (Aba_spec.Llsc_spec)

(* The random part of the workload.  The DPOR cost of a script is set by
   its pattern of operation kinds (which process reads, writes, links or
   validates, in what order): no algorithm branches on the values.  So
   the seeded draws from [Workloads.random_*_scripts] are kept until every
   kind pattern of each shape has [quota] scripts, and the seed decides
   only the values and which draw fills each slot.  Every seed then
   certifies the same mix, and its timing does not swing with the draw. *)
type shape = { fig : [ `Fig3 | `Fig4 ]; n : int; ops_per_pid : int; quota : int }

let shapes =
  [
    { fig = `Fig3; n = 3; ops_per_pid = 1; quota = 4 };
    { fig = `Fig3; n = 4; ops_per_pid = 1; quota = 2 };
    { fig = `Fig4; n = 3; ops_per_pid = 2; quota = 2 };
    { fig = `Fig4; n = 4; ops_per_pid = 1; quota = 4 };
  ]

type item = { name : string; run : unit -> bool * E.dpor_stats }

(* A random script must certify outright: [Ok], not a violation and not a
   budget cut. *)
let verdict_ok = function E.Ok _ -> true | _ -> false

(* Draw with [draw] until each of the [kinds^(n*ops_per_pid)] patterns
   has [quota] scripts. *)
let stratified ~draw ~kind ~kinds sh =
  let seen = Hashtbl.create 128 in
  let rec pow b e = if e = 0 then 1 else b * pow b (e - 1) in
  let total = pow kinds (sh.n * sh.ops_per_pid) * sh.quota in
  let out = ref [] and got = ref 0 in
  while !got < total do
    let s = draw () in
    let key = Array.map (List.map kind) s in
    let c = Option.value (Hashtbl.find_opt seen key) ~default:0 in
    if c < sh.quota then begin
      Hashtbl.replace seen key (c + 1);
      out := s :: !out;
      incr got
    end
  done;
  List.rev !out

let random_items ~seed =
  let rng = Random.State.make [| seed; 0xce47 |] in
  List.concat_map
    (fun sh ->
      let n = sh.n and ops_per_pid = sh.ops_per_pid in
      let item i run =
        let fig = match sh.fig with `Fig3 -> "fig3" | `Fig4 -> "fig4" in
        { name = Printf.sprintf "%s-n%d-x%d-%d" fig n ops_per_pid i; run }
      in
      match sh.fig with
      | `Fig3 ->
          stratified sh ~kinds:3
            ~kind:(function Aba_spec.Llsc_spec.Ll -> 0 | Sc _ -> 1 | Vl -> 2)
            ~draw:(fun () -> W.random_llsc_scripts rng ~n ~ops_per_pid)
          |> List.mapi (fun i scripts ->
                 item i (fun () ->
                     let r =
                       E.dpor ~make:(W.llsc_explore_instance I.llsc_fig3 ~n)
                         ~scripts ~check:(Llsc_check.check_ok ~n) ()
                     in
                     (verdict_ok r.verdict, r.stats)))
      | `Fig4 ->
          stratified sh ~kinds:2
            ~kind:(function Aba_spec.Aba_register_spec.DRead -> 0 | DWrite _ -> 1)
            ~draw:(fun () -> W.random_aba_scripts rng ~n ~ops_per_pid)
          |> List.mapi (fun i scripts ->
                 item i (fun () ->
                     let r =
                       E.dpor ~make:(W.aba_explore_instance I.aba_fig4 ~n)
                         ~scripts ~check:(Aba_check.check_ok ~n) ()
                     in
                     (verdict_ok r.verdict, r.stats))))
    shapes

let scenario_items () =
  List.map
    (fun (s : Aba_experiments.Scenarios.t) ->
      {
        name = s.id;
        run =
          (fun () ->
            let r = s.run () in
            (r.passed, r.stats));
      })
    (Aba_experiments.Scenarios.all ())

let setup ~seed () = Array.of_list (scenario_items () @ random_items ~seed)

type pass = {
  secs : float;
  per_item : int array;  (** ns per item *)
  words : float;
  failed : int;
  stats : E.dpor_stats list;
}

let run_pass items =
  let failed = ref 0 and stats = ref [] in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let per_item =
    Array.map
      (fun it ->
        (* Each item starts from a collected heap, so it is not charged
           for collecting its predecessor's garbage. *)
        Gc.full_major ();
        let s = now () in
        let ok, st = it.run () in
        let d = now () - s in
        if not ok then begin
          incr failed;
          Printf.printf "  VERDICT MISMATCH: %s\n" it.name
        end;
        stats := st :: !stats;
        d)
      items
  in
  let secs = seconds_since t0 in
  {
    secs;
    per_item;
    words = (Gc.minor_words () -. w0) /. float_of_int (Array.length items);
    failed = !failed;
    stats = !stats;
  }

let passes ?(between = ignore) items ~seconds =
  let deadline = now () + int_of_float (seconds *. 1e9) in
  let ps = ref [] in
  while !ps = [] || now () < deadline do
    ps := run_pass items :: !ps;
    between ()
  done;
  !ps

let e2e ~seed ~seconds m =
  let items = first_setup (setup ~seed) in
  let ps = passes ~between:(fun () -> ignore (timed_setup (setup ~seed))) items ~seconds in
  let n = Array.length items in
  (* Each item's interquartile-mean time over the passes, then exact
     percentiles over the items. *)
  let per_item =
    Array.init n (fun i ->
        int_of_float (interquartile_mean (List.map (fun p -> float_of_int p.per_item.(i)) ps)))
  in
  sort_ints per_item;
  let certify_s = interquartile_mean (List.map (fun p -> p.secs) ps) in
  let failed = List.fold_left (fun acc p -> acc + p.failed) 0 ps in
  Printf.printf "certify: %d items (%d scenarios), %d passes\n" n
    (List.length (Aba_experiments.Scenarios.all ()))
    (List.length ps);
  print_percentiles "per-item certify time" per_item;
  Printf.printf "  certify_s %.6f s\n" certify_s;
  add m "lat_p50_ns" "ns" (float_of_int (rank per_item 0.5));
  add m "lat_p90_ns" "ns" (float_of_int (rank per_item 0.9));
  add m "op_p99_ns" "ns" (float_of_int (rank per_item 0.99));
  add m "ops_per_s" "ops/s" (float_of_int n /. certify_s);
  add m "alloc_words_per_op" "words" (interquartile_mean (List.map (fun p -> p.words) ps));
  add m "setup_s" "s" (setup_s ());
  (n * List.length ps, failed)

(* The traced pass re-runs the workload with each [dpor] call as a span
   and sums the engine's own reduction counters. *)
let traced ~seed ~seconds =
  let items = setup ~seed () in
  let base = passes items ~seconds:(seconds *. 0.3) in
  let traced = passes items ~seconds:(seconds *. 0.7) in
  let p = List.hd traced in
  let sum f = List.fold_left (fun acc (s : E.dpor_stats) -> acc + f s) 0 p.stats in
  let schedules = sum (fun s -> s.explored) in
  let executed = sum (fun s -> s.actions_executed) in
  let replayed = sum (fun s -> s.actions_replayed) in
  let secs l = interquartile_mean (List.map (fun p -> p.secs) l) in
  let layer =
    [
      ("explore.schedules", float_of_int schedules, "count");
      ("explore.schedules_per_s", float_of_int schedules /. secs traced, "1/s");
      ("explore.actions_per_schedule",
        float_of_int (executed + replayed) /. float_of_int (max 1 schedules), "count");
      ("explore.replayed_frac",
        float_of_int replayed /. float_of_int (max 1 (executed + replayed)), "ratio");
      ("explore.sleep_set_prunes", float_of_int (sum (fun s -> s.sleep_set_prunes)), "count");
      ("explore.races_detected", float_of_int (sum (fun s -> s.races_detected)), "count");
      ("explore.rebuilds", float_of_int (sum (fun s -> s.rebuilds)), "count");
    ]
  in
  let failed = List.fold_left (fun acc p -> acc + p.failed) 0 (base @ traced) in
  let attempted = Array.length items * (List.length base + List.length traced) in
  (layer, (secs traced /. secs base) -. 1., attempted, failed)

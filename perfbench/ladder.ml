(* The cost ladder: each layer's public call timed alone, uncontended, in
   ns/op and minor-heap words/op, plus the paper's own cost measure —
   shared steps per op — counted by a [Mem_intf.S] wrapper over [Rt_mem]
   that instantiates the same Figure 3 / Figure 4 functors the runtime
   uses. *)

open Util
open Aba_primitives
module Rt = Aba_runtime

(* ----- shared-step counting ----- *)

module Counting (M : Mem_intf.S) : sig
  include Mem_intf.S

  val steps : int ref
end = struct
  let steps = ref 0
  let step () = incr steps
  let mem_name = "counting-" ^ M.mem_name

  type 'a register = 'a M.register

  let make_register = M.make_register
  let read r = step (); M.read r
  let write r v = step (); M.write r v

  type 'a cas = 'a M.cas

  let make_cas = M.make_cas
  let cas_read c = step (); M.cas_read c
  let cas c ~expect ~update = step (); M.cas c ~expect ~update
  let cas_write c v = step (); M.cas_write c v
  let make_cas_packed = M.make_cas_packed
  let cas_read_packed c = step (); M.cas_read_packed c
  let cas_packed c ~expect ~update = step (); M.cas_packed c ~expect ~update

  type 'a cas2 = 'a M.cas2

  let make_cas2 = M.make_cas2
  let cas2_read w = step (); M.cas2_read w

  let cas2 w ~expect ~expect_tag ~update ~update_tag =
    step ();
    M.cas2 w ~expect ~expect_tag ~update ~update_tag

  let cas2_pack = M.cas2_pack
  let cas2_read_packed w = step (); M.cas2_read_packed w
  let cas2_packed w ~expect ~update = step (); M.cas2_packed w ~expect ~update

  type 'a llsc = 'a M.llsc

  let make_llsc = M.make_llsc
  let ll o ~pid = step (); M.ll o ~pid
  let sc o ~pid v = step (); M.sc o ~pid v
  let vl o ~pid = step (); M.vl o ~pid
  let space = M.space
end

module C = Counting ((val Rt_mem.make ~n:2 ()))
module Fig3_counted = Aba_core.Llsc_from_cas.Make (C)
module Fig4_counted = Aba_core.Aba_from_registers.Make (C)

let reps = 40

(* Uncontended op sequences at n = 2: pid 0 runs [reps] LL/SC pairs on
   Figure 3; pid 0 writes and pid 1 reads Figure 4 [reps] times. *)
let counted_steps () =
  let count f =
    C.steps := 0;
    f ();
    !C.steps
  in
  let l = Fig3_counted.create ~n:2 () in
  let llsc =
    count (fun () ->
        for i = 1 to reps do
          ignore (Fig3_counted.ll l ~pid:0 : int);
          ignore (Fig3_counted.sc l ~pid:0 (i land 127) : bool)
        done)
  in
  let r = Fig4_counted.create ~n:2 () in
  let dwrite =
    count (fun () -> for i = 1 to reps do Fig4_counted.dwrite r ~pid:0 (i land 127) done)
  in
  let dread =
    count (fun () -> for _ = 1 to reps do ignore (Fig4_counted.dread r ~pid:1) done)
  in
  (llsc, dwrite, dread)

(* The same sequences in the simulator the E2 step table uses. *)
let sim_steps () =
  let module Sim = Aba_sim.Sim in
  let solo sim p call =
    let pr = Sim.invoke sim p call in
    Sim.run_solo sim p;
    Sim.steps_of pr
  in
  let sum k f = List.fold_left ( + ) 0 (List.init k f) in
  let sim = Sim.create ~n:2 in
  let l = Aba_core.Instances.llsc_in_sim Aba_core.Instances.llsc_fig3 sim ~n:2 in
  let llsc =
    sum reps (fun i ->
        let ll = solo sim 0 (fun () -> ignore (l.ll 0 : int)) in
        ll + solo sim 0 (fun () -> ignore (l.sc 0 ((i + 1) land 127) : bool)))
  in
  let sim = Sim.create ~n:2 in
  let r = Aba_core.Instances.aba_in_sim Aba_core.Instances.aba_fig4 sim ~n:2 in
  let dwrite = sum reps (fun i -> solo sim 0 (fun () -> r.dwrite 0 ((i + 1) land 127))) in
  let dread = sum reps (fun _ -> solo sim 1 (fun () -> ignore (r.dread 1 : int * bool))) in
  (llsc, dwrite, dread)

(* Returns the three per-op step counts and the number of failed checks:
   the wrapper must match the simulator on the same sequences, and
   Figure 4's counts — schedule-independent — must also match the worst
   case the E2 step table reports (at its smallest size, n = 3). *)
let self_check () =
  let ((cl, cw, cr) as c) = counted_steps () in
  let s = sim_steps () in
  let e2 = Aba_lowerbound.Tradeoff.measure_aba ~label:"fig4" Aba_core.Instances.aba_fig4 ~n:3 in
  let per k = float_of_int k /. float_of_int reps in
  let checks =
    [
      ("counting wrapper = simulator (fig3 LL/SC, fig4 DWrite/DRead)", c = s);
      ("fig4 DRead steps = E2 table", cr = e2.worst_dread * reps);
      ("fig4 DWrite steps = E2 table", cw = e2.worst_dwrite * reps);
    ]
  in
  List.iter
    (fun (what, ok) -> Printf.printf "  self-check %-60s %s\n" what (if ok then "ok" else "FAILED"))
    checks;
  let failed = List.length (List.filter (fun (_, ok) -> not ok) checks) in
  ((per cl /. 2., per cr, per cw), failed)

(* ----- timed rungs ----- *)

let iters = 200_000

(* Median ns/op over seven timed runs of [iters] ops; words/op from the
   minor-heap counter around one run. *)
let time_rung f =
  f 1000;
  let samples =
    List.init 7 (fun _ ->
        let t0 = now () in
        f iters;
        float_of_int (now () - t0) /. float_of_int iters)
  in
  let w0 = Gc.minor_words () in
  f iters;
  let words = (Gc.minor_words () -. w0) /. float_of_int iters in
  (median_float samples, words)

(* Each rung builds its structure, then returns the loop that runs [k]
   calls on it. *)

let rt_mem_cas () =
  let module M = (val Rt_mem.make ~n:1 ()) in
  let word =
    M.make_cas_packed ~name:"c" ~show:string_of_int
      ~codec:{ Mem_intf.encode = Fun.id; decode = Fun.id } 0
  in
  fun k ->
    for _ = 1 to k do
      let v = M.cas_read_packed word in
      ignore (M.cas_packed word ~expect:v ~update:(v + 1) : bool)
    done

let take_put () =
  let fl = Rt.Rt_free_list.create ~n:1 ~capacity:64 () in
  fun k ->
    for _ = 1 to k do
      Rt.Rt_free_list.put fl ~pid:0 (Rt.Rt_free_list.take_idx fl ~pid:0)
    done

(* Taken by pid 0 and put back by pid 1: pid 1's cache slot fills, so
   the index travels through the shared pool as a cross-domain handoff
   would. *)
let cross_take_put () =
  let fl = Rt.Rt_free_list.create ~n:2 ~capacity:64 () in
  fun k ->
    for _ = 1 to k do
      Rt.Rt_free_list.put fl ~pid:1 (Rt.Rt_free_list.take_idx fl ~pid:0)
    done

let treiber_push_pop () =
  let t = Rt.Rt_treiber.create ~protection:Service_open.protection ~capacity:64 ~n:1 () in
  fun k ->
    for i = 1 to k do
      ignore (Rt.Rt_treiber.push t ~pid:0 i : bool);
      ignore (Rt.Rt_treiber.pop_or t ~pid:0 ~default:(-1) : int)
    done

let service_push_pop () =
  let module Sv = Service_open.Sv in
  let svc = Service_open.make_service () and key = Service_open.hot_key in
  fun k ->
    for i = 1 to k do
      ignore (Sv.push svc ~pid:0 ~key i : bool);
      ignore (Sv.pop svc ~pid:0 ~key : int option)
    done

(* Figure 3 exactly as [Rt_reclaim] builds its free-stack word. *)
let ll_sc () =
  let l =
    Rt.Rt_llsc.Packed_fig3.create ~padded:true ~backoff:Backoff.default_spec
      ~n:2 ~init:0 ()
  in
  fun k ->
    for i = 1 to k do
      ignore (Rt.Rt_llsc.Packed_fig3.ll l ~pid:0 : int);
      ignore (Rt.Rt_llsc.Packed_fig3.sc l ~pid:0 (i land 0xffff) : bool)
    done

(* Figure 4 exactly as [Rt_reclaim] builds its announcements. *)
let fig4 () = Rt.Rt_aba.Fig4.create ~padded:true ~n:2 0

let dwrite () =
  let r = fig4 () in
  fun k ->
    for i = 1 to k do
      Rt.Rt_aba.Fig4.dwrite r ~pid:0 (i land 127)
    done

let dread () =
  let r = fig4 () in
  fun k ->
    for _ = 1 to k do
      ignore (Rt.Rt_aba.Fig4.dread r ~pid:1 : int * bool)
    done

let alloc_retire () =
  let r = Rt.Rt_reclaim.create ~n:2 ~capacity:64 Rt.Rt_reclaim.Guarded in
  fun k ->
    for _ = 1 to k do
      match Rt.Rt_reclaim.alloc r ~pid:0 with
      | Some i -> Rt.Rt_reclaim.retire r ~pid:0 i
      | None -> failwith "ladder: guarded reclaimer exhausted"
    done

let enq_deq () =
  let q =
    Rt.Rt_ms_queue.create
      ~protection:(Rt.Rt_ms_queue.Reclaimed Rt.Rt_reclaim.Guarded) ~capacity:64
      ~n:2 ()
  in
  fun k ->
    for i = 1 to k do
      ignore (Rt.Rt_ms_queue.enqueue q ~pid:0 i : bool);
      ignore (Rt.Rt_ms_queue.dequeue q ~pid:1 : int option)
    done

(* Rung order follows the layering: a rung's time includes the rungs
   below it that its call goes through. *)
let rungs =
  [
    ("rt_mem.cas", rt_mem_cas);
    ("rt_free_list.take_put", take_put);
    ("rt_treiber.push_pop", treiber_push_pop);
    ("service.push_pop", service_push_pop);
    ("rt_llsc.ll_sc", ll_sc);
    ("rt_aba.dread", dread);
    ("rt_aba.dwrite", dwrite);
    ("rt_free_list.cross_take_put", cross_take_put);
    ("rt_reclaim.alloc_retire", alloc_retire);
    ("rt_ms_queue.enq_deq", enq_deq);
  ]

(* Adds every rung and step count to [m]; returns the failed checks. *)
let run m =
  let timed = List.map (fun (name, build) -> (name, time_rung (build ()))) rungs in
  Printf.printf "cost ladder (uncontended, %d ops per sample):\n" iters;
  List.iter
    (fun (name, (ns, words)) ->
      Printf.printf "  %-30s %10.2f ns/op %8.3f words/op\n" name ns words;
      add m (name ^ "_ns") "ns" ns;
      add m (name ^ "_words") "words" words)
    timed;
  let ns name = fst (List.assoc name timed) in
  add m "service.router_self_ns" "ns" (ns "service.push_pop" -. ns "rt_treiber.push_pop");
  let (llsc_steps, dread_steps, dwrite_steps), failed = self_check () in
  add m "rt_llsc.steps_per_op" "count" llsc_steps;
  add m "rt_aba.dread_steps" "count" dread_steps;
  add m "rt_aba.dwrite_steps" "count" dwrite_steps;
  failed

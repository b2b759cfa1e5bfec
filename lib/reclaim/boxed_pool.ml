(** GC-safe lock-free pool of node names (internal substrate).

    A Treiber stack of freshly allocated cons cells CASed by physical
    equality: holding the expected cell keeps it alive, so the GC can
    never re-issue its address and physical CAS on live pointers cannot
    ABA.  This is the free pool of the {!Hazard} and {!Epoch}
    reclaimers, whose own grace periods make a bounded pool
    unnecessary; the {!Guarded} scheme instead uses an allocation-free
    stack guarded by the paper's Figure-3 word.

    Both loops are flat [while] retries — no stack growth no matter how
    contended the head is. *)

type cell = Nil | Cons of { index : int; rest : cell }

type t = cell Atomic.t

let create () = Atomic.make Nil

let put t index =
  let done_ = ref false in
  while not !done_ do
    let old = Atomic.get t in
    done_ := Atomic.compare_and_set t old (Cons { index; rest = old })
  done

(* Every name in [0, capacity), pushed so that [take] yields 0 first. *)
let full ~capacity =
  let t = create () in
  for i = capacity - 1 downto 0 do
    put t i
  done;
  t

let take t =
  let result = ref None in
  let done_ = ref false in
  while not !done_ do
    match Atomic.get t with
    | Nil -> done_ := true
    | Cons { index; rest } as old ->
        if Atomic.compare_and_set t old rest then begin
          result := Some index;
          done_ := true
        end
  done;
  !result

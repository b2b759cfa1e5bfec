(** Reclamation guarded by the paper's constructions, made load-bearing.

    The scheme is {!Hazard.Make}'s protocol, but every shared word it
    relies on is one of the paper's objects rather than a raw hardware
    word:

    - each protection slot is a single-writer {e ABA-detecting register}
      (Figure 4 / Theorem 3): the owner announces the node it is about
      to dereference with [DWrite], and scans read the announcements
      with [DRead].  The register's bounded sequence-number machinery —
      not an unbounded stamp — is what makes the announcement word safe
      to reuse forever;
    - the shared free stack of node names is driven through the
      {e Figure 3} LL/SC word built from one bounded CAS (Theorem 2):
      [put]/[take] are LL/SC retry loops, so the stack head cannot ABA
      even though node names repeat by design.

    The result sits exactly on the paper's time–space tradeoff: each
    protection costs a Figure-4 [DWrite] (O(n) sequence bookkeeping,
    n+1 registers) and each pool operation an LL/SC pass over the
    Figure-3 word (O(n) under interference, one word) — measurably
    slower than {!Hazard}'s raw stores, in exchange for running
    entirely on bounded base objects. *)

open Aba_primitives

(* A scan only asks which name is announced now, so [DRead]'s change
   flag is not needed. *)
module Fig4_slot (D : Reclaim_intf.DETECT) = struct
  type t = D.t

  let create = D.create
  let write = D.dwrite
  let read t ~pid = fst (D.dread t ~pid)
end

module Llsc_stack (L : Reclaim_intf.LLSC) = struct
  type t = {
    head : L.t;  (** free-stack top as (index + 1), 0 = empty *)
    nexts : int array;  (** successor as (index + 1), owner: stack push *)
    bo : Backoff.t array;  (** per-pid backoff for the LL/SC retry loops *)
  }

  let create ~n ~capacity =
    if n < 62 && capacity + 1 >= 1 lsl (62 - n) then
      invalid_arg "Guarded.create: capacity exceeds the figure-3 value range";
    let t =
      {
        head = L.create ~n ~init:0;
        nexts = Array.make capacity 0;
        bo = Common.backoffs n;
      }
    in
    (* Seed the free stack single-handedly: pid 0's LL/SC cannot fail
       with no interference. *)
    for i = capacity - 1 downto 0 do
      let pushed = ref false in
      while not !pushed do
        let h = L.ll t.head ~pid:0 in
        t.nexts.(i) <- h;
        pushed := L.sc t.head ~pid:0 (i + 1)
      done
    done;
    t

  let put t ~pid i =
    let bo = t.bo.(pid) in
    Backoff.reset bo;
    let pushed = ref false in
    while not !pushed do
      let h = L.ll t.head ~pid in
      t.nexts.(i) <- h;
      pushed := L.sc t.head ~pid (i + 1);
      if not !pushed then Backoff.once bo
    done

  (* LL/SC makes the pop immune to reuse of [h]: any interfering SC —
     push or pop — invalidates the link, so a stale [nexts] read can
     never be installed.  This is the paper's cure for exactly the
     free-list ABA a plain CAS-driven index stack is susceptible to. *)
  let take t ~pid =
    let bo = t.bo.(pid) in
    Backoff.reset bo;
    let result = ref None in
    let done_ = ref false in
    while not !done_ do
      let h = L.ll t.head ~pid in
      if h = 0 then done_ := true
      else begin
        let nxt = t.nexts.(h - 1) in
        if L.sc t.head ~pid nxt then begin
          result := Some (h - 1);
          done_ := true
        end
        else Backoff.once bo
      end
    done;
    !result
end

module Make (L : Reclaim_intf.LLSC) (D : Reclaim_intf.DETECT) =
  Hazard.Make (Fig4_slot (D)) (Llsc_stack (L))

(* A single-index per-pid cache in front of the shared reclaimer pool.
   The balanced hot path (every pop feeds the next push of the same
   domain) runs entirely on the owner's padded atomic slot — one
   exchange to take, one load-and-store to put, no allocation — while
   the shared pool only sees the cold start, imbalance spills and the
   cross-domain steals that keep capacity exact. *)
type t = {
  shared : Rt_reclaim.t;
  cache : int Atomic.t array;  (** one cached free index per pid, -1 = none *)
}

let create ?(scheme = Rt_reclaim.Guarded) ?slots ?obs ~n ~capacity () =
  {
    shared = Rt_reclaim.create ?slots ?obs ~n ~capacity scheme;
    cache = Aba_primitives.Padded.atomic_array n (-1);
  }

(* Only the owner ever stores an index into its slot; everyone else only
   exchanges the slot to empty.  So a take is one exchange (it either
   wins the cached index or finds the slot empty), and a put can use a
   plain load-then-store: between the owner's load of -1 and its store,
   no other domain can have written a value there. *)

let rec sweep cache p =
  if p < 0 then -1
  else
    let v = Atomic.exchange cache.(p) (-1) in
    if v >= 0 then v else sweep cache (p - 1)

let take_idx t ~pid =
  let v = Atomic.exchange t.cache.(pid) (-1) in
  if v >= 0 then v
  else
    match Rt_reclaim.alloc t.shared ~pid with
    | Some i -> i
    | None ->
        (* The shared pool is dry, but indices parked in other pids'
           caches are still free: steal one so a full structure is
           reported full only when every index is really in it. *)
        sweep t.cache (Array.length t.cache - 1)

let take t ~pid =
  let i = take_idx t ~pid in
  if i < 0 then None else Some i

let put t ~pid i =
  let c = t.cache.(pid) in
  if Atomic.get c = -1 then Atomic.set c i
  else Rt_reclaim.recycle t.shared ~pid i

let reclaimer t = t.shared

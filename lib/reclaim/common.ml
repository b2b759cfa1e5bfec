(** Code every reclamation scheme shares (internal): the [create]
    argument checks, the per-pid backoff array, and — through {!Make} —
    the validated-read [acquire] loop and the take-reclaim-take
    [alloc]. *)

open Aba_primitives

let check ~n ~slots ~capacity =
  if n <= 0 then invalid_arg "Reclaim.create: n must be positive";
  if slots <= 0 then invalid_arg "Reclaim.create: slots must be positive";
  if capacity <= 0 then invalid_arg "Reclaim.create: capacity must be positive"

let backoffs n =
  Array.init n (fun _ -> Padded.copy (Backoff.make Backoff.default_spec))

module Make (S : sig
  type t

  val bo : t -> Backoff.t array
  val protect : t -> pid:int -> slot:int -> int -> unit
  val take : t -> pid:int -> int option

  val reclaim : t -> pid:int -> unit
  (** Return whatever of [pid]'s limbo is safe to the free pool. *)
end) =
struct
  let acquire t ~pid ~slot ~read =
    let bo = (S.bo t).(pid) in
    Backoff.reset bo;
    let rec loop () =
      let i = read () in
      if i < 0 then i
      else begin
        S.protect t ~pid ~slot i;
        if read () = i then i
        else begin
          (* The source moved under us: somebody is updating it, so pause
             before re-validating instead of hammering the line. *)
          Backoff.once bo;
          loop ()
        end
      end
    in
    loop ()

  let alloc t ~pid =
    match S.take t ~pid with
    | Some i -> Some i
    | None ->
        S.reclaim t ~pid;
        S.take t ~pid
end

open Aba_primitives

type protection = Tag_bits | Llsc | Announced

type stack_recovery = R_none | R_pushed of int | R_popped of int option

module Make (M : Mem_intf.S) = struct
  module AT = Announced_tags.Make (M)

  let nop (_ : Pid.t) = ()

  (* {2 Detectable fetch-and-increment}

     The word holds the last install as a (value, owner, seq) triple, and
     every process owns two announcement-style slots: a single-writer
     descriptor recording its in-flight operation, and an ack cell that
     {e overwriters} raise before replacing the owner's install.  The
     resulting exactness invariant is what recovery decides on:

       operation (p, s) landed
         iff  word = (_, p, s)  or  ack[p].seq >= s

     Forward direction: a successful install leaves (p, s) in the word;
     whoever replaces it first CAS-maxes ack[p] to (s, value) {e before}
     its own install, so by the time (p, s) is gone the ack is up.
     Backward: helpers only ack pairs they read from the word, so an ack
     at [s] proves (p, s) was installed.  Either way the fetched value
     rides along, so recovery returns the exact result of the interrupted
     increment — or proves it never happened and re-runs it under the
     same sequence number.  This is the ABA-detecting register's
     DWrite/DRead discipline turned into a crash-recovery protocol: the
     descriptor write is the announcement, the recovery read reveals
     whether the announced operation took effect. *)
  module Counter = struct
    type word = { cv : int; cowner : int; cseq : int }
    type phase = Trying | Done of int
    type desc = { dseq : int; dphase : phase }
    type ack = { aseq : int; aval : int }

    type t = {
      word : word M.cas;
      descs : desc M.register array;
      acks : ack M.cas array;
      next_seq : int array;
          (* per-pid mirror of the last used sequence number; program
             state, re-derived from the descriptor by [recover] *)
      on_step : Pid.t -> unit;
    }

    let show_word w = Printf.sprintf "(%d,p%d,#%d)" w.cv w.cowner w.cseq

    let show_desc d =
      match d.dphase with
      | Trying -> Printf.sprintf "try#%d" d.dseq
      | Done v -> Printf.sprintf "done#%d=%d" d.dseq v

    let show_ack a = Printf.sprintf "(#%d=%d)" a.aseq a.aval

    let create ?(padded = false) ?(on_step = nop) ~name ~n () =
      if n < 1 then invalid_arg "Detectable.Counter.create: n must be positive";
      {
        word =
          M.make_cas ~padded ~name:(name ^ ".word") ~show:show_word
            { cv = 0; cowner = -1; cseq = 0 };
        descs =
          Array.init n (fun p ->
              M.make_register ~padded
                ~name:(Printf.sprintf "%s.desc[%d]" name p)
                ~show:show_desc
                { dseq = 0; dphase = Done 0 });
        acks =
          Array.init n (fun p ->
              M.make_cas ~padded
                ~name:(Printf.sprintf "%s.ack[%d]" name p)
                ~show:show_ack { aseq = 0; aval = 0 });
        next_seq = Array.make n 0;
        on_step;
      }

    (* Raise [owner]'s ack to at least (seq, v) — the handover that makes
       overwriting an install safe.  Monotone in seq, so stale helpers
       lose. *)
    let rec ack_max t ~pid owner ~seq ~v =
      if owner >= 0 then begin
        t.on_step pid;
        let a = M.cas_read t.acks.(owner) in
        if a.aseq < seq then begin
          t.on_step pid;
          if not (M.cas t.acks.(owner) ~expect:a ~update:{ aseq = seq; aval = v })
          then ack_max t ~pid owner ~seq ~v
        end
      end

    let rec install t ~pid ~seq =
      t.on_step pid;
      let w = M.cas_read t.word in
      ack_max t ~pid w.cowner ~seq:w.cseq ~v:w.cv;
      t.on_step pid;
      if
        M.cas t.word ~expect:w
          ~update:{ cv = w.cv + 1; cowner = pid; cseq = seq }
      then w.cv + 1
      else install t ~pid ~seq

    let finish t ~pid ~seq v =
      t.on_step pid;
      M.write t.descs.(pid) { dseq = seq; dphase = Done v };
      v

    let inc t ~pid =
      let s = t.next_seq.(pid) + 1 in
      t.next_seq.(pid) <- s;
      t.on_step pid;
      M.write t.descs.(pid) { dseq = s; dphase = Trying };
      finish t ~pid ~seq:s (install t ~pid ~seq:s)

    let read t = (M.cas_read t.word).cv

    let recover t ~pid =
      t.on_step pid;
      let d = M.read t.descs.(pid) in
      t.next_seq.(pid) <- d.dseq;
      match d.dphase with
      | Done _ -> None
      | Trying ->
          let s = d.dseq in
          t.on_step pid;
          let w = M.cas_read t.word in
          if w.cowner = pid && w.cseq = s then
            Some (finish t ~pid ~seq:s w.cv)
          else begin
            t.on_step pid;
            let a = M.cas_read t.acks.(pid) in
            if a.aseq >= s then Some (finish t ~pid ~seq:s a.aval)
            else Some (finish t ~pid ~seq:s (install t ~pid ~seq:s))
          end

    let completed t ~pid =
      let d = M.read t.descs.(pid) in
      match d.dphase with Done _ -> d.dseq | Trying -> d.dseq - 1

    let space _ = M.space ()
  end

  (* The deliberate mutant: same descriptor shape, but the word carries no
     provenance and there is no ack handover, so recovery of a [Trying]
     descriptor cannot tell "my CAS landed, I crashed before the Done
     write" from "my CAS never landed".  This version guesses {e not
     landed} and re-runs — a crash in the window between the successful
     CAS and the Done write duplicates the increment.  (Guessing
     {e landed} instead would lose increments; without detectability
     there is no correct guess.)  Kept as the adversarial scenario the
     DPOR crash search must flag. *)
  module Naive_counter = struct
    type phase = Trying | Done
    type desc = { dseq : int; dphase : phase }

    type t = {
      word : int M.cas;
      descs : desc M.register array;
      next_seq : int array;
      on_step : Pid.t -> unit;
    }

    let show_desc d =
      match d.dphase with
      | Trying -> Printf.sprintf "try#%d" d.dseq
      | Done -> Printf.sprintf "done#%d" d.dseq

    let create ?(padded = false) ?(on_step = nop) ~name ~n () =
      if n < 1 then
        invalid_arg "Detectable.Naive_counter.create: n must be positive";
      {
        word =
          M.make_cas ~padded ~name:(name ^ ".word") ~show:string_of_int 0;
        descs =
          Array.init n (fun p ->
              M.make_register ~padded
                ~name:(Printf.sprintf "%s.desc[%d]" name p)
                ~show:show_desc { dseq = 0; dphase = Done });
        next_seq = Array.make n 0;
        on_step;
      }

    let rec install t ~pid =
      t.on_step pid;
      let v = M.cas_read t.word in
      t.on_step pid;
      if M.cas t.word ~expect:v ~update:(v + 1) then v + 1
      else install t ~pid

    let finish t ~pid ~seq v =
      t.on_step pid;
      M.write t.descs.(pid) { dseq = seq; dphase = Done };
      v

    let inc t ~pid =
      let s = t.next_seq.(pid) + 1 in
      t.next_seq.(pid) <- s;
      t.on_step pid;
      M.write t.descs.(pid) { dseq = s; dphase = Trying };
      finish t ~pid ~seq:s (install t ~pid)

    let read t = M.cas_read t.word

    let recover t ~pid =
      t.on_step pid;
      let d = M.read t.descs.(pid) in
      t.next_seq.(pid) <- d.dseq;
      match d.dphase with
      | Done -> None
      | Trying -> Some (finish t ~pid ~seq:d.dseq (install t ~pid))

    let space _ = M.space ()
  end

  (* {2 Detectable Treiber stack}

     Nodes live in a per-(pid, seq) arena and are never reused, so the
     two facts recovery needs are stable:

     - {e push landed} iff the node is at the head {e or} its state cell
       reads [In].  Every process marks the node it sees at the head [In]
       before its own head CAS (the help rule), so a pushed node is
       marked before it can be buried or removed; a node whose install
       CAS never succeeded is unreachable and stays [Fresh] forever.
     - {e pop landed} iff the node named by the [Popping] descriptor
       carries this operation's (pid, seq) in its owner cell.  Claiming
       the owner CAS (-1 -> id, at most once per node, never reset) is
       the pop's linearization point; the head unlink afterwards is
       helped by any process whose own claim fails.

     The head pointer itself is protected by any of the three ABA
     defences (bounded tags via double-word CAS, LL/SC, or the
     announcement-guarded tags) — with never-reused nodes even a lossy
     tag is safe, so the protection choice is a cost axis, not a
     correctness one. *)
  module Stack = struct
    type phase =
      | P_push of int  (** Trying_push v *)
      | P_pop  (** Trying_pop: no candidate node recorded yet *)
      | P_popping of int  (** candidate node index *)
      | P_done_push
      | P_done_pop of int  (** popped node index, -1 for empty *)

    type desc = { dseq : int; dphase : phase }

    type head =
      | H_tag of int M.cas2
      | H_llsc of int M.llsc
      | H_ann of AT.t

    type t = {
      cap : int;  (** operations per pid; sizes the node arena *)
      head : head;
      nvalue : int M.register array;
      nnext : int M.register array;
      nstate : int M.register array;  (** 0 = Fresh, 1 = In *)
      nowner : int M.cas array;  (** -1 = unclaimed, else pid * (cap+1) + seq *)
      descs : desc M.register array;
      next_seq : int array;
      on_step : Pid.t -> unit;
    }

    let show_desc d =
      match d.dphase with
      | P_push v -> Printf.sprintf "push#%d(%d)" d.dseq v
      | P_pop -> Printf.sprintf "pop#%d" d.dseq
      | P_popping h -> Printf.sprintf "popping#%d(n%d)" d.dseq h
      | P_done_push -> Printf.sprintf "pushed#%d" d.dseq
      | P_done_pop h -> Printf.sprintf "popped#%d(n%d)" d.dseq h

    (* Node indices with -1 as nil pack as [v + 1]. *)
    let node_codec =
      { Mem_intf.encode = (fun v -> v + 1); decode = (fun w -> w - 1) }

    let node_of ~cap pid seq = (pid * cap) + seq - 1
    let encode_owner t pid seq = (pid * (t.cap + 1)) + seq

    let create ?(protection = Tag_bits) ?(tag_bits = 4) ?(padded = false)
        ?(on_step = nop) ~name ~n ~capacity () =
      if n < 1 then invalid_arg "Detectable.Stack.create: n must be positive";
      if capacity < 1 then
        invalid_arg "Detectable.Stack.create: capacity must be positive";
      let slots = n * capacity in
      let node_bound = Bounded.int_range ~lo:(-1) ~hi:(slots - 1) in
      let head =
        match protection with
        | Tag_bits ->
            H_tag
              (M.make_cas2 ~bound:node_bound ~padded ~codec:node_codec
                 ~tag_bits ~name:(name ^ ".head") ~show:string_of_int (-1) 0)
        | Llsc ->
            H_llsc
              (M.make_llsc ~bound:node_bound ~padded ~name:(name ^ ".head")
                 ~show:string_of_int (-1))
        | Announced ->
            H_ann
              (AT.create ~guard:true ~padded ~value_bound:node_bound
                 ~tag_bits ~name:(name ^ ".head") ~n ~init:(-1) ())
      in
      {
        cap = capacity;
        head;
        nvalue =
          Array.init slots (fun i ->
              M.make_register ~padded
                ~name:(Printf.sprintf "%s.val[%d]" name i)
                ~show:string_of_int 0);
        nnext =
          Array.init slots (fun i ->
              M.make_register ~bound:node_bound ~padded
                ~name:(Printf.sprintf "%s.next[%d]" name i)
                ~show:string_of_int (-1));
        nstate =
          Array.init slots (fun i ->
              M.make_register
                ~bound:(Bounded.int_range ~lo:0 ~hi:1)
                ~padded
                ~name:(Printf.sprintf "%s.state[%d]" name i)
                ~show:string_of_int 0);
        nowner =
          Array.init slots (fun i ->
              M.make_cas ~padded
                ~name:(Printf.sprintf "%s.owner[%d]" name i)
                ~show:string_of_int (-1));
        descs =
          Array.init n (fun p ->
              M.make_register ~padded
                ~name:(Printf.sprintf "%s.desc[%d]" name p)
                ~show:show_desc
                { dseq = 0; dphase = P_done_push });
        next_seq = Array.make n 0;
        on_step;
      }

    (* The head abstraction: acquire returns a (value, tag) token the
       matching swing consumes; llsc carries its token in the link. *)
    let head_acquire t ~pid =
      t.on_step pid;
      match t.head with
      | H_tag c -> M.cas2_read c
      | H_llsc l -> (M.ll l ~pid, 0)
      | H_ann a -> AT.protect a ~pid

    let head_peek t ~pid =
      t.on_step pid;
      match t.head with
      | H_tag c -> fst (M.cas2_read c)
      | H_llsc l -> M.ll l ~pid
      | H_ann a -> fst (AT.peek a)

    let head_swing t ~pid ~expect:(h, tag) ~update =
      t.on_step pid;
      match t.head with
      | H_tag c -> M.cas2 c ~expect:h ~expect_tag:tag ~update ~update_tag:(tag + 1)
      | H_llsc l -> M.sc l ~pid update
      | H_ann a -> (
          match AT.guarded_cas a ~expect:h ~expect_tag:tag ~update with
          | Announced_tags.Installed -> true
          | Announced_tags.Contended | Announced_tags.Blocked -> false)

    let head_release t ~pid =
      match t.head with
      | H_ann a ->
          t.on_step pid;
          AT.clear a ~pid
      | H_tag _ | H_llsc _ -> ()

    (* The help rule: whoever observes [h] at the head marks it [In]
       before any head CAS of its own, so "buried or popped implies
       marked" holds at every configuration. *)
    let mark_in t ~pid h =
      if h >= 0 then begin
        t.on_step pid;
        M.write t.nstate.(h) 1
      end

    let try_unlink t ~pid h tok =
      t.on_step pid;
      let nx = M.read t.nnext.(h) in
      ignore (head_swing t ~pid ~expect:tok ~update:nx)

    let rec push_install t ~pid ~node =
      let (h, _) as tok = head_acquire t ~pid in
      mark_in t ~pid h;
      t.on_step pid;
      M.write t.nnext.(node) h;
      if head_swing t ~pid ~expect:tok ~update:node then ()
      else push_install t ~pid ~node

    let fresh_seq t ~pid ~what =
      let s = t.next_seq.(pid) + 1 in
      if s > t.cap then
        invalid_arg
          (Printf.sprintf "Detectable.Stack.%s: pid %d exhausted capacity %d"
             what pid t.cap);
      t.next_seq.(pid) <- s;
      s

    let push t ~pid v =
      let s = fresh_seq t ~pid ~what:"push" in
      t.on_step pid;
      M.write t.descs.(pid) { dseq = s; dphase = P_push v };
      let node = node_of ~cap:t.cap pid s in
      t.on_step pid;
      M.write t.nvalue.(node) v;
      push_install t ~pid ~node;
      head_release t ~pid;
      t.on_step pid;
      M.write t.descs.(pid) { dseq = s; dphase = P_done_push }

    let rec pop_install t ~pid ~seq =
      let (h, _) as tok = head_acquire t ~pid in
      if h < 0 then begin
        head_release t ~pid;
        t.on_step pid;
        M.write t.descs.(pid) { dseq = seq; dphase = P_done_pop (-1) };
        None
      end
      else begin
        mark_in t ~pid h;
        t.on_step pid;
        M.write t.descs.(pid) { dseq = seq; dphase = P_popping h };
        t.on_step pid;
        if M.cas t.nowner.(h) ~expect:(-1) ~update:(encode_owner t pid seq)
        then begin
          (* Claimed: the pop is linearized.  Unlink (or leave it to
             helpers — a claimed node at the head is unlinked by the next
             process whose own claim on it fails). *)
          try_unlink t ~pid h tok;
          head_release t ~pid;
          t.on_step pid;
          let v = M.read t.nvalue.(h) in
          t.on_step pid;
          M.write t.descs.(pid) { dseq = seq; dphase = P_done_pop h };
          Some v
        end
        else begin
          try_unlink t ~pid h tok;
          pop_install t ~pid ~seq
        end
      end

    let pop t ~pid =
      let s = fresh_seq t ~pid ~what:"pop" in
      t.on_step pid;
      M.write t.descs.(pid) { dseq = s; dphase = P_pop };
      pop_install t ~pid ~seq:s

    let top t ~pid = head_peek t ~pid

    let value_of t node =
      if node < 0 then invalid_arg "Detectable.Stack.value_of";
      M.read t.nvalue.(node)

    let recover t ~pid =
      (* A crash may have left this pid's announcement slot set; clear it
         first or a guarded writer could block on a dead reader. *)
      head_release t ~pid;
      t.on_step pid;
      let d = M.read t.descs.(pid) in
      t.next_seq.(pid) <- d.dseq;
      match d.dphase with
      | P_done_push | P_done_pop _ -> R_none
      | P_push v ->
          let s = d.dseq in
          let node = node_of ~cap:t.cap pid s in
          let landed =
            head_peek t ~pid = node
            || begin
                 t.on_step pid;
                 M.read t.nstate.(node) = 1
               end
          in
          if not landed then begin
            t.on_step pid;
            M.write t.nvalue.(node) v;
            push_install t ~pid ~node;
            head_release t ~pid
          end;
          t.on_step pid;
          M.write t.descs.(pid) { dseq = s; dphase = P_done_push };
          R_pushed v
      | P_pop ->
          (* No candidate was recorded, so no claim was possible: the pop
             had no effect yet.  Run it to completion under the same
             sequence number. *)
          R_popped (pop_install t ~pid ~seq:d.dseq)
      | P_popping h ->
          let s = d.dseq in
          t.on_step pid;
          if M.cas_read t.nowner.(h) = encode_owner t pid s then begin
            (* Our claim landed: the pop happened.  Help the unlink along
               if the node is still at the head, then report. *)
            let (h', _) as tok = head_acquire t ~pid in
            if h' = h then try_unlink t ~pid h tok;
            head_release t ~pid;
            t.on_step pid;
            let v = M.read t.nvalue.(h) in
            t.on_step pid;
            M.write t.descs.(pid) { dseq = s; dphase = P_done_pop h };
            R_popped (Some v)
          end
          else
            (* Owner cells are claimed at most once and never reset, so a
               foreign (or absent) owner proves our claim never landed. *)
            R_popped (pop_install t ~pid ~seq:s)

    let scans t = match t.head with H_ann a -> AT.scans a | _ -> 0
    let space _ = M.space ()
  end
end

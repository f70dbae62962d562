(* Abortable array-based queue lock, after the Katzan–Morrison treatment
   of abortable CLH: an aborting waiter marks its queue node dead instead
   of unlinking it, and the grant chases past dead nodes.

   A fetch-and-increment on [tail] hands each acquirer a slot in the
   [grant] array; slot t spins — abortably — until grant[t] = 1. Slot 0
   is implicitly granted (its owner drew the first ticket and proceeds
   without waiting, like Anderson's ticket 0).

   Grant words travel 0 -> {1, 2}: 0 is waiting, 1 is granted, 2 is
   aborted, and both transitions are CASes so the race between a releaser
   granting slot t and its waiter aborting has exactly one winner:

   - exit scans upward from the owner's successor, CASing each grant word
     0 -> 1; a failed CAS means that waiter aborted (the word holds 2),
     so move to the next slot. Pre-granting a slot nobody has drawn yet
     is fine — its future occupant finds the grant already posted.
   - abort cleanup CASes its own grant word 0 -> 2. If that CAS fails the
     grant already arrived: the aborter briefly owns the lock and hands
     it on by running the same upward scan from its successor.

   Both scans stop at the first non-aborted slot, so cleanup and exit are
   bounded by the number of aborts injected. Slots are not recycled: the
   array has a fixed capacity and drawing a ticket past the end raises
   [Spin_exhausted], surfacing as a typed livelock rather than an index
   error. Model-checking configurations (small n, a passage or two, a
   bounded abort budget) stay far below the default capacity.

   The slot drawn in the entry section travels to the exit and cleanup
   sections through a per-process scratch array outside the machine
   state (see Lock_intf). *)

open Tsim
open Tsim.Ids
open Prog

type ctx = {
  tail : Var.t;
  grant : Var.t array;
  my_slot : int array;
  capacity : int;
}

let make ?(capacity = 32) () ~n : Lock_intf.t =
  let layout = Layout.create () in
  let ctx =
    {
      tail = Layout.var layout "tail";
      grant = Layout.array layout ~init:0 "grant" capacity;
      my_slot = Array.make n 0;
      capacity;
    }
  in
  (* grant the first non-aborted slot at or above s; exit and abort
     hand-off share this *)
  let rec grant_from s =
    if s >= ctx.capacity then raise (Prog.Spin_exhausted ctx.tail)
    else
      let* ok = cas ctx.grant.(s) ~expected:0 ~desired:1 in
      if ok then unit else grant_from (s + 1)
  in
  let entry p =
    let* t = faa ctx.tail 1 in
    if t >= ctx.capacity then raise (Prog.Spin_exhausted ctx.tail)
    else begin
      ctx.my_slot.(p) <- t;
      if t = 0 then unit
      else
        let* _ = abortable_spin_until ctx.grant.(t) (fun g -> g = 1) in
        unit
    end
  in
  let exit_section p = grant_from (ctx.my_slot.(p) + 1) in
  let abort p =
    let t = ctx.my_slot.(p) in
    let* ok = cas ctx.grant.(t) ~expected:0 ~desired:2 in
    if ok then unit else grant_from (t + 1)
  in
  {
    Lock_intf.name = "abortable-queue";
    uses_rmw = true;
    one_time = false;
    adaptive = false;
    layout;
    entry;
    exit_section;
    recovery = None;
    abort = Some abort;
  }

let family =
  Lock_intf.make_family "abortable-queue" (fun ~n -> make () ~n)

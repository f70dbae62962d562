(* Anderson's array-based queue lock.

   A fetch-and-increment assigns each acquirer a slot in a circular array
   of [n] flags; the acquirer spins on its own slot and the releaser sets
   the next slot. One FAA (one fence) on entry, one published write (one
   fence) on exit; O(1) RMRs in CC since each process spins on a distinct
   array cell. *)

open Tsim
open Tsim.Ids
open Prog

type ctx = {
  tail : Var.t;
  slots : Var.t array;
  my_slot : int array;
}

let make ~n : Lock_intf.t =
  let layout = Layout.create () in
  let slots = Layout.array layout ~init:0 "slot" n in
  let ctx = { tail = Layout.var layout "tail"; slots; my_slot = Array.make n 0 } in
  let entry p =
    let* t = faa ctx.tail 1 in
    ctx.my_slot.(p) <- t;
    let s = t mod n in
    (* Slots carry a generation count: ticket t spins on slot t mod n until
       it has been opened floor(t/n)+1 times. Ticket 0 finds its slot open
       by construction. *)
    if t = 0 then unit
    else
      let gen = (t - s) / n + 1 in
      let* _ = spin_until ctx.slots.(s) (fun x -> x >= gen) in
      unit
  in
  let exit_section p =
    let t = ctx.my_slot.(p) in
    let nxt = (t + 1) mod n in
    let gen = (t + 1 - nxt) / n + 1 in
    let* () = write ctx.slots.(nxt) gen in
    fence
  in
  {
    Lock_intf.name = "anderson";
    uses_rmw = true;
    one_time = false;
    adaptive = false;
    layout;
    entry;
    exit_section;
    recovery = None;
    abort = None;
  }

let family = Lock_intf.make_family "anderson" (fun ~n -> make ~n)

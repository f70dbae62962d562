(* MCS queue lock (Mellor-Crummey & Scott).

   Each process owns a queue node consisting of [locked.(p)] and
   [next.(p)], both DSM-local to [p] (a successor performs one remote
   write into its predecessor's [next]). Spinning is on the process's own
   [locked] word, so the lock is local-spin: O(1) RMRs per passage in both
   DSM and CC. The swap on [tail] and the CAS in release are the two
   fences of a contended passage.

   On TSO the successor's [locked.(p) := 1] and [next.(pred) := p] writes
   must be published before the spin, hence the explicit fence. *)

open Tsim
open Tsim.Ids
open Prog

let nil = -1

type ctx = {
  tail : Var.t;
  next : Var.t array;  (* next.(p): successor of p, or nil *)
  locked : Var.t array;  (* locked.(p): 1 while p must wait *)
}

let make ~n : Lock_intf.t =
  let layout = Layout.create () in
  let ctx =
    {
      tail = Layout.var layout ~init:nil "tail";
      next = Layout.array layout ~owner_fn:(fun i -> Some i) ~init:nil "next" n;
      locked = Layout.array layout ~owner_fn:(fun i -> Some i) ~init:0 "locked" n;
    }
  in
  let entry p =
    let* () = write ctx.next.(p) nil in
    let* pred = swap ctx.tail p in
    if pred = nil then unit
    else
      let* () = write ctx.locked.(p) 1 in
      let* () = write ctx.next.(pred) p in
      let* () = fence in
      let* _ = spin_until ctx.locked.(p) (fun x -> x = 0) in
      unit
  in
  let exit_section p =
    let* succ = read ctx.next.(p) in
    if succ <> nil then
      let* () = write ctx.locked.(succ) 0 in
      fence
    else
      let* ok = cas ctx.tail ~expected:p ~desired:nil in
      if ok then unit
      else
        (* a successor is in the middle of linking in; wait for it *)
        let* succ = spin_until ctx.next.(p) (fun x -> x <> nil) in
        let* () = write ctx.locked.(succ) 0 in
        fence
  in
  {
    Lock_intf.name = "mcs";
    uses_rmw = true;
    one_time = false;
    adaptive = false;
    layout;
    entry;
    exit_section;
    recovery = None;
    abort = None;
  }

let family = Lock_intf.make_family "mcs" (fun ~n -> make ~n)

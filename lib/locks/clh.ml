(* CLH queue lock.

   Each acquirer appends a node to an implicit queue by swapping [tail]
   and spins on its *predecessor's* node flag; release clears the owner's
   node and recycles the predecessor's node for the next passage (the
   classic CLH node-donation scheme, realized here with an OCaml-side
   scratch index per process).

   One swap (one fence) to enqueue and one fence to release; in the CC
   models a passage is O(1) RMRs (the spin hits the cache until the
   predecessor commits); unlike MCS the spin target rotates, so CLH is
   not DSM-local-spin. *)

open Tsim
open Tsim.Ids
open Prog

type ctx = {
  tail : Var.t;  (* holds a node index *)
  locked : Var.t array;  (* one flag per node; n+1 nodes *)
  my_node : int array;  (* scratch: current node of p *)
  my_pred : int array;  (* scratch: predecessor node claimed in entry *)
}

let make ~n : Lock_intf.t =
  let layout = Layout.create () in
  let ctx =
    {
      (* node n is the initial dummy, unlocked *)
      tail = Layout.var layout ~init:n "tail";
      locked = Layout.array layout ~init:0 "locked" (n + 1);
      my_node = Array.init n Fun.id;
      my_pred = Array.make n 0;
    }
  in
  let entry p =
    let nd = ctx.my_node.(p) in
    let* () = write ctx.locked.(nd) 1 in
    let* pred = swap ctx.tail nd in
    ctx.my_pred.(p) <- pred;
    let* _ = spin_until ctx.locked.(pred) (fun x -> x = 0) in
    unit
  in
  let exit_section p =
    let nd = ctx.my_node.(p) in
    ctx.my_node.(p) <- ctx.my_pred.(p);
    let* () = write ctx.locked.(nd) 0 in
    fence
  in
  {
    Lock_intf.name = "clh";
    uses_rmw = true;
    one_time = false;
    adaptive = false;
    layout;
    entry;
    exit_section;
    recovery = None;
    abort = None;
  }

let family = Lock_intf.make_family "clh" (fun ~n -> make ~n)

(* Ticket lock (fetch-and-increment based).

   The non-adaptive constant-fence baseline of the reproduction: each
   passage performs exactly one atomic FAA (one implicit fence) in the
   entry section and one fence in the exit section, and O(1) RMRs in the
   CC models (the spin on [now_serving] hits the cache until the holder
   publishes the next ticket). It stands in for the Attiya–Hendler–Levy
   O(1)-fence construction as the non-adaptive baseline of experiment E3;
   see DESIGN.md §6. *)

open Tsim
open Tsim.Ids
open Prog

type ctx = {
  next_ticket : Var.t;
  now_serving : Var.t;
  my_ticket : int array;  (* per-process scratch: ticket drawn in entry *)
}

let make ~n : Lock_intf.t =
  let layout = Layout.create () in
  let ctx =
    {
      next_ticket = Layout.var layout "next_ticket";
      now_serving = Layout.var layout "now_serving";
      my_ticket = Array.make n 0;
    }
  in
  let entry p =
    let* t = faa ctx.next_ticket 1 in
    ctx.my_ticket.(p) <- t;
    let* _ = spin_until ctx.now_serving (fun s -> s = t) in
    unit
  in
  let exit_section p =
    let t = ctx.my_ticket.(p) in
    let* () = write ctx.now_serving (t + 1) in
    fence
  in
  {
    Lock_intf.name = "ticket";
    uses_rmw = true;
    one_time = false;
    adaptive = false;
    layout;
    entry;
    exit_section;
    recovery = None;
    abort = None;
  }

let family = Lock_intf.make_family "ticket" (fun ~n -> make ~n)

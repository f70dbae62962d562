(* Lamport's fast mutual exclusion algorithm (1987), fenced for TSO.

   Read/write only. A solo process takes the fast path: seven shared
   accesses and two fences, independent of n. Under contention the slow
   path scans all announce flags, costing Θ(n). The algorithm is the
   ancestor of splitter-based adaptive locks: its contention-free passage
   is O(1), which makes it the zoo's "fast-path" row — adaptive in the
   solo case only, and with constant fences, again consistent with the
   tradeoff (its RMR complexity is not bounded by any f(k) under
   contention, so it is not f-adaptive). *)

open Tsim
open Tsim.Ids
open Prog

type ctx = { x : Var.t; y : Var.t; b : Var.t array }

let none = 0  (* encode pid p as p+1; 0 = none *)

let make ~n : Lock_intf.t =
  let layout = Layout.create () in
  let ctx =
    {
      x = Layout.var layout ~init:none "x";
      y = Layout.var layout ~init:none "y";
      b = Layout.array layout ~owner_fn:(fun i -> Some i) ~init:0 "b" n;
    }
  in
  let entry p =
    let me = p + 1 in
    let rec start () =
      let* () = write ctx.b.(p) 1 in
      let* () = write ctx.x me in
      let* () = fence in
      let* y = read ctx.y in
      if y <> none then
        let* () = write ctx.b.(p) 0 in
        let* () = fence in
        let* _ = spin_until ctx.y (fun v -> v = none) in
        start ()
      else
        let* () = write ctx.y me in
        let* () = fence in
        let* x = read ctx.x in
        if x = me then unit (* fast path *)
        else
          let* () = write ctx.b.(p) 0 in
          let* () = fence in
          let rec await_all q =
            if q >= n then unit
            else
              let* _ = spin_until ctx.b.(q) (fun v -> v = 0) in
              await_all (q + 1)
          in
          let* () = await_all 0 in
          let* y = read ctx.y in
          if y = me then unit (* slow path acquired *)
          else
            let* _ = spin_until ctx.y (fun v -> v = none) in
            start ()
    in
    start ()
  in
  let exit_section p =
    let* () = write ctx.y none in
    let* () = write ctx.b.(p) 0 in
    fence
  in
  {
    Lock_intf.name = "fastpath";
    uses_rmw = false;
    one_time = false;
    adaptive = false;
    layout;
    entry;
    exit_section;
    recovery = None;
    abort = None;
  }

let family = Lock_intf.make_family "fastpath" (fun ~n -> make ~n)

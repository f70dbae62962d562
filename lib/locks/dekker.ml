(* Dekker's algorithm (the first mutual exclusion algorithm), fenced for
   TSO. Two processes only; read/write only.

   The fence after the initial flag write is essential on TSO: without it
   both processes can read the rival's flag as 0 while their own writes
   sit in the store buffers (the store-buffering anomaly) and enter
   together — the model checker exhibits the schedule (experiment E12,
   suite_mcheck). *)

open Tsim
open Tsim.Ids
open Prog

type ctx = { flag : Var.t array; turn : Var.t }

let make ~n : Lock_intf.t =
  if n <> 2 then invalid_arg "Dekker.make: exactly 2 processes";
  let layout = Layout.create () in
  let ctx =
    { flag = Layout.array layout ~init:0 "flag" 2;
      turn = Layout.var layout ~init:0 "turn" }
  in
  let entry p =
    let other = 1 - p in
    let* () = write ctx.flag.(p) 1 in
    let* () = fence in
    let rec contend fuel =
      if fuel <= 0 then raise (Prog.Spin_exhausted ctx.turn)
      else
        let* rival = read ctx.flag.(other) in
        if rival = 0 then unit
        else
          let* t = read ctx.turn in
          if t <> other then contend (fuel - 1)
          else
            (* back off: clear own flag until the turn flips *)
            let* () = write ctx.flag.(p) 0 in
            let* () = fence in
            let* _ = spin_until ctx.turn (fun t -> t = p) in
            let* () = write ctx.flag.(p) 1 in
            let* () = fence in
            contend (fuel - 1)
    in
    contend !Prog.default_spin_fuel
  in
  let exit_section p =
    let* () = write ctx.turn (1 - p) in
    let* () = write ctx.flag.(p) 0 in
    fence
  in
  {
    Lock_intf.name = "dekker";
    uses_rmw = false;
    one_time = false;
    adaptive = false;
    layout;
    entry;
    exit_section;
    recovery = None;
    abort = None;
  }

let family = Lock_intf.make_family "dekker" (fun ~n -> make ~n)

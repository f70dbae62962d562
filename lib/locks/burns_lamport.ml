(* Burns–Lamport one-bit mutual exclusion for two processes.

   Uses a single shared bit per process — the space-optimal read/write
   mutex. Asymmetric: p0 has priority; p1 defers whenever p0's bit is
   set. Deadlock-free but not starvation-free for p1 (as in the
   original); the simulator's schedulers always let p0 exit, so tests
   terminate. *)

open Tsim
open Prog

let make ~n : Lock_intf.t =
  if n <> 2 then invalid_arg "Burns_lamport.make: exactly 2 processes";
  let layout = Layout.create () in
  let bit = Layout.array layout ~init:0 "bit" 2 in
  let entry p =
    if p = 0 then
      (* high priority: set bit, wait for the rival to retreat *)
      let* () = write bit.(0) 1 in
      let* () = fence in
      let* _ = spin_until bit.(1) (fun x -> x = 0) in
      unit
    else
      let rec attempt fuel =
        if fuel <= 0 then raise (Prog.Spin_exhausted bit.(0))
        else
          let* rival = read bit.(0) in
          if rival = 1 then attempt (fuel - 1)
          else
            let* () = write bit.(1) 1 in
            let* () = fence in
            let* rival = read bit.(0) in
            if rival = 0 then unit
            else
              (* retreat and retry *)
              let* () = write bit.(1) 0 in
              let* () = fence in
              let* _ = spin_until bit.(0) (fun x -> x = 0) in
              attempt (fuel - 1)
      in
      attempt !Prog.default_spin_fuel
  in
  let exit_section p =
    let* () = write bit.(p) 0 in
    fence
  in
  {
    Lock_intf.name = "burns-lamport";
    uses_rmw = false;
    one_time = false;
    adaptive = false;
    layout;
    entry;
    exit_section;
    recovery = None;
    abort = None;
  }

let family = Lock_intf.make_family "burns-lamport" (fun ~n -> make ~n)

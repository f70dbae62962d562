(* Test-and-test-and-set lock.

   The simplest CAS-based lock: spin reading until the lock looks free,
   then attempt a CAS. Not local-spin in DSM (every spin read of the
   remote lock word is an RMR) and unbounded fences under contention
   (every CAS attempt drains the buffer) — a useful worst-case row in the
   evaluation table. *)

open Tsim
open Prog

let make ~n : Lock_intf.t =
  ignore n;
  let layout = Layout.create () in
  let lock_word = Layout.var layout "lock" in
  let rec acquire () =
    let* _ = spin_until lock_word (fun x -> x = 0) in
    let* ok = cas lock_word ~expected:0 ~desired:1 in
    if ok then unit else acquire ()
  in
  let entry _p = acquire () in
  let exit_section _p =
    let* () = write lock_word 0 in
    fence
  in
  {
    Lock_intf.name = "tas";
    uses_rmw = true;
    one_time = false;
    adaptive = false;
    layout;
    entry;
    exit_section;
    recovery = None;
    abort = None;
  }

let family = Lock_intf.make_family "tas" (fun ~n -> make ~n)

(* Recoverable test-and-set lock (recoverable mutual exclusion).

   The lock word holds 0 when free and p+1 when owned by process p, so a
   process waking from a crash can tell whether it died holding the lock.
   The recovery section — run by the harness before the entry section on
   the first passage after a crash — reads the word and, if it still
   carries its own stamp, releases it with a fenced write. This repairs
   the canonical lost-release crash: the exit section's release write sits
   in the TSO buffer, the process crashes under [Drop_buffer], and the
   lock word is left stamped by a dead owner forever.

   [naive_family] is the deliberately broken control: its recovery writes
   0 unconditionally, clobbering a live owner's stamp, so a crashed
   process can free somebody else's lock and walk into an occupied
   critical section. The model checker distinguishes the two under
   [~max_crashes:1]. *)

open Tsim
open Prog

let make_with ~name ~recovery ~n : Lock_intf.t =
  ignore n;
  let layout = Layout.create () in
  let lock_word = Layout.var layout "lock" in
  let rec acquire p =
    let* _ = spin_until lock_word (fun x -> x = 0) in
    let* ok = cas lock_word ~expected:0 ~desired:(p + 1) in
    if ok then unit else acquire p
  in
  let entry p = acquire p in
  let exit_section _p =
    let* () = write lock_word 0 in
    fence
  in
  {
    Lock_intf.name;
    uses_rmw = true;
    one_time = false;
    adaptive = false;
    layout;
    entry;
    exit_section;
    recovery = Some (recovery lock_word);
    abort = None;
  }

let make ~n =
  make_with ~n ~name:"recoverable-tas" ~recovery:(fun lock_word p ->
      let* v = read lock_word in
      if v = p + 1 then
        (* died between acquiring and the release commit: release *)
        let* () = write lock_word 0 in
        fence
      else unit)

let make_naive ~n =
  make_with ~n ~name:"recoverable-tas-naive" ~recovery:(fun lock_word _p ->
      (* wrong: frees the lock even when a live process owns it *)
      let* () = write lock_word 0 in
      fence)

let family = Lock_intf.make_family "recoverable-tas" (fun ~n -> make ~n)

let naive_family =
  Lock_intf.make_family "recoverable-tas-naive" (fun ~n -> make_naive ~n)

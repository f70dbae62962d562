(* Abortable test-and-set lock with exponential backoff.

   The entry section is a retry/backoff loop (Prog.retry_backoff): an
   optimistic CAS attempt, and on failure a polite wait that re-reads the
   lock word an exponentially growing number of times. The polite wait is
   a declared abortable window — the DSL raises the abortable-waiting
   marker around it — so the scheduler may cancel the acquisition there
   and only there, never between a CAS and its outcome. The lock word
   carries the owner's stamp (p+1, 0 when free) so cleanup can tell whose
   lock it is.

   The abort cleanup is bounded and conservative: re-read the lock word
   and release it only if it carries the aborter's own stamp. Because the
   marker is down across the CAS itself an aborted process can never
   actually hold the lock, so the conditional release never fires — it is
   defence in depth, keeping the cleanup correct even if the entry
   section later grows abortable windows that span an acquisition.

   [buggy_family] is the deliberately broken control: its cleanup writes
   0 unconditionally, freeing whatever process currently holds the lock.
   The model checker refutes it under [~max_aborts:1]: p0 acquires, p1
   fails its CAS and parks in the backoff window, p1 is aborted and the
   cleanup frees p0's held lock, p1 re-enters and both processes sit in
   the critical section. *)

open Tsim
open Prog

let make_with ~name ~abort ~n : Lock_intf.t =
  ignore n;
  let layout = Layout.create () in
  let lock_word = Layout.var layout "lock" in
  let entry p =
    retry_backoff lock_word (cas lock_word ~expected:0 ~desired:(p + 1))
  in
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
    recovery = None;
    abort = Some (abort lock_word);
  }

let make ~n =
  make_with ~n ~name:"abortable-tas" ~abort:(fun lock_word p ->
      let* v = read lock_word in
      if v = p + 1 then
        (* own stamp: release before walking away *)
        let* () = write lock_word 0 in
        fence
      else unit)

let make_buggy ~n =
  make_with ~n ~name:"abortable-tas-buggy" ~abort:(fun lock_word _p ->
      (* wrong: frees the lock even when another process owns it *)
      let* () = write lock_word 0 in
      fence)

let family = Lock_intf.make_family "abortable-tas" (fun ~n -> make ~n)

let buggy_family =
  Lock_intf.make_family "abortable-tas-buggy" (fun ~n -> make_buggy ~n)

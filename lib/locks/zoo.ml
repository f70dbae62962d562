(* The lock zoo: every algorithm the evaluation sweeps over. *)

let all : Lock_intf.family list =
  [
    Ticket.family;
    Tas.family;
    Mcs.family;
    Clh.family;
    Anderson.family;
    Bakery.family;
    Filter.family;
    Tournament.family;
    Fastpath.family;
    Adaptive_list.family;
    Adaptive_tree.family;
    Cascade.family;
  ]

let multi_passage : Lock_intf.family list =
  [
    Ticket.family;
    Tas.family;
    Mcs.family;
    Clh.family;
    Anderson.family;
    Bakery.family;
    Filter.family;
    Tournament.family;
    Fastpath.family;
  ]

(* Two-process-only classics; exercised by the model checker rather than
   the n-process sweeps. *)
let two_process : Lock_intf.family list =
  [ Dekker.family; Burns_lamport.family ]

(* Locks with a recovery section; exercised by the crash-injecting model
   checker rather than the failure-free sweeps. *)
let recoverable : Lock_intf.family list =
  [ Recoverable_tas.family; Recoverable_tas.naive_family ]

(* Locks with an abort cleanup section; exercised by the abort-injecting
   model checker (verify --max-aborts). *)
let abortable : Lock_intf.family list =
  [ Abortable_tas.family; Abortable_tas.buggy_family; Abortable_queue.family ]

let find name =
  List.find_opt
    (fun f -> String.equal f.Lock_intf.family_name name)
    (all @ two_process @ recoverable @ abortable)

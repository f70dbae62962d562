(* Execution events.

   An execution is a sequence of these events (paper, Section 2). Each event
   records, besides its kind, the machine-model verdicts made at execution
   time: whether it accessed a variable remotely, whether it incurred an RMR
   under the configured memory model, and whether it was critical in the
   execution so far (Definition 2). Criticality is relative to the execution
   prefix, so analyses that erase processes recompute it from scratch
   (lib/analysis); the online flag is the fast path and is cross-checked in
   tests. *)

open Ids

type read_src = From_buffer | From_cache | From_memory

type kind =
  | Enter
  | Cs
  | Exit
  | Read of { var : Var.t; value : Value.t; src : read_src }
  | Issue_write of { var : Var.t; value : Value.t }
  | Commit_write of { var : Var.t; value : Value.t }
  | Begin_fence of { implicit : bool }
      (* [implicit] fences model the store-buffer drain of an atomic
         read-modify-write instruction (x86 LOCK prefix). *)
  | End_fence of { implicit : bool }
  | Cas_ev of { var : Var.t; expected : Value.t; desired : Value.t;
                observed : Value.t; success : bool }
  | Faa_ev of { var : Var.t; delta : Value.t; observed : Value.t }
  | Swap_ev of { var : Var.t; stored : Value.t; observed : Value.t }
  | Crash of { committed : int; dropped : int }
      (* crash fault: [committed] buffered writes reached memory (their
         Commit_write events precede this one), [dropped] were lost *)
  | Recover  (* the crashed process restarts at its recovery label *)
  | Abort
      (* abort fault: the adversary timed the process out at a declared
         wait point; its write buffer survives and it runs its abort
         cleanup section next *)
  | Abort_done  (* abort cleanup completed; the process returns to NCS *)

type t = {
  seq : int;  (* position in the trace *)
  pid : Pid.t;
  kind : kind;
  remote : bool;  (* accessed a variable remote to [pid] *)
  rmr : bool;  (* incurred an RMR under the configured memory model *)
  critical : bool;  (* critical in the execution prefix (Definition 2) *)
}

let dummy =
  { seq = -1; pid = -1; kind = Enter; remote = false; rmr = false;
    critical = false }

(* The variable a given event *accesses*, in the paper's sense: commits and
   non-buffered reads access their variable; issued writes and buffer-
   forwarded reads do not. RMW events access their variable. *)
let accessed_var e =
  match e.kind with
  | Read { var; src = From_cache | From_memory; _ } -> Some var
  | Read { src = From_buffer; _ } -> None
  | Commit_write { var; _ } -> Some var
  | Cas_ev { var; _ } | Faa_ev { var; _ } | Swap_ev { var; _ } -> Some var
  | Issue_write _ | Enter | Cs | Exit | Begin_fence _ | End_fence _
  | Crash _ | Recover | Abort | Abort_done ->
      None

(* The variable an event *mentions* (including issued writes), for
   congruence checks during replay. *)
let mentioned_var e =
  match e.kind with
  | Read { var; _ } | Issue_write { var; _ } | Commit_write { var; _ }
  | Cas_ev { var; _ } | Faa_ev { var; _ } | Swap_ev { var; _ } ->
      Some var
  | Enter | Cs | Exit | Begin_fence _ | End_fence _ | Crash _ | Recover
  | Abort | Abort_done ->
      None

let is_commit e = match e.kind with Commit_write _ -> true | _ -> false

(* Writes-to-shared-memory view: which (var, value, writer) does the event
   publish? RMWs publish directly (they bypass the buffer). *)
let published e =
  match e.kind with
  | Commit_write { var; value } -> Some (var, value)
  | Cas_ev { var; desired; success = true; _ } -> Some (var, desired)
  | Cas_ev { success = false; _ } -> None
  | Faa_ev { var; delta; observed } -> Some (var, observed + delta)
  | Swap_ev { var; stored; _ } -> Some (var, stored)
  | Read _ | Issue_write _ | Enter | Cs | Exit | Begin_fence _ | End_fence _
  | Crash _ | Recover | Abort | Abort_done ->
      None

let kind_tag = function
  | Enter -> "enter"
  | Cs -> "cs"
  | Exit -> "exit"
  | Read _ -> "read"
  | Issue_write _ -> "issue"
  | Commit_write _ -> "commit"
  | Begin_fence _ -> "begin-fence"
  | End_fence _ -> "end-fence"
  | Cas_ev _ -> "cas"
  | Faa_ev _ -> "faa"
  | Swap_ev _ -> "swap"
  | Crash _ -> "crash"
  | Recover -> "recover"
  | Abort -> "abort"
  | Abort_done -> "abort-done"

(* Congruence (paper, Section 2): same process and either the same
   transition/fence event or the same operation on the same variable.
   Values are allowed to differ. *)
let congruent a b =
  Pid.equal a.pid b.pid
  && String.equal (kind_tag a.kind) (kind_tag b.kind)
  && (match (mentioned_var a, mentioned_var b) with
     | Some u, Some v -> Var.equal u v
     | None, None -> true
     | _ -> false)

let pp_kind fmt = function
  | Enter -> Format.pp_print_string fmt "Enter"
  | Cs -> Format.pp_print_string fmt "CS"
  | Exit -> Format.pp_print_string fmt "Exit"
  | Read { var; value; src } ->
      Format.fprintf fmt "read v%d=%d%s" var value
        (match src with
        | From_buffer -> "(buf)"
        | From_cache -> "(cache)"
        | From_memory -> "")
  | Issue_write { var; value } -> Format.fprintf fmt "issue v%d:=%d" var value
  | Commit_write { var; value } -> Format.fprintf fmt "commit v%d:=%d" var value
  | Begin_fence { implicit } ->
      Format.fprintf fmt "begin-fence%s" (if implicit then "(rmw)" else "")
  | End_fence { implicit } ->
      Format.fprintf fmt "end-fence%s" (if implicit then "(rmw)" else "")
  | Cas_ev { var; expected; desired; observed; success } ->
      Format.fprintf fmt "cas v%d %d->%d saw %d %s" var expected desired
        observed
        (if success then "ok" else "fail")
  | Faa_ev { var; delta; observed } ->
      Format.fprintf fmt "faa v%d +%d saw %d" var delta observed
  | Swap_ev { var; stored; observed } ->
      Format.fprintf fmt "swap v%d:=%d saw %d" var stored observed
  | Crash { committed; dropped } ->
      Format.fprintf fmt "crash committed=%d dropped=%d" committed dropped
  | Recover -> Format.pp_print_string fmt "recover"
  | Abort -> Format.pp_print_string fmt "abort"
  | Abort_done -> Format.pp_print_string fmt "abort-done"

let pp fmt e =
  Format.fprintf fmt "#%d %a %a%s%s%s" e.seq Pid.pp e.pid pp_kind e.kind
    (if e.remote then " R" else "")
    (if e.rmr then " $" else "")
    (if e.critical then " !" else "")

(* Information-flow reconstruction over a trace.

   Recomputes, from the event sequence alone, everything the paper's
   definitions derive from an execution: awareness sets (Definition 1),
   writer(v, E), Accessed(v, E), per-process status, Act(E), and the
   criticality of every event (Definition 2). The machine tracks the same
   quantities online; tests cross-check the two. Analyses over *erased*
   executions must use this module, since criticality is relative to the
   execution containing the event.

   The fold is a state fed one event at a time, so a caller that watches
   one execution grow (the construction's per-step audit) resumes it
   instead of re-reading the prefix. [analyze] is the batch form. *)

open Tsim
open Execution
open Tsim.Ids

type summary = {
  layout : Layout.t;
  aw : (Pid.t, Pidset.t) Hashtbl.t;  (* awareness sets after the trace *)
  writer : (Var.t, Pid.t) Hashtbl.t;  (* writer(v, E); absent = ⊥ *)
  writer_aw : (Var.t, Pidset.t) Hashtbl.t;
  accessed : (Var.t, Pidset.t) Hashtbl.t;  (* Accessed(v, E) *)
  status : (Pid.t, [ `Ncs | `Entry | `Exit ]) Hashtbl.t;
  passages : (Pid.t, int) Hashtbl.t;  (* Enters minus Exits *)
  remote_owned : (Pid.t, (int * int * Pid.t * Var.t) list) Hashtbl.t;
      (* by owner: (index, seq, pid, var) of each remote access, newest
         first *)
  critical : bool Vec.t;  (* criticality of each event, recomputed *)
  issue_aw : (Pid.t * Var.t, Pidset.t) Hashtbl.t;
      (* issue-time awareness snapshots, keyed by (pid, var); replaced when
         the buffered write is replaced *)
  remote_read : (Pid.t * Var.t, unit) Hashtbl.t;
      (* first-remote-read bookkeeping *)
}

let get_aw s p =
  Option.value ~default:(Pidset.singleton p) (Hashtbl.find_opt s.aw p)

let get_writer s v = Hashtbl.find_opt s.writer v
let get_accessed s v =
  Option.value ~default:Pidset.empty (Hashtbl.find_opt s.accessed v)
let get_status s p = Option.value ~default:`Ncs (Hashtbl.find_opt s.status p)
let get_remote_owned s q =
  Option.value ~default:[] (Hashtbl.find_opt s.remote_owned q)
let fed s = Vec.length s.critical

(* Act(E): processes with more Enters than Exits, the rule of
   [Trace.active]. *)
let active s =
  Hashtbl.fold
    (fun p k acc -> if k > 0 then Pidset.add p acc else acc)
    s.passages Pidset.empty

let create layout =
  { layout; aw = Hashtbl.create 32; writer = Hashtbl.create 32;
    writer_aw = Hashtbl.create 32; accessed = Hashtbl.create 32;
    status = Hashtbl.create 32; passages = Hashtbl.create 32;
    remote_owned = Hashtbl.create 32; critical = Vec.create false;
    issue_aw = Hashtbl.create 32; remote_read = Hashtbl.create 32 }

let feed s (e : Event.t) =
  let i = fed s and p = e.Event.pid in
  let absorb v =
    match Hashtbl.find_opt s.writer v with
    | None -> ()
    | Some q ->
        let waw =
          Option.value ~default:Pidset.empty (Hashtbl.find_opt s.writer_aw v)
        in
        Hashtbl.replace s.aw p (Pidset.add q (Pidset.union (get_aw s p) waw))
  in
  let note_access v remote =
    Hashtbl.replace s.accessed v (Pidset.add p (get_accessed s v));
    if remote then
      match Layout.owner s.layout v with
      | Some q ->
          Hashtbl.replace s.remote_owned q
            ((i, e.Event.seq, p, v) :: get_remote_owned s q)
      | None -> ()
  in
  let passage d =
    Hashtbl.replace s.passages p
      (d + Option.value ~default:0 (Hashtbl.find_opt s.passages p))
  in
  let is_remote v = Layout.is_remote s.layout p v in
  let critical =
    match e.Event.kind with
    | Event.Enter ->
        Hashtbl.replace s.status p `Entry;
        passage 1;
        false
    | Event.Cs ->
        Hashtbl.replace s.status p `Exit;
        false
    | Event.Exit ->
        Hashtbl.replace s.status p `Ncs;
        passage (-1);
        false
    (* crash faults: the committed prefix already appeared as ordinary
       Commit_write events; the wipe itself resets the section and is never
       critical *)
    | Event.Crash _ ->
        Hashtbl.replace s.status p `Ncs;
        false
    (* abort faults: the process runs its cleanup section (still entry-side
       work), so the section flips back to NCS only at Abort_done *)
    | Event.Abort_done ->
        Hashtbl.replace s.status p `Ncs;
        false
    | Event.Recover | Event.Abort | Event.Begin_fence _ | Event.End_fence _
    | Event.Read { src = Event.From_buffer; _ } ->
        false
    | Event.Read { var = v; src = Event.From_cache | Event.From_memory; _ } ->
        let remote = is_remote v in
        let first = remote && not (Hashtbl.mem s.remote_read (p, v)) in
        if first then Hashtbl.replace s.remote_read (p, v) ();
        absorb v;
        note_access v remote;
        first
    | Event.Issue_write { var = v; _ } ->
        Hashtbl.replace s.issue_aw (p, v) (get_aw s p);
        false
    | Event.Commit_write { var = v; _ } ->
        let remote = is_remote v in
        let prev = Hashtbl.find_opt s.writer v in
        Hashtbl.replace s.writer v p;
        Hashtbl.replace s.writer_aw v
          (Option.value ~default:(get_aw s p)
             (Hashtbl.find_opt s.issue_aw (p, v)));
        Hashtbl.remove s.issue_aw (p, v);
        note_access v remote;
        remote && prev <> Some p
    | Event.Cas_ev { var = v; success; _ } ->
        let remote = is_remote v in
        let prev = Hashtbl.find_opt s.writer v in
        let first = remote && not (Hashtbl.mem s.remote_read (p, v)) in
        if remote then Hashtbl.replace s.remote_read (p, v) ();
        absorb v;
        note_access v remote;
        if success then begin
          Hashtbl.replace s.writer v p;
          Hashtbl.replace s.writer_aw v (get_aw s p)
        end;
        first || (success && remote && prev <> Some p)
    | Event.Faa_ev { var = v; _ } | Event.Swap_ev { var = v; _ } ->
        let remote = is_remote v in
        let prev = Hashtbl.find_opt s.writer v in
        let first = remote && not (Hashtbl.mem s.remote_read (p, v)) in
        if remote then Hashtbl.replace s.remote_read (p, v) ();
        absorb v;
        note_access v remote;
        Hashtbl.replace s.writer v p;
        Hashtbl.replace s.writer_aw v (get_aw s p);
        first || (remote && prev <> Some p)
  in
  Vec.push s.critical critical

let analyze (t : Trace.t) : summary =
  let s = create (Trace.layout t) in
  Trace.iter (feed s) t;
  s

(* Cross-check the recomputed criticality flags against the online flags
   recorded in the events; returns the indices that disagree. *)
let criticality_disagreements (t : Trace.t) (s : summary) =
  let bad = ref [] in
  Array.iteri
    (fun i (e : Event.t) ->
      if e.Event.critical <> Vec.get s.critical i then bad := i :: !bad)
    (Trace.events t);
  List.rev !bad

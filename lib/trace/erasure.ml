(* Erasure by deterministic replay — the executable form of Lemmas 1 and 4.

   The paper erases a set [Y] of invisible processes from an execution [E]
   and argues that [E^{-Y}] is again an execution. Operationally we rebuild
   a fresh machine from the same configuration and *drive* it with the
   filtered event sequence: at each trace event we let the corresponding
   process take one step (or commit) and check the event produced is
   congruent to the recorded one. If the erased processes were genuinely
   invisible (IN1), every remaining process reads the same values and the
   replay reproduces the erased execution verbatim; any divergence is
   reported as a [mismatch], which test suites treat as a violation of the
   erasure lemma's premises. *)

open Tsim
open Tsim.Ids

type mismatch = {
  at : int;  (* index in the filtered event list *)
  expected : Event.t;  (* recorded event *)
  got : Event.t option;  (* event produced on replay, if any *)
  reason : string;
}

type result = {
  machine : Machine.t;
  replayed : int;  (* events successfully replayed *)
  mismatches : mismatch list;
  value_divergences : int;
      (* congruent events whose read/observed values differed — allowed by
         congruence but indicative of information flow from erased
         processes *)
}

let values_agree (a : Event.t) (b : Event.t) =
  match (a.Event.kind, b.Event.kind) with
  | Event.Read { value = x; _ }, Event.Read { value = y; _ } -> x = y
  | Event.Commit_write { value = x; _ }, Event.Commit_write { value = y; _ }
    ->
      x = y
  | Event.Cas_ev { observed = x; success = sx; _ },
    Event.Cas_ev { observed = y; success = sy; _ } ->
      x = y && sx = sy
  | Event.Faa_ev { observed = x; _ }, Event.Faa_ev { observed = y; _ } ->
      x = y
  | Event.Swap_ev { observed = x; _ }, Event.Swap_ev { observed = y; _ } ->
      x = y
  | _ -> true

(* Replay [events] (already filtered) on a fresh machine built from [cfg].
   Stops at the first structural mismatch. *)
let replay_events (cfg : Config.t) (events : Event.t array) : result =
  let m = Machine.create cfg in
  let mismatches = ref [] in
  let divergences = ref 0 in
  let replayed = ref 0 in
  (try
     Array.iteri
       (fun i (e : Event.t) ->
         let p = e.Event.pid in
         let got =
           match e.Event.kind with
           | Event.Commit_write _ -> (
               (* the adversary may have committed outside a fence *)
               match Machine.pending m p with
               | Machine.P_commit _ -> Machine.step m p
               | _ ->
                   let pr = Machine.proc m p in
                   if Wbuf.is_empty pr.Machine.buf then
                     raise
                       (Failure
                          (Printf.sprintf
                             "replay: p%d has empty buffer at #%d" p i))
                   else Machine.commit m p)
           | _ -> Machine.step m p
         in
         if not (Event.congruent e got) then begin
           mismatches :=
             { at = i; expected = e; got = Some got;
               reason = "non-congruent event on replay" }
             :: !mismatches;
           raise Exit
         end;
         if not (values_agree e got) then incr divergences;
         incr replayed)
       events
   with
  | Exit -> ()
  | Failure msg ->
      mismatches :=
        { at = !replayed; expected = Event.dummy; got = None; reason = msg }
        :: !mismatches
  | Machine.Process_finished p ->
      mismatches :=
        { at = !replayed; expected = Event.dummy; got = None;
          reason = Printf.sprintf "process p%d already finished" p }
        :: !mismatches);
  { machine = m; replayed = !replayed; mismatches = List.rev !mismatches;
    value_divergences = !divergences }

(* [erase cfg trace erased] = replay of [trace^{-erased}]. *)
let erase (cfg : Config.t) (t : Trace.t) (erased : Pidset.t) : result =
  replay_events cfg (Trace.events (Trace.erase_pids t erased))

let erase_ok r = r.mismatches = [] && r.value_divergences = 0

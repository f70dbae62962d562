(* Ordered executions (Definition 6).

   Used by the write phase: an execution is ordered when every variable
   satisfies one of
     (a) its last writer is not active;
     (b) its last writer is the only active process to access it;
     (c) the trace contains a contiguous run of commit writes to it by all
         active processes in increasing ID order, and every active process
         is still inside the fence during which it committed that write. *)

open Tsim
open Execution
open Tsim.Ids

type clause = A | B | C

type var_verdict = { var : Var.t; clause : clause option; detail : string }

(* Does the trace contain a contiguous block of commit-writes to [v] by all
   of [act] in increasing ID order? *)
let find_ordered_block (t : Trace.t) v act =
  let ids = Pidset.elements act in
  let k = List.length ids in
  if k = 0 then None
  else
    let events = Trace.events t in
    let n = Array.length events in
    let is_commit_to_v (e : Event.t) =
      match e.Event.kind with
      | Event.Commit_write { var; _ } -> Var.equal var v
      | _ -> false
    in
    let rec try_at i =
      if i + k > n then None
      else if
        List.for_all2
          (fun j p ->
            let e = events.(i + j) in
            is_commit_to_v e && Pid.equal e.Event.pid p)
          (List.init k Fun.id) ids
      then Some i
      else try_at (i + 1)
    in
    try_at 0

(* Is [p] still executing, after the trace, the fence during which it
   committed event index [i]? True iff a BeginFence by [p] precedes [i] with
   no later EndFence by [p] anywhere after that BeginFence. *)
let still_in_commit_fence (t : Trace.t) p i =
  let events = Trace.events t in
  let begin_before = ref None in
  Array.iteri
    (fun j (e : Event.t) ->
      if Pid.equal e.Event.pid p && j <= i then
        match e.Event.kind with
        | Event.Begin_fence _ -> begin_before := Some j
        | _ -> ())
    events;
  match !begin_before with
  | None -> false
  | Some b ->
      let ended = ref false in
      Array.iteri
        (fun j (e : Event.t) ->
          if j > b && Pid.equal e.Event.pid p then
            match e.Event.kind with
            | Event.End_fence _ -> ended := true
            | _ -> ())
        events;
      not !ended

let check_var (t : Trace.t) (s : Flow.summary) act v : var_verdict =
  match Flow.get_writer s v with
  | None -> { var = v; clause = Some A; detail = "writer = ⊥" }
  | Some w when not (Pidset.mem w act) ->
      { var = v; clause = Some A; detail = Printf.sprintf "writer p%d not active" w }
  | Some w ->
      let accessors = Pidset.inter (Flow.get_accessed s v) act in
      if Pidset.equal accessors (Pidset.singleton w) then
        { var = v; clause = Some B;
          detail = Printf.sprintf "p%d is the only active accessor" w }
      else (
        match find_ordered_block t v act with
        | Some i ->
            let k = Pidset.cardinal act in
            let all_in_fence =
              List.for_all
                (fun (j, p) -> still_in_commit_fence t p (i + j))
                (List.mapi (fun j p -> (j, p)) (Pidset.elements act))
            in
            ignore k;
            if all_in_fence then
              { var = v; clause = Some C;
                detail = Printf.sprintf "ID-ordered commit block at #%d" i }
            else
              { var = v; clause = None;
                detail = "commit block found but some process completed its fence" }
        | None ->
            { var = v; clause = None;
              detail =
                Printf.sprintf
                  "writer p%d active, %d active accessors, no ordered block" w
                  (Pidset.cardinal accessors) })

type verdict = { ok : bool; failures : var_verdict list }

let check (t : Trace.t) : verdict =
  let s = Flow.analyze t in
  let act = Trace.active t in
  let layout = Trace.layout t in
  let failures = ref [] in
  for v = 0 to Layout.size layout - 1 do
    let vv = check_var t s act v in
    if vv.clause = None then failures := vv :: !failures
  done;
  { ok = !failures = []; failures = List.rev !failures }

(* Executions as first-class data.

   A trace is the event sequence of an execution together with the layout
   it was produced against. The lower-bound construction manipulates
   executions syntactically — erasing processes ([E^{-Y}]), projecting
   ([E | Y]), concatenating — and this module provides those operations.
   Semantic validity of an erased execution (Lemma 1 / Lemma 4) is
   established by *replay* in [Erasure]. *)

open Tsim
open Tsim.Ids

type t = {
  layout : Layout.t;
  events : Event.t array;
}

let of_machine m =
  { layout = Machine.(config m).Config.layout;
    events = Vec.to_array (Machine.trace m) }

let of_events layout events = { layout; events }

let length t = Array.length t.events
let events t = t.events
let layout t = t.layout
let get t i = t.events.(i)

let iter f t = Array.iter f t.events
let iteri f t = Array.iteri f t.events
let fold f acc t = Array.fold_left f acc t.events

(* The events satisfying [keep], in one pass over the array. *)
let filter keep t =
  let kept = Array.make (Array.length t.events) Event.dummy and k = ref 0 in
  Array.iter
    (fun e ->
      if keep e then begin
        kept.(!k) <- e;
        incr k
      end)
    t.events;
  { t with events = Array.sub kept 0 !k }

(* [E^{-Y}]: remove every event by a process in [erased]. *)
let erase_pids t erased =
  filter (fun (e : Event.t) -> not (Pidset.mem e.Event.pid erased)) t

(* [E | Y]: keep only events by processes in [kept]. *)
let project t kept = filter (fun (e : Event.t) -> Pidset.mem e.Event.pid kept) t

let project_pid t p = project t (Pidset.singleton p)

(* Is [a] a (possibly non-contiguous) subsequence of [b]?  [F ⪯ E]. *)
let is_subexecution a b =
  let na = Array.length a.events and nb = Array.length b.events in
  let rec go i j =
    if i >= na then true
    else if j >= nb then false
    else if
      a.events.(i).Event.seq = b.events.(j).Event.seq
      && Event.congruent a.events.(i) b.events.(j)
    then go (i + 1) (j + 1)
    else go i (j + 1)
  in
  go 0 0

(* Processes that issued at least one event. *)
let participants t =
  fold (fun acc (e : Event.t) -> Pidset.add e.Event.pid acc) Pidset.empty t

(* Total contention: number of participating processes. *)
let total_contention t = Pidset.cardinal (participants t)

(* Processes that completed at least one passage (executed Exit). *)
let finished t =
  fold
    (fun acc (e : Event.t) ->
      match e.Event.kind with
      | Event.Exit -> Pidset.add e.Event.pid acc
      | _ -> acc)
    Pidset.empty t

(* Processes that started a passage (executed Enter) and have not completed
   their last started passage. *)
let active t =
  let started = Hashtbl.create 16 and ended = Hashtbl.create 16 in
  let bump tbl p =
    Hashtbl.replace tbl p (1 + Option.value ~default:0 (Hashtbl.find_opt tbl p))
  in
  iter
    (fun (e : Event.t) ->
      match e.Event.kind with
      | Event.Enter -> bump started e.Event.pid
      | Event.Exit -> bump ended e.Event.pid
      | _ -> ())
    t;
  Hashtbl.fold
    (fun p s acc ->
      let f = Option.value ~default:0 (Hashtbl.find_opt ended p) in
      if s > f then Pidset.add p acc else acc)
    started Pidset.empty

(* Fences completed by [p] (EndFence events). *)
let fences_completed t p =
  fold
    (fun acc (e : Event.t) ->
      match e.Event.kind with
      | Event.End_fence _ when Pid.equal e.Event.pid p -> acc + 1
      | _ -> acc)
    0 t

let pp fmt t =
  Array.iter (fun e -> Format.fprintf fmt "%a@." Event.pp e) t.events

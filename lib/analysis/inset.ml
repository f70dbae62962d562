(* Invisible sets (Definition 4) and regularity (Definition 5).

   Given an execution [E] and a candidate set [INV ⊆ Act(E)], check the
   five IN properties. IN3 quantifies over all subsets [Y ⊆ INV]; checking
   every subset is exponential, so [check] verifies the two informative
   extremes — every singleton and the full set — which catch exactly the
   writer-chain situations in which erasure can change criticality, and
   [check_in3_subset] lets property tests sample random subsets. *)

open Tsim
open Execution
open Tsim.Ids

type violation = {
  property : string;  (* "IN1" .. "IN5" *)
  detail : string;
}

let violation property detail = { property; detail }

let pp_violation fmt v =
  Format.fprintf fmt "%s: %s" v.property v.detail

(* IN1: no process is aware of an invisible process other than itself. *)
let check_in1 (s : Flow.summary) inv =
  Hashtbl.fold
    (fun p aw acc ->
      let bad = Pidset.remove p (Pidset.inter aw inv) in
      if Pidset.is_empty bad then acc
      else
        violation "IN1"
          (Printf.sprintf "p%d is aware of invisible %s" p
             (String.concat "," (List.map Pid.to_string (Pidset.elements bad))))
        :: acc)
    s.Flow.aw []

(* IN2: all invisible processes are in their entry section. *)
let check_in2 (s : Flow.summary) inv =
  Pidset.fold
    (fun p acc ->
      match Flow.get_status s p with
      | `Entry -> acc
      | `Ncs | `Exit ->
          violation "IN2" (Printf.sprintf "p%d is not in its entry section" p)
          :: acc)
    inv []

(* IN3 for one subset [y]: erasing [y] must not change the criticality of
   any remaining event. We recompute criticality on the erased trace and
   compare against the recomputation on the full trace, event by event
   (matching events by their original sequence numbers). *)
let check_in3_subset (t : Trace.t) (s : Flow.summary) y =
  let erased = Trace.erase_pids t y in
  let s' = Flow.analyze erased in
  let events = Trace.events t in
  (* map original seq -> index in full trace *)
  let idx_of_seq = Hashtbl.create (Array.length events) in
  Array.iteri (fun i (e : Event.t) -> Hashtbl.replace idx_of_seq e.Event.seq i) events;
  let bad = ref [] in
  Array.iteri
    (fun j (e : Event.t) ->
      match Hashtbl.find_opt idx_of_seq e.Event.seq with
      | None -> ()
      | Some i ->
          let before = Vec.get s.Flow.critical i
          and after = Vec.get s'.Flow.critical j in
          if before <> after then
            bad :=
              violation "IN3"
                (Printf.sprintf
                   "event #%d by p%d changes criticality (%b -> %b) when erasing {%s}"
                   e.Event.seq e.Event.pid before after
                   (String.concat ","
                      (List.map Pid.to_string (Pidset.elements y))))
              :: !bad)
    (Trace.events erased);
  List.rev !bad

let check_in3 (t : Trace.t) (s : Flow.summary) inv =
  let singletons =
    Pidset.fold
      (fun p acc -> check_in3_subset t s (Pidset.singleton p) @ acc)
      inv []
  in
  let full =
    if Pidset.cardinal inv > 1 then check_in3_subset t s inv else []
  in
  singletons @ full

(* IN4: any remotely-accessed variable is owned by no active process.
   Reported in trace order, from the fold's remote accesses of each active
   owner. *)
let check_in4 (s : Flow.summary) act =
  Pidset.fold
    (fun q acc ->
      List.fold_left
        (fun acc (i, seq, p, v) ->
          ( i,
            violation "IN4"
              (Printf.sprintf
                 "event #%d by p%d remotely accesses %s owned by active p%d"
                 seq p (Layout.name s.Flow.layout v) q) )
          :: acc)
        acc (Flow.get_remote_owned s q))
    act []
  |> List.sort (fun (i, _) (j, _) -> Int.compare i j)
  |> List.map snd

(* IN5: a variable accessed by more than one active process is not last
   written by an invisible process. *)
let check_in5 (s : Flow.summary) act inv =
  Hashtbl.fold
    (fun v pids acc ->
      if Pidset.cardinal (Pidset.inter pids act) > 1 then
        match Flow.get_writer s v with
        | Some w when Pidset.mem w inv ->
            violation "IN5"
              (Printf.sprintf
                 "v%d accessed by >1 active processes but last written by invisible p%d"
                 v w)
            :: acc
        | _ -> acc
      else acc)
    s.Flow.accessed []

type verdict = { ok : bool; violations : violation list }

let verdict vs = { ok = vs = []; violations = vs }

(* IN0 ([inv] ⊆ Act) and IN1..IN5 in report order, with the IN3 violations
   [in3] spliced in after IN2. *)
let check_with ~in3 (s : Flow.summary) inv =
  let act = Flow.active s in
  let not_active = Pidset.diff inv act in
  let in0 =
    if Pidset.is_empty not_active then []
    else
      [ violation "IN0"
          (Printf.sprintf "INV must be a subset of Act: {%s} not active"
             (String.concat ","
                (List.map Pid.to_string (Pidset.elements not_active)))) ]
  in
  verdict
    (in0 @ check_in1 s inv @ check_in2 s inv @ in3 @ check_in4 s act
    @ check_in5 s act inv)

let check_flow s inv = check_with ~in3:[] s inv

(* Check IN1..IN5 (IN3 approximated as described above). *)
let check ?(in3 = true) (t : Trace.t) (inv : Pidset.t) : verdict =
  let s = Flow.analyze t in
  check_with ~in3:(if in3 then check_in3 t s inv else []) s inv

(* Semi-regular: Act(E) satisfies IN1-IN4 (Definition 5, relaxed). *)
let check_semi_regular ?(in3 = true) (t : Trace.t) : verdict =
  let s = Flow.analyze t in
  let act = Flow.active s in
  verdict
    (check_in1 s act @ check_in2 s act
    @ (if in3 then check_in3 t s act else [])
    @ check_in4 s act)

(* Regular: Act(E) is an IN-set of E (Definition 5). *)
let check_regular ?(in3 = true) (t : Trace.t) : verdict =
  check ~in3 t (Trace.active t)

(* Per-process cache directory for the CC cost models.

   The simulator keeps a single authoritative value per variable (coherence
   guarantees caches never serve stale data), so the cache only tracks *line
   states* for RMR accounting, exactly as in the protocol description the
   paper quotes from Golab et al.:

   - write-through: a line is either Invalid or Valid;
   - write-back: Invalid, Shared or Exclusive. *)

open Ids

type state = Invalid | Shared | Exclusive

type t = {
  nvars : int;
  lines : Bytes.t array;  (* lines.(p) holds one byte per variable *)
}

let state_to_char = function Invalid -> '\000' | Shared -> '\001' | Exclusive -> '\002'

let state_of_char = function
  | '\000' -> Invalid
  | '\001' -> Shared
  | '\002' -> Exclusive
  | _ -> assert false

let create ~n ~nvars =
  { nvars; lines = Array.init n (fun _ -> Bytes.make (max nvars 1) '\000') }

let get t p v = state_of_char (Bytes.get t.lines.(p) v)
let set t p v s = Bytes.set t.lines.(p) v (state_to_char s)

let invalidate_others t p v =
  Array.iteri
    (fun q line -> if not (Pid.equal q p) then Bytes.set line v '\000')
    t.lines

let downgrade_exclusive t v =
  Array.iter
    (fun line ->
      if Char.equal (Bytes.get line v) '\002' then Bytes.set line v '\001')
    t.lines

let copy t = { nvars = t.nvars; lines = Array.map Bytes.copy t.lines }

let equal a b =
  a.nvars = b.nvars
  && Array.length a.lines = Array.length b.lines
  && Array.for_all2 Bytes.equal a.lines b.lines

let holders t v =
  let out = ref [] in
  Array.iteri
    (fun p line ->
      match state_of_char (Bytes.get line v) with
      | Invalid -> ()
      | s -> out := (p, s) :: !out)
    t.lines;
  List.rev !out

(* MESI-style coherence: a variable held Exclusive anywhere is held by
   exactly one process and by nobody else in any state. *)
let coherent t v =
  let hs = holders t v in
  let exclusive = List.filter (fun (_, s) -> s = Exclusive) hs in
  match exclusive with [] -> true | [ _ ] -> List.length hs = 1 | _ -> false

let coherence_ok t =
  let rec go v = v >= t.nvars || (coherent t v && go (v + 1)) in
  go 0

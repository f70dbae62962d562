(* Process programs as a free monad over shared-memory operations.

   A program is a deterministic description of what a process does between
   transition events: it reads and writes shared variables, issues fences,
   and may use comparison primitives (CAS / fetch-and-add / swap), which the
   paper's tradeoff explicitly covers. Determinism given read values is what
   makes the trace-erasure machinery of the lower-bound construction
   (Lemmas 1 and 4) executable: erasing a set of processes re-runs the
   remaining programs against the filtered trace. *)

open Ids

type _ op =
  | Read : Var.t -> Value.t op
  | Write : Var.t * Value.t -> unit op
  | Fence : unit op
  | Cas : Var.t * Value.t * Value.t -> bool op
      (* [Cas (v, expected, desired)] *)
  | Faa : Var.t * Value.t -> Value.t op
      (* [Faa (v, delta)] returns the previous value *)
  | Swap : Var.t * Value.t -> Value.t op
      (* [Swap (v, x)] atomically stores [x], returns the previous value *)
  | Abortable : bool -> unit op
      (* abortable-waiting marker: a purely local step that declares (true)
         or retracts (false) that the process is at a wait point where an
         adversary-injected abort may be delivered. Touches no shared
         memory and emits no trace event; it only moves the per-process
         abortable flag, which gates [Machine.abort]. *)

type 'a t =
  | Return : 'a -> 'a t
  | Bind : 'b op * ('b -> 'a t) -> 'a t

let return x = Return x

let rec bind m f =
  match m with
  | Return x -> f x
  | Bind (op, k) -> Bind (op, fun x -> bind (k x) f)

let ( let* ) = bind
let ( >>= ) = bind
let map m f = bind m (fun x -> Return (f x))
let ( let+ ) = map

let read v = Bind (Read v, return)
let write v x = Bind (Write (v, x), return)
let fence = Bind (Fence, return)
let cas v ~expected ~desired = Bind (Cas (v, expected, desired), return)
let faa v delta = Bind (Faa (v, delta), return)
let swap v x = Bind (Swap (v, x), return)

let unit = Return ()

(* Sequencing helpers used all over the lock implementations. *)

let rec seq = function
  | [] -> Return ()
  | m :: ms -> bind m (fun () -> seq ms)

let rec for_ lo hi body =
  if lo > hi then Return () else bind (body lo) (fun () -> for_ (lo + 1) hi body)

(* Bounded busy-wait: spin reading [v] until [cond] holds on the value read.
   Unbounded spinning would make the simulator diverge under schedules that
   never satisfy the condition, so every spin carries a fuel bound; exceeding
   it raises [Spin_exhausted], which the harnesses surface as a liveness
   diagnosis rather than an infinite loop. *)

exception Spin_exhausted of Var.t

(* Default fuel for busy-waits. The model checker (lib/mcheck) shrinks it
   during state-space exploration, since every spin iteration is a
   distinct continuation state. *)
let default_spin_fuel = ref 1_000_000

let spin_until ?fuel v cond =
  let fuel = match fuel with Some f -> f | None -> !default_spin_fuel in
  let rec go n =
    if n <= 0 then raise (Spin_exhausted v)
    else
      let* x = read v in
      if cond x then Return x else go (n - 1)
  in
  go fuel

let rec repeat_until body cond =
  let* x = body in
  if cond x then Return x else repeat_until body cond

(* Abortable-waiting markers. While the flag is up, the adversary may
   deliver an abort at any scheduling point; lock code brackets exactly
   its declared wait loops with it so cleanup sections only ever observe
   well-defined intermediate states. *)

let abortable b = Bind (Abortable b, return)

let abortably body =
  let* () = abortable true in
  let* x = body in
  let* () = abortable false in
  Return x

let abortable_spin_until ?fuel v cond = abortably (spin_until ?fuel v cond)

(* Retry/backoff idiom: run an optimistic [attempt] (true = success);
   on failure, wait politely by re-reading [v] — the backoff knob, an
   exponentially growing number of local cache re-reads — and retry.
   The wait is the abortable window: acquiring code that loses the race
   can be aborted while backing off, never mid-attempt — the window closes
   before the next attempt starts. Fuel bounds the number of attempts
   exactly like [spin_until] bounds reads. *)
let retry_backoff ?fuel ?(delay = 1) v attempt =
  let fuel = match fuel with Some f -> f | None -> !default_spin_fuel in
  let rec wait k =
    if k <= 0 then unit
    else
      let* _ = read v in
      wait (k - 1)
  in
  let rec go n delay =
    let* ok = attempt in
    if ok then unit
    else if n <= 1 then raise (Spin_exhausted v)
    else
      let* () = abortably (wait delay) in
      go (n - 1) (2 * delay)
  in
  go fuel delay

(* Shared-memory footprint of the head operation, decided without running
   it. [`Write] covers the *issue* of a write (buffer insertion); whether
   the issue or the eventual commit touches shared memory is the
   machine's business ([Machine.step_footprint] refines this with buffer
   and fence state). *)
let head_footprint : type a. a t -> [ `Return | `Read of Var.t | `Write of Var.t | `Fence | `Rmw of Var.t | `Marker ]
    = function
  | Return _ -> `Return
  | Bind (Read v, _) -> `Read v
  | Bind (Write (v, _), _) -> `Write v
  | Bind (Fence, _) -> `Fence
  | Bind (Cas (v, _, _), _) -> `Rmw v
  | Bind (Faa (v, _), _) -> `Rmw v
  | Bind (Swap (v, _), _) -> `Rmw v
  | Bind (Abortable _, _) -> `Marker

(* Describe the head operation of a program, for debugging output. *)
let head_to_string : type a. a t -> string = function
  | Return _ -> "return"
  | Bind (Read v, _) -> Printf.sprintf "read v%d" (Var.to_int v)
  | Bind (Write (v, x), _) -> Printf.sprintf "write v%d:=%d" (Var.to_int v) x
  | Bind (Fence, _) -> "fence"
  | Bind (Cas (v, e, d), _) -> Printf.sprintf "cas v%d %d->%d" (Var.to_int v) e d
  | Bind (Faa (v, d), _) -> Printf.sprintf "faa v%d +%d" (Var.to_int v) d
  | Bind (Swap (v, x), _) -> Printf.sprintf "swap v%d %d" (Var.to_int v) x
  | Bind (Abortable b, _) -> if b then "abortable on" else "abortable off"

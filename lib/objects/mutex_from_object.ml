(* Algorithm 1 of the paper (Lemma 9): one-time mutual exclusion from an
   N-limited-use counter — and hence from a pre-filled queue (dequeue) or
   stack (pop), since either implements fetch&increment.

   Shared data (each write is followed by a fence, as the paper assumes):

     release[N+1] : boolean, initially [1, 0, ..., 0]
     waiting[N+1] : pid or ⊥, initially ⊥
     spin[N]      : boolean, initially 0      (spin.(p) DSM-local to p)
     C            : the provided object

   entry(p):  v := C.fetch&increment()
              waiting[v] := p; fence
              if release[v] = 0 then await spin[p] ≠ 0

   exit(p):   release[v+1] := 1; fence
              q := waiting[v+1]
              if q ≠ ⊥ then spin[q] := 1; fence

   The passage performs exactly one operation on the object plus O(1)
   reads/writes and O(1) fences, so the mutex inherits the object's RMR
   and fence complexities up to an additive constant — which transfers the
   paper's lower bound from locks to counters, stacks and queues. *)

open Tsim
open Tsim.Ids
open Prog

let bottom = -1

type ctx = {
  release : Var.t array;  (* N+1 *)
  waiting : Var.t array;  (* N+1 *)
  spin : Var.t array;  (* N *)
  my_v : int array;  (* scratch: counter value drawn in entry *)
}

let make ?(name_suffix = "") (builder : Obj_intf.builder) ~n :
    Locks.Lock_intf.t =
  let layout = Layout.create () in
  let provider = builder layout ~n in
  let ctx =
    {
      release =
        Array.init (n + 1) (fun i ->
            Layout.var layout
              ~init:(if i = 0 then 1 else 0)
              (Printf.sprintf "release[%d]" i));
      waiting = Layout.array layout ~init:bottom "waiting" (n + 1);
      spin = Layout.array layout ~owner_fn:(fun i -> Some i) ~init:0 "spin" n;
      my_v = Array.make n 0;
    }
  in
  let entry p =
    let* v = provider.Obj_intf.fetch_inc p in
    ctx.my_v.(p) <- v;
    let* () = write ctx.waiting.(v) p in
    let* () = fence in
    let* r = read ctx.release.(v) in
    if r <> 0 then unit
    else
      let* _ = spin_until ctx.spin.(p) (fun x -> x <> 0) in
      unit
  in
  let exit_section p =
    let v = ctx.my_v.(p) in
    let* () = write ctx.release.(v + 1) 1 in
    let* () = fence in
    let* q = read ctx.waiting.(v + 1) in
    if q = bottom then unit
    else
      let* () = write ctx.spin.(q) 1 in
      fence
  in
  {
    Locks.Lock_intf.name =
      "mutex-from-" ^ provider.Obj_intf.provider_name ^ name_suffix;
    uses_rmw = provider.Obj_intf.uses_rmw;
    one_time = true;
    adaptive = false;
    layout;
    entry;
    exit_section;
    recovery = None;
    abort = None;
  }

let from_counter_faa ~n = make Counter.faa_provider ~n
let from_counter_cas ~n = make Counter.cas_provider ~n
let from_queue ~n = make Oqueue.dequeue_provider ~n
let from_stack ~n = make Ostack.pop_provider ~n

let families : Locks.Lock_intf.family list =
  [
    Locks.Lock_intf.make_family "mutex-from-counter-faa" (fun ~n ->
        from_counter_faa ~n);
    Locks.Lock_intf.make_family "mutex-from-counter-cas" (fun ~n ->
        from_counter_cas ~n);
    Locks.Lock_intf.make_family "mutex-from-queue" (fun ~n -> from_queue ~n);
    Locks.Lock_intf.make_family "mutex-from-stack" (fun ~n -> from_stack ~n);
  ]

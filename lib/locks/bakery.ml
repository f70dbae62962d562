(* Lamport's bakery algorithm, fenced for TSO.

   Pure read/write mutual exclusion. A process announces it is choosing,
   publishes (fence), picks a number one larger than any it read, publishes
   (fence), then defers to every process with a smaller (number, id) pair.

   The per-passage complexity is Θ(n) reads and O(1) fences regardless of
   contention: bakery is the canonical *non-adaptive* read/write lock, and
   its constant fence count is consistent with the paper's tradeoff (only
   adaptive algorithms are forced to grow fences). *)

open Tsim
open Tsim.Ids
open Prog

type ctx = { choosing : Var.t array; number : Var.t array }

(* [pso_safe] fences between the number write and the choosing reset:
   bakery's doorway relies on the ticket being visible no later than the
   choosing flag clears — TSO's FIFO order provides this, PSO does not
   (experiment E13). *)
let make ?(pso_safe = false) ~n () : Lock_intf.t =
  let layout = Layout.create () in
  let ctx =
    {
      choosing = Layout.array layout ~owner_fn:(fun i -> Some i) "choosing" n;
      number = Layout.array layout ~owner_fn:(fun i -> Some i) "number" n;
    }
  in
  let entry p =
    let* () = write ctx.choosing.(p) 1 in
    let* () = fence in
    (* scan for the maximum ticket *)
    let rec scan q m =
      if q >= n then return m
      else
        let* x = read ctx.number.(q) in
        scan (q + 1) (max m x)
    in
    let* m = scan 0 0 in
    let* () = write ctx.number.(p) (m + 1) in
    let* () = if pso_safe then fence else unit in
    let* () = write ctx.choosing.(p) 0 in
    let* () = fence in
    (* defer to smaller (number, id) pairs *)
    let rec await q =
      if q >= n then unit
      else if q = p then await (q + 1)
      else
        let* _ = spin_until ctx.choosing.(q) (fun x -> x = 0) in
        let* _ =
          spin_until ctx.number.(q) (fun x ->
              x = 0 || x > m + 1 || (x = m + 1 && q > p))
        in
        await (q + 1)
    in
    await 0
  in
  let exit_section p =
    let* () = write ctx.number.(p) 0 in
    fence
  in
  {
    Lock_intf.name = (if pso_safe then "bakery-pso" else "bakery");
    uses_rmw = false;
    one_time = false;
    adaptive = false;
    layout;
    entry;
    exit_section;
    recovery = None;
    abort = None;
  }

let family = Lock_intf.make_family "bakery" (fun ~n -> make ~n ())

let family_pso =
  Lock_intf.make_family "bakery-pso" (fun ~n -> make ~pso_safe:true ~n ())

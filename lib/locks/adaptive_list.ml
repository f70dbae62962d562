(* Announce-list adaptive lock (one-time, FIFO by announcement).

   The reproduction's *adaptive target* for the lower-bound adversary
   (experiment E3). A process pushes itself onto a CAS-built announce list
   and then waits, in announcement order, for every earlier announcer to
   exit. With total contention k a passage costs O(k) RMRs (push + walk +
   one cache refill per predecessor exit in CC), so the lock is f-adaptive
   with linear f — exactly the family Corollary 2 applies to.

   Its fence complexity is where the paper's tradeoff bites: each CAS
   attempt drains the store buffer (one fence), and under an adversarial
   schedule the k announcers' CASes collide so that some process retries
   Θ(k) times — the forced-fence growth the adversary exhibits. *)

open Tsim
open Tsim.Ids
open Prog

let nil = -1

type ctx = {
  head : Var.t;
  nxt : Var.t array;  (* nxt.(p): predecessor-in-announcement of p *)
  exited : Var.t array;  (* exited.(p) = 1 once p completed its passage *)
}

let make ~n : Lock_intf.t =
  let layout = Layout.create () in
  let ctx =
    {
      head = Layout.var layout ~init:nil "head";
      nxt = Layout.array layout ~owner_fn:(fun i -> Some i) ~init:nil "nxt" n;
      exited = Layout.array layout ~owner_fn:(fun i -> Some i) ~init:0 "exited" n;
    }
  in
  let entry p =
    (* push self at the head of the announce list *)
    let rec push () =
      let* h = read ctx.head in
      let* () = write ctx.nxt.(p) h in
      let* ok = cas ctx.head ~expected:h ~desired:p in
      if ok then return h else push ()
    in
    let* pred = push () in
    (* wait for every earlier announcer, in list order *)
    let rec await q =
      if q = nil then unit
      else
        let* _ = spin_until ctx.exited.(q) (fun x -> x = 1) in
        let* q' = read ctx.nxt.(q) in
        await q'
    in
    await pred
  in
  let exit_section p =
    let* () = write ctx.exited.(p) 1 in
    fence
  in
  {
    Lock_intf.name = "adaptive-list";
    uses_rmw = true;
    one_time = true;
    adaptive = true;
    layout;
    entry;
    exit_section;
    recovery = None;
    abort = None;
  }

let family = Lock_intf.make_family "adaptive-list" (fun ~n -> make ~n)

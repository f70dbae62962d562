(* Peterson's filter lock (n-process generalization).

   n-1 levels; at each level a process announces itself, volunteers as
   the level's victim, publishes (one fence per level), and waits until
   either no other process is at its level or beyond, or it is no longer
   the victim. Read/write only; Θ(n) fences and Θ(n²) reads per
   contended passage — the expensive classic that bounds the zoo from
   above. *)

open Tsim
open Tsim.Ids
open Prog

type ctx = { level : Var.t array; victim : Var.t array }

let make ~n : Lock_intf.t =
  let layout = Layout.create () in
  let ctx =
    {
      level = Layout.array layout ~owner_fn:(fun i -> Some i) ~init:0 "level" n;
      victim = Layout.array layout ~init:(-1) "victim" n;
    }
  in
  let entry p =
    let rec levels l =
      if l >= n then unit
      else
        let* () = write ctx.level.(p) l in
        let* () = write ctx.victim.(l) p in
        let* () = fence in
        (* wait while exists q != p with level[q] >= l and victim[l] = p *)
        let rec await fuel =
          if fuel <= 0 then raise (Prog.Spin_exhausted ctx.victim.(l))
          else
            let rec scan q =
              if q >= n then return false
              else if q = p then scan (q + 1)
              else
                let* lq = read ctx.level.(q) in
                if lq >= l then return true else scan (q + 1)
            in
            let* someone_ahead = scan 0 in
            if not someone_ahead then unit
            else
              let* v = read ctx.victim.(l) in
              if v <> p then unit else await (fuel - 1)
        in
        let* () = await !Tsim.Prog.default_spin_fuel in
        levels (l + 1)
    in
    levels 1
  in
  let exit_section p =
    let* () = write ctx.level.(p) 0 in
    fence
  in
  {
    Lock_intf.name = "filter";
    uses_rmw = false;
    one_time = false;
    adaptive = false;
    layout;
    entry;
    exit_section;
    recovery = None;
    abort = None;
  }

let family = Lock_intf.make_family "filter" (fun ~n -> make ~n)

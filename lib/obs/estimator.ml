(* Online Knuth/Chen probe estimator. See the .mli for the math; the
   implementation notes here are about the routing scheme and staying
   off the search's hot path.

   The frame stack mirrors the DFS recursion. Frame [d] holds the
   node's not-yet-consumed child slots and still-unrouted probes packed
   in one int ([slots lsl 31 lor alive] — both fit 31 bits by the
   clamps in [create]/[enter]), and two floats: the node's own reach
   share (the probability a probe reaches it; its reciprocal is the
   estimator weight) and its undistributed mass. Packing halves the
   array traffic of the per-node hooks, and the bounds are checked once
   per [enter] ([ensure]), so the frame accesses compile to raw loads —
   this module runs three hooks per search node, so single-digit
   nanoseconds matter. Once [alive] hits 0 on a path — which happens
   within a few levels for realistic probe counts — enter/leaf/leave
   perform no PRNG draws and no divisions, so the estimator's cost
   concentrates near the root.

   Routing. A child that ENTERS at a moment when its parent has [r]
   unconsumed slots and undistributed mass [m] receives the share
   [m / r] of the parent's mass, and a balanced probe allotment with
   the matching expectation [alive / r]. A child that is abandoned
   without entering ([leaf]: asleep, dedup-pruned, delegated, or a
   raising move) consumes a slot but NO probes and NO mass — its
   implicit share stays with the parent, flowing to later entered
   children (and whatever is left when the node closes retires as
   explored mass). Both the share sequence and the entered/leaf
   pattern are fixed by the (deterministic) search, so every entered
   node's reach share is a deterministic quantity, and
   E[estimate] = Σ_entered E[alive] / (probes · share) = #entered nodes
   exactly — unbiasedness does not depend on the routing being
   uniform, only on E[routed | alive, r] = alive / r, which holds for
   the balanced draw below. Compared with routing probes into every
   declared slot (where each pruned slot kills its allotment), this
   keeps the flow on the surviving tree and collapses the notorious
   heavy tail of tree-size probing under heavy dedup pruning. *)

type cfg = { probes : int; seed : int }

let default_cfg = { probes = 64; seed = 0 }

type t = {
  probes : int;
  mutable rng : int64;
  (* frames, indexed by depth; [ensure] keeps both arrays long enough
     for the current depth, licensing the unsafe accesses below *)
  mutable sa : int array; (* slots lsl 31 lor alive *)
  mutable fm : float array; (* 2d: reach share; 2d+1: undistributed mass *)
  mutable depth : int;
  mutable sum : float; (* sum of alive/share over entered nodes *)
  mutable done_mass : float; (* retired mass, across roots *)
  mutable nroots : int;
}

(* splitmix64: tiny, deterministic, good enough for probe routing. *)
let mix s =
  let open Int64 in
  let z = add s 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  (z, logxor z (shift_right_logical z 31))

(* Uniform-ish draw in [0, n): modulo bias is O(n / 2^62), invisible at
   the branching factors a model checker sees. Masked to 62 bits so the
   value stays non-negative in OCaml's 63-bit native int. *)
let rand_int t n =
  let s, x = mix t.rng in
  t.rng <- s;
  Int64.to_int (Int64.logand x 0x3FFFFFFFFFFFFFFFL) mod n

let create ?(cfg = default_cfg) () =
  let cap = 64 in
  {
    (* clamp into the 31-bit alive field of the packed frame *)
    probes = min (max 1 cfg.probes) 0x3FFFFFFF;
    rng = Int64.of_int (cfg.seed lxor 0x5851F42D);
    sa = Array.make cap 0;
    fm = Array.make (2 * cap) 0.;
    depth = 0;
    sum = 0.;
    done_mass = 0.;
    nroots = 0;
  }

let ensure t d =
  if d >= Array.length t.sa then begin
    let cap = max (2 * Array.length t.sa) (d + 1) in
    let sa = Array.make cap 0 and fm = Array.make (2 * cap) 0. in
    Array.blit t.sa 0 sa 0 (Array.length t.sa);
    Array.blit t.fm 0 fm 0 (Array.length t.fm);
    t.sa <- sa;
    t.fm <- fm
  end

(* Reciprocal table: the mass share is [m / r] with [r] a child-slot
   count, almost always tiny — a table lookup and a multiply beat a
   float division on the per-enter path. The ~1-ulp rounding between
   [m *. inv r] and true division only nudges the deterministic share
   partition (both the weight and the routed expectation use the same
   stored share), it does not bias the estimate. *)
let inv_tab =
  Array.init 64 (fun i -> if i = 0 then 0. else 1. /. float_of_int i)

let[@inline] inv r =
  if r < 64 then Array.unsafe_get inv_tab r else 1. /. float_of_int r

(* Balanced (stratified) routing: the entering child takes
   [floor(a/r)] probes plus one more with probability [(a mod r)/r] —
   expectation exactly [a/r], with the flow split almost
   deterministically instead of by independent coin flips per probe
   (the difference between an estimate that concentrates and one that
   rides a heavy tail). The last slot ([r] = 1) takes everything:
   conservation is exact. *)
let route t a r =
  if r = 1 then a
  else
    let base = a / r and rem = a mod r in
    if rem = 0 then base
    else if rand_int t r < rem then base + 1
    else base

let enter t ~children =
  let d = t.depth in
  ensure t d;
  let a, share =
    if d = 0 then begin
      t.nroots <- t.nroots + 1;
      (t.probes, 1.0)
    end
    else begin
      let p = d - 1 in
      let v = Array.unsafe_get t.sa p in
      let r = v lsr 31 in
      if r <= 0 then (0, 0.)
        (* defensive: a node consuming more slots than it declared gets
           no probes and no mass (cannot happen with a correct client,
           but an estimator must never crash a search) *)
      else begin
        let alive = v land 0x7FFFFFFF in
        let x = if alive = 0 then 0 else route t alive r in
        (* one slot consumed, [x] probes routed away *)
        Array.unsafe_set t.sa p (v - (1 lsl 31) - x);
        let b = 2 * p in
        let m = Array.unsafe_get t.fm (b + 1) in
        let share = m *. inv r in
        Array.unsafe_set t.fm (b + 1) (m -. share);
        (x, share)
      end
    end
  in
  Array.unsafe_set t.sa d ((min children 0x3FFFFFFF lsl 31) lor a);
  let b = 2 * d in
  Array.unsafe_set t.fm b share;
  Array.unsafe_set t.fm (b + 1) share;
  if a > 0 && share > 0. then t.sum <- t.sum +. (float_of_int a /. share);
  t.depth <- d + 1

let leaf t =
  if t.depth > 0 then begin
    let d = t.depth - 1 in
    (* a pruned / abandoned child: consumes a slot, keeps its implicit
       mass and probe share with the parent *)
    let v = Array.unsafe_get t.sa d in
    if v lsr 31 > 0 then Array.unsafe_set t.sa d (v - (1 lsl 31))
  end

let leave t =
  if t.depth > 0 then begin
    let d = t.depth - 1 in
    (* whatever mass was never handed to an entered child is now fully
       explored: the node itself (zero-slot leaves retire everything)
       plus every pruned slot's implicit share *)
    t.done_mass <- t.done_mass +. Array.unsafe_get t.fm ((2 * d) + 1);
    t.depth <- d
  end

let estimate t = t.sum /. float_of_int t.probes

let progress t =
  if t.nroots = 0 then 0.
  else
    let p = t.done_mass /. float_of_int t.nroots in
    if p < 0. then 0. else if p > 1. then 1. else p

let probes t = t.probes

(* The search profiler's pay-for-use contract (DESIGN.md §5i) and the
   progress estimator's cost and accuracy, on Peterson's 2-process
   algorithm: a 290-node exhaustive space, small enough to explore
   thousands of times a second.

   End-to-end timing lives in benchmark/; these rows compare two variants
   of the same search within one process, which is what a few-percent
   overhead needs. *)

let row name value unit_ = (name, value, unit_)
let per_node_row name ns = row name ns "ns_per_node"

let peterson_cfg () =
  let layout = Tsim.Layout.create () in
  let flag = Tsim.Layout.array layout ~init:0 "flag" 2 in
  let turn = Tsim.Layout.var layout ~init:0 "turn" in
  let open Tsim.Prog in
  Tsim.Config.make ~model:Tsim.Config.Cc_wb ~check_exclusion:true ~n:2 ~layout
    ~entry:(fun p ->
      let* () = write flag.(p) 1 in
      let* () = write turn p in
      let* () = fence in
      let rec await fuel =
        if fuel <= 0 then raise (Tsim.Prog.Spin_exhausted turn)
        else
          let* f = read flag.(1 - p) in
          if f = 0 then unit
          else
            let* t = read turn in
            if t <> p then unit else await (fuel - 1)
      in
      await 4)
    ~exit_section:(fun p ->
      let* () = write flag.(p) 0 in
      fence)
    ()

(* Overhead rows compare two variants of the same tiny workload, and
   the margin under test (a few percent) is far below the noise of a
   shared runner's 100ms windows. So both variants time every
   individual explore call (~0.4 ms) interleaved and compare per-call
   minima: an uninterrupted call is a clean sample of intrinsic cost,
   and among thousands of calls some are uninterrupted even on a busy
   box. *)
let per_node_min_pair f g =
  ignore (f ());
  ignore (g ());
  Gc.compact ();
  let bf = ref infinity and bg = ref infinity in
  let one h best =
    for _ = 1 to 300 do
      let t0 = Unix.gettimeofday () in
      let nodes = h () in
      let dt = Unix.gettimeofday () -. t0 in
      let ns = dt *. 1e9 /. float_of_int nodes in
      if ns < !best then best := ns
    done
  in
  for _ = 1 to 4 do
    one f bf;
    one g bg
  done;
  (!bf, !bg)

(* Profiling overhead: the reference workload with the profile
   accumulator attached at the front ends' sampling stride
   ({!Mcheck.Explore.default_profile_every}: strided statistical
   attribution — a disarmed node costs one counter decrement, an armed
   one a tick read and an open-addressing bump). This is the ≤5%
   pay-for-use contract of DESIGN.md §5i, asserted here; the progress
   estimator is priced in its own unasserted row. *)
let profile_overhead_rows () =
  let cfg = peterson_cfg () in
  let bare () =
    let r = Mcheck.Explore.explore ~max_nodes:100_000 cfg in
    assert r.Mcheck.Explore.verified;
    r.Mcheck.Explore.nodes
  in
  let profiled () =
    let p =
      Mcheck.Explore.new_profile ~every:Mcheck.Explore.default_profile_every
        ()
    in
    let r = Mcheck.Explore.explore ~max_nodes:100_000 ~profile:p cfg in
    assert r.Mcheck.Explore.verified;
    r.Mcheck.Explore.nodes
  in
  let estimated () =
    let r =
      Mcheck.Explore.explore ~max_nodes:100_000
        ~estimator:{ Obs.Estimator.probes = 64; seed = 0 }
        cfg
    in
    assert r.Mcheck.Explore.verified;
    r.Mcheck.Explore.nodes
  in
  let b1, prof = per_node_min_pair bare profiled in
  let b2, est = per_node_min_pair bare estimated in
  let prof_pct = (prof -. b1) /. b1 *. 100. in
  let est_pct = (est -. b2) /. b2 *. 100. in
  (* the pay-for-use contract: sampled profiling within 5% of bare *)
  assert (prof_pct <= 5.0);
  [
    per_node_row "price_adaptive mcheck/peterson n=2 per-node (profiled)"
      prof;
    row "price_adaptive mcheck/peterson n=2 profiling overhead" prof_pct
      "percent";
    per_node_row
      "price_adaptive mcheck/peterson n=2 per-node (progress estimator)" est;
    row "price_adaptive mcheck/peterson n=2 estimator overhead" est_pct
      "percent";
  ]

(* Estimator accuracy on the reference workload: mean probe estimate
   over a fixed seed set against the exhaustively-counted space, plus
   its relative error — the bench-side echo of the unbiasedness test
   (suite_profile). *)
let estimator_rows () =
  let cfg = peterson_cfg () in
  let truth =
    float_of_int
      (Mcheck.Explore.explore ~max_nodes:100_000 cfg).Mcheck.Explore.nodes
  in
  let seeds = 10 in
  let sum = ref 0.0 in
  for seed = 0 to seeds - 1 do
    let r =
      Mcheck.Explore.explore ~max_nodes:100_000
        ~estimator:{ Obs.Estimator.probes = 64; seed }
        cfg
    in
    assert (r.Mcheck.Explore.nodes = int_of_float truth);
    sum := !sum +. r.Mcheck.Explore.stats.Mcheck.Explore.est_nodes
  done;
  let mean = !sum /. float_of_int seeds in
  [
    row "price_adaptive mcheck/peterson n=2 nodes (true)" truth "nodes";
    row "price_adaptive mcheck/peterson n=2 estimated nodes (mean, 10 seeds)"
      mean "nodes";
    row "price_adaptive mcheck/peterson n=2 estimator rel error"
      (Float.abs (mean -. truth) /. truth *. 100.)
      "percent";
  ]

let run () =
  Printf.printf "\nSearch-profiler overhead and estimator accuracy\n";
  Printf.printf "===============================================\n";
  Printf.printf "%-70s %12s\n" "row" "value";
  List.iter
    (fun (name, value, unit_) ->
      Printf.printf "%-70s %12.1f %s\n" name value unit_)
    (profile_overhead_rows () @ estimator_rows ())
